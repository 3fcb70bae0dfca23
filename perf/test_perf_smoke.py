"""Tier-1 smoke of the benchmark: every workload at ``--scale smoke``.

No timing is asserted here -- only that the harness reports exactly the
names ``BENCHMARK.json`` lists, that the oracle passes, that the
layer-isolation predictions of the README hold and that a traced run
leaves no wrapper behind.
"""

import importlib
import json

import pytest

from perf import harness, run
from perf.tracing import COUNT_TARGETS, SPAN_TARGETS

SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
FANOUT = ("steady_fanout", "bulk_payload", "tcp_tree")


def _raw_targets():
    """The attribute objects the tracer patches, as currently bound."""
    raw = []
    for _, module_name, class_name, attr in SPAN_TARGETS + COUNT_TARGETS:
        module = importlib.import_module(module_name)
        if class_name is None:
            raw.append(getattr(module, attr))
        else:
            cls = getattr(module, class_name)
            owner = next(c for c in cls.__mro__ if attr in c.__dict__)
            raw.append(owner.__dict__[attr])
    return raw


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_benchmark_json_lists_the_harness_workloads():
    assert set(WORKLOADS) == set(harness.WORKLOADS)
    assert SPEC["paths"] == ["perf"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = harness.run(workload, seed=7, seconds=1.0, trace=False, scale="smoke")
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert result["failed"] == 0 and result["correct"]
    for name, metric in result["metrics"].items():
        assert metric["unit"], name
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_cleans_up(workload):
    before = _raw_targets()
    result = harness.run(workload, seed=7, seconds=1.0, trace=True, scale="smoke")
    after = _raw_targets()
    assert all(a is b for a, b in zip(before, after)), "a wrapper survived the run"
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(m["unit"] for m in result["metrics"].values())
    assert result["failed"] == 0
    values = _values(result)
    notes = result["notes"]
    assert abs(notes["unexplained_s"]) <= 0.02 * notes["traced_wall_s"]
    assert values["harness.samples"] > 0
    if workload != "join_wave":
        for name in ("ocbe.compose_calls", "ocbe.open_calls", "ocbe.commit_msg_busy_s",
                     "store.wal_append_calls"):
            assert values[name] == 0, name
        assert values["system.publish_busy_s"] > 0
    else:
        assert values["ocbe.compose_calls"] > 0
        assert values["ocbe.open_calls"] > 0
        assert 0 < values["ocbe.open_useful_ratio"] <= 1
        assert values["store.wal_append_calls"] > 0
        assert values["system.publish_busy_s"] == 0
    if workload in FANOUT:
        assert values["gkm.cache_misses"] == 0
        assert values["gkm.cache_hits"] > 0
        assert values["mathx.null_space_calls"] == 0
        assert values["groups.pow_calls"] == values["groups.fixed_pow_calls"] == 0
    if workload == "churn_rekey":
        assert values["gkm.cache_misses"] > 0
        assert values["gkm.cache_extends"] > 0
        assert values["mathx.rref_extend_calls"] > 0
    net = {name: value for name, value in values.items() if name.startswith("net.")}
    if workload == "tcp_tree":
        assert net["net.poll_calls"] > 0 and net["net.transit_p50_ms"] > 0
        assert net["net.broker_delivered"] > 0 and net["net.relay_delivered"] > 0
    else:
        assert not any(net.values()), net


def test_cli_last_line_is_the_driver_record(capsys):
    assert run.main(["--workload", "steady_fanout", "--scale", "smoke",
                     "--seed", "3", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(lines[-1])
    assert sorted(record) == ["attempted", "correct", "failed", "metrics"]
    assert record["correct"] is True and record["attempted"] >= 1
    printed = "\n".join(lines[:-1])
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in printed


def test_selftest_oracle_catches_injected_faults(capsys):
    assert run.selftest(seed=5) == 0
    out = capsys.readouterr().out
    assert "ORACLE MISSED" not in out
