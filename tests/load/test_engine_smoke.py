"""Smoke-scale engine runs over both drivers (the fast-tier coverage).

The nightly churn scenario lives in ``benchmarks/test_load_scenarios.py``;
here a deliberately small population exercises every phase kind, both
drivers, and the driver-equivalence property: the TCP run must carry
byte-identical protocol traffic to the in-memory run.
"""

import json

import pytest

from repro.load import (
    LoadEngine,
    LoadScenario,
    PhaseSpec,
    builtin_scenario,
    feed_publisher,
    run_scenario,
)
from repro.load.__main__ import main
from repro.system.transport import BROADCAST


def tiny_scenario(name="tiny"):
    return LoadScenario(
        name=name,
        seed=0x717,
        publishers=(feed_publisher("alpha"), feed_publisher("beta")),
        phases=(
            PhaseSpec(kind="join", count=6),
            PhaseSpec(kind="revoke", count=2),
            PhaseSpec(kind="flap", count=1),
            PhaseSpec(kind="broadcast", repeat=2),
        ),
    ).validate()


@pytest.fixture(scope="module")
def memory_engine():
    with LoadEngine(tiny_scenario(), driver="memory") as engine:
        engine.report = engine.run()
        yield engine


def test_memory_run_shape(memory_engine):
    report = memory_engine.report
    assert [p.kind for p in report.phases] == [
        "join", "revoke", "flap", "broadcast",
    ]
    assert report.phases[-1].members_alive == 6
    assert report.phases[-1].members_revoked == 2
    # Every phase rekeyed: 2 publishers x 1 document (x2 for the flap's
    # down+recovery rekeys and the broadcast repeat).
    assert [p.broadcasts for p in report.phases] == [2, 2, 4, 4]
    # Registration (join/flap-recovery) legitimately unicasts acks and
    # envelopes; phases without registration must not unicast at all
    # (the rekey windows themselves are asserted by the invariants).
    for phase in report.phases:
        if phase.kind in ("revoke", "broadcast"):
            assert phase.publisher_unicast_frames == 0


def test_memory_membership_outcomes(memory_engine):
    engine = memory_engine
    revoked = [m for m in engine.members.values() if m.revoked]
    flapped = [m for m in engine.members.values() if m.flaps]
    assert len(revoked) == 2 and len(flapped) == 1
    for member in revoked:
        for document in engine.publisher_spec(member.publisher).documents:
            assert member.client.documents[document.name] == {}
    for member in flapped:
        assert member.client.reuse_css
        assert member.alive
        # The flapped member received the broadcast it missed while dead
        # (queued in its inbox) plus everything since.
        assert len(member.client.packages) >= member.expected_packages
    # Revoked rows are gone from every publisher table.
    for member in revoked:
        table = engine.services[member.publisher].publisher.table
        assert member.nym not in table.pseudonyms()


def test_memory_broadcasts_accounted_once(memory_engine):
    accounting = memory_engine.accounting()
    broadcasts = [
        m for m in accounting.messages if m.kind == "broadcast-package"
    ]
    assert broadcasts
    assert all(m.receiver == BROADCAST for m in broadcasts)


def test_cli_report_carries_phases_and_pins_smoke_bytes(tmp_path, capsys):
    """``--report`` writes every per-phase number the table prints, and
    the builtin ``smoke`` scenario's accounted traffic is pinned: a PR
    that says "bytes identical to parent" means this total."""
    path = tmp_path / "smoke.json"
    assert main(["--builtin", "smoke", "--driver", "memory",
                 "--report", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["scenario"] == "smoke" and payload["driver"] == "memory"
    for phase in payload["phases"]:
        assert phase["wall_s"] > 0
        assert phase["rekey_publish_s"] >= 0
        assert sum(phase["bytes_by_kind"].values()) == phase["bytes_total"]
    per_phase = [phase["bytes_total"] for phase in payload["phases"]]
    assert per_phase == [31890, 725, 2993, 13263, 1610]
    assert sum(per_phase) == 50_481


def test_smoke_bucketed_bytes_pinned():
    report = run_scenario(builtin_scenario("smoke-bucketed"), driver="memory")
    assert sum(phase.bytes_total for phase in report.phases) == 52_213


def test_tcp_run_matches_memory_traffic(memory_engine):
    report = run_scenario(tiny_scenario(), driver="tcp")
    assert report.driver == "tcp"
    # Same scenario, same seed: the socket run must carry byte-identical
    # protocol traffic (frames and sizes), only wall times may differ.
    assert report.bytes_by_kind() == memory_engine.report.bytes_by_kind()
    assert [p.frames for p in report.phases] == [
        p.frames for p in memory_engine.report.phases
    ]


def test_revoking_more_than_population_is_typed():
    from repro.errors import LoadScenarioError

    scenario = LoadScenario(
        name="overdraw",
        seed=3,
        publishers=(feed_publisher("alpha"),),
        phases=(
            PhaseSpec(kind="join", count=2),
            PhaseSpec(kind="revoke", count=5),
        ),
    )
    with pytest.raises(LoadScenarioError, match="only 2 current"):
        run_scenario(scenario, driver="memory")
