"""The observability overhead gate (nightly slow tier).

Runs the builtin smoke scenario over real TCP sockets in interleaved
pairs -- one leg with the full observability stack enabled (every WAL
fsync timed, every decrypt counted, every phase sampled, *and* causal
span parenting writing duration records to an ``obs_dir``), one with all
of it disabled, alternating which leg goes first so host drift lands on
both sides -- and gates the difference:

* the CPU the process spends with instrumentation must stay within 5%
  (plus a small absolute epsilon) of the CPU it spends without.  The
  broker runs as a thread, so ``time.process_time`` covers every hop;
  unlike the wall, it does not count the time a busy host keeps this
  process waiting (the wall ratio is still printed);
* the byte-accounting stream must be *identical* frame for frame: with
  no ``--metrics-interval`` push configured, metrics collection rides
  only the engine's phase-boundary probe frames, which the broker
  answers directly and never accounts, and span ids never travel on
  the wire at all (the analyzer infers cross-process edges from hop
  timestamps).  Observability must not change what the bandwidth
  experiments measure.
"""

import tempfile
import time

from repro.bench.runner import format_table
from repro.load import run_scenario, smoke_scenario
from repro.obs.metrics import MetricsRegistry, get_registry

#: Pairs of (off, on) runs; each leg's minimum is over this many runs.
ROUNDS = 8
#: Allowed instrumentation cost: 5% relative plus 50 ms absolute of CPU
#: (the smoke scenario uses about a second of it; a pure ratio would gate
#: on scheduler jitter, not on instrumentation).
REL_OVERHEAD = 0.05
ABS_EPSILON_S = 0.05
#: CPU the planted regression burns per counter increment while the
#: registry is enabled: the smoke run's few hundred increments make it
#: about half a second, ten times the absolute epsilon.
PLANTED_S = 0.002


def _run_once(enabled: bool):
    registry = get_registry()
    registry.reset()
    registry.enabled = enabled
    try:
        if enabled:
            # The enabled leg carries the whole stack: metrics registry
            # plus the span-parented obs.jsonl stream the attribution
            # analyzer stitches.
            with tempfile.TemporaryDirectory() as obs_dir:
                return run_scenario(
                    smoke_scenario(), driver="tcp", broker="thread",
                    obs_dir=obs_dir,
                )
        return run_scenario(smoke_scenario(), driver="tcp", broker="thread")
    finally:
        registry.enabled = True
        registry.reset()


def _interleaved():
    """``ROUNDS`` interleaved (off, on) pairs: the reports and the
    process CPU of each run, keyed by whether the registry was on."""
    reports = {False: [], True: []}
    cpu = {False: [], True: []}
    for round_no in range(ROUNDS):
        first = bool(round_no % 2)  # alternate which leg leads the pair
        for enabled in (first, not first):
            start = time.process_time()
            reports[enabled].append(_run_once(enabled))
            cpu[enabled].append(time.process_time() - start)
    return reports, cpu


def _over_budget(cpu) -> float:
    """How far the minimum CPU with instrumentation exceeds the budget
    over the minimum without (positive: the gate fails)."""
    off_min, on_min = min(cpu[False]), min(cpu[True])
    return on_min - (off_min * (1 + REL_OVERHEAD) + ABS_EPSILON_S)


def test_obs_overhead_within_budget():
    reports, cpu = _interleaved()
    off_reports, on_reports = reports[False], reports[True]
    walls = {
        enabled: [report.wall_s for report in reports[enabled]]
        for enabled in (False, True)
    }

    print()
    print(format_table(
        "smoke scenario over TCP, observability on vs off "
        "(%d interleaved pairs)" % ROUNDS,
        ["registry", "measure", "mean ms", "min ms", "max ms"],
        [
            [label, measure, sum(values) / len(values) * 1e3,
             min(values) * 1e3, max(values) * 1e3]
            for measure, by_leg in (("cpu", cpu), ("wall", walls))
            for label, values in (("off", by_leg[False]), ("on", by_leg[True]))
        ],
    ))
    print("overhead ratio (min on / min off): cpu %.3f, wall %.3f" % (
        min(cpu[True]) / min(cpu[False]), min(walls[True]) / min(walls[False])
    ))

    # Gate on the minimum (the stable estimator under scheduler noise).
    assert _over_budget(cpu) <= 0, (
        "instrumentation CPU %.1f ms exceeds %d%% + %d ms of the "
        "%.1f ms baseline"
        % ((min(cpu[True]) - min(cpu[False])) * 1e3, REL_OVERHEAD * 100,
           ABS_EPSILON_S * 1e3, min(cpu[False]) * 1e3)
    )

    # With no metrics interval configured, the accounted protocol traffic
    # is bit-for-bit unchanged by observability: same frame counts, same
    # per-kind byte totals, every run, on or off.
    baseline = off_reports[0]
    for report in off_reports[1:] + on_reports:
        assert [p.frames for p in report.phases] == [
            p.frames for p in baseline.phases
        ]
        assert report.bytes_by_kind() == baseline.bytes_by_kind()

    # The enabled run actually collected something: the phase samples
    # carry live counters from every vantage (local registry + broker).
    last = on_reports[0].phases[-1]
    assert last.obs is not None
    assert last.obs["local"]["counters"].get("wal.appends", 0) > 0
    assert last.obs["root"]["counters"].get("broker.deliver", 0) > 0
    # And the disabled run's local registry stayed silent.
    off_last = off_reports[0].phases[-1]
    assert off_last.obs["local"]["counters"] == {}


def test_planted_instrumentation_cost_fails_the_gate(monkeypatch):
    """The gate catches a regression it exists for: a busy loop in the
    counter increment, which runs only while the registry is enabled."""
    increment = MetricsRegistry.inc

    def busy_increment(self, name, amount=1):
        if self.enabled:
            deadline = time.process_time() + PLANTED_S
            while time.process_time() < deadline:
                pass
        increment(self, name, amount)

    monkeypatch.setattr(MetricsRegistry, "inc", busy_increment)
    _, cpu = _interleaved()
    print("\nplanted regression: %.1f ms of CPU over the budget"
          % (_over_budget(cpu) * 1e3))
    assert _over_budget(cpu) > 0
