"""The observability overhead gate (nightly slow tier).

Runs the builtin smoke scenario over real TCP sockets in interleaved
pairs -- one leg with the full observability stack enabled (every WAL
fsync timed, every decrypt counted, every phase sampled, *and* causal
span parenting writing duration records to an ``obs_dir``), one with all
of it disabled, alternating which leg goes first so host drift lands on
both sides -- and gates the difference:

* wall overhead of instrumentation must stay within 5% (plus a small
  absolute epsilon so a sub-second scenario cannot fail on scheduler
  noise alone);
* the byte-accounting stream must be *identical* frame for frame: with
  no ``--metrics-interval`` push configured, metrics collection rides
  only the engine's phase-boundary probe frames, which the broker
  answers directly and never accounts, and span ids never travel on
  the wire at all (the analyzer infers cross-process edges from hop
  timestamps).  Observability must not change what the bandwidth
  experiments measure.
"""

import tempfile

from repro.bench.runner import format_table
from repro.load import run_scenario, smoke_scenario
from repro.obs.metrics import get_registry

#: Pairs of (off, on) runs; each leg's minimum is over this many walls.
ROUNDS = 8
#: Allowed instrumentation cost: 5% relative plus 50 ms absolute (the
#: smoke scenario settles in about a second; a pure ratio would gate on
#: scheduler jitter, not on instrumentation).
REL_OVERHEAD = 0.05
ABS_EPSILON_S = 0.05


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


def test_obs_overhead_within_budget():
    reports = {False: [], True: []}
    for round_no in range(ROUNDS):
        first = bool(round_no % 2)  # alternate which leg leads the pair
        for enabled in (first, not first):
            reports[enabled].append(_run_once(enabled))
    off_reports, on_reports = reports[False], reports[True]
    off_walls = [report.wall_s for report in off_reports]
    on_walls = [report.wall_s for report in on_reports]
    off_min, on_min = min(off_walls), min(on_walls)

    print()
    print(format_table(
        "smoke scenario over TCP, observability on vs off "
        "(%d interleaved pairs)" % ROUNDS,
        ["registry", "mean ms", "min ms", "max ms"],
        [
            [label, sum(walls) / len(walls) * 1e3, min(walls) * 1e3,
             max(walls) * 1e3]
            for label, walls in (("off", off_walls), ("on", on_walls))
        ],
    ))
    print("overhead ratio (min on / min off): %.3f" % (on_min / off_min))

    # Gate on the minimum (the stable estimator under scheduler noise).
    assert on_min <= off_min * (1 + REL_OVERHEAD) + ABS_EPSILON_S, (
        "instrumentation overhead %.1f ms exceeds %d%% + %d ms of the "
        "%.1f ms baseline"
        % ((on_min - off_min) * 1e3, REL_OVERHEAD * 100,
           ABS_EPSILON_S * 1e3, off_min * 1e3)
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
