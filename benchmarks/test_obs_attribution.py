"""The latency-attribution acceptance gate (nightly slow tier).

Runs the churn scenario -- 64 subscribers, sustained revoke/flap
schedule -- over real TCP sockets behind a 2-deep relay chain with the
span writer and the cProfile window recorder both enabled, then holds
the analyzer to the numbers the harness exists to produce:

* >= 95% of publish traces must stitch fully across every process's
  ``obs.jsonl`` (engine, root broker, both relays);
* the *named* stages -- ``ocbe.build``, ``acv.solve``, ``wal.fsync``,
  ``decrypt``, ``hop.transit`` and friends -- must account for >= 80%
  of the end-to-end publish wall, leaving no anonymous blob where the
  OCBE cost hides;
* the merged profile must attribute the join wave's cost to named
  functions (the elliptic-curve inner loop, in practice), because "the
  join wave is slow" is only actionable as "``_jac_double`` is 40% of
  it".
"""

import tempfile

from repro.load import churn_scenario, run_scenario, with_relays
from repro.obs.analyze import (
    OTHER_STAGE,
    TRANSIT_STAGE,
    analyze_paths,
    format_attribution,
)
from repro.obs.profile import (
    discover_profiles,
    merge_profiles,
    top_functions,
)

RELAY_DEPTH = 2
MIN_STITCHED = 0.95
MIN_NAMED_SHARE = 0.80
#: The stages the paper's cost model names; everything the analyzer
#: attributes is named, but these are the ones the gate's story is
#: about -- at least some of them must appear with non-zero self time.
EXPECTED_STAGES = ("ocbe.build", "acv.solve", "wal.fsync", "decrypt",
                   TRANSIT_STAGE)


def test_churn_attribution_and_profile():
    scenario = with_relays(churn_scenario(), RELAY_DEPTH)
    with tempfile.TemporaryDirectory() as obs_dir, \
            tempfile.TemporaryDirectory() as profile_dir:
        report = run_scenario(
            scenario, driver="tcp", broker="thread", timeout=600.0,
            obs_dir=obs_dir, profile_dir=profile_dir,
        )
        assert report.wall_s > 0.0

        analysis = analyze_paths([obs_dir])
        table = analysis.publish_attribution()
        print()
        print(format_attribution(
            table, "churn-relay%d publish attribution" % RELAY_DEPTH))

        # Every process's clock folded into one frame, and nearly every
        # publish trace stitched end to end across it.
        assert analysis.stitched_fraction >= MIN_STITCHED, (
            "only %.1f%% of publish traces stitched fully (problems: %s)"
            % (analysis.stitched_fraction * 100.0,
               sorted({p.kind for p in analysis.problems}))
        )

        # Named stages carry the publish wall: whatever is not in the
        # table is in OTHER_STAGE, so the named share is the coverage.
        named = sum(
            cut["share"] for name, cut in table["stages"].items()
            if name != OTHER_STAGE
        )
        assert named >= MIN_NAMED_SHARE, (
            "named stages cover %.1f%% of the publish wall, need %.0f%% "
            "(stages: %s)"
            % (named * 100.0, MIN_NAMED_SHARE * 100.0,
               sorted(table["stages"]))
        )
        present = [s for s in EXPECTED_STAGES if s in table["stages"]]
        assert len(present) >= 3, (
            "expected the cost-model stages in the table, got %s"
            % sorted(table["stages"])
        )

        # The profiler saw the join wave and can say *which functions*
        # the OCBE wall is made of -- function names only, never values.
        merged = merge_profiles(discover_profiles([profile_dir]))
        assert "join" in merged["stages"], (
            "no join window profiled (stages: %s)" % sorted(merged["stages"])
        )
        top = top_functions(merged, "join", 10)
        assert top, "join window profiled but attributed to no functions"
        for key, calls, tot, _cum in top:
            assert key.count(":") >= 2  # basename:lineno:function, no args
            assert calls >= 1 and tot >= 0.0
