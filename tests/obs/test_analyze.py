"""Trace stitching, clock-skew correction and latency attribution.

The analyzer consumes files written by *other* processes -- possibly
truncated mid-write, possibly from a hostile or buggy entity -- so next
to the happy path every structural invariant is attacked directly:
forged parent ids, cycles, duplicate span ids, spans with no start,
non-monotonic timestamps.  The required behavior is always the same:
typed :class:`TraceProblem` records and a *partial* result, never a
crash and never silent mis-attribution.
"""

import json
import subprocess
import sys

from repro.obs.analyze import (
    OTHER_STAGE,
    TRANSIT_STAGE,
    TraceView,
    analyze_paths,
    attribution_table,
    exact_quantile,
    main,
)

TRACE_A = "aa" * 16
TRACE_B = "bb" * 16


def _write(tmp_path, entity, records):
    directory = tmp_path / entity
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "obs.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            record.setdefault("entity", entity)
            record.setdefault("trace", "")
            handle.write(json.dumps(record) + "\n")
    return str(path)


def _span(ts, trace, span, stage, start, dur, parent=None, **fields):
    record = {
        "event": "span", "ts": ts, "trace": trace, "span": span,
        "stage": stage, "start": start, "dur": dur,
    }
    if parent is not None:
        record["parent"] = parent
    record.update(fields)
    return record


def _publish_fixture(tmp_path, skew=0.0):
    """One publish crossing publisher -> broker -> subscriber, with the
    subscriber's clock shifted by ``skew`` seconds.

    Ground truth (publisher clock): publish spans [100.0, 100.5],
    broker broadcast at 100.6, subscriber handle at 100.7 with an
    0.2 s decrypt.  Both hop directions exist for the subscriber
    (register send at 90 -> handle at 90.1, reply path back), so the
    offset estimate is symmetric.
    """
    pub = _write(tmp_path, "pub", [
        _span(100.5, TRACE_A, "01" * 8, "publish", 100.0, 0.5),
        {"event": "publish", "ts": 100.5, "trace": TRACE_A,
         "span": "01" * 8, "ep": "alpha", "kind": "broadcast-package"},
        {"event": "handle", "ts": 90.0, "trace": TRACE_B, "span": "05" * 8,
         "sender": "sub", "ep": "alpha", "kind": "registration-request"},
        {"event": "send", "ts": 90.05, "trace": TRACE_B, "ep": "alpha",
         "receiver": "sub", "kind": "registration-ack"},
    ])
    broker = _write(tmp_path, "broker", [
        {"event": "connect", "ts": 80.0, "peer": "alpha"},
        {"event": "broadcast", "ts": 100.6, "trace": TRACE_A,
         "sender": "alpha", "kind": "broadcast-package", "seq": 1},
    ])
    sub = _write(tmp_path, "sub", [
        {"event": "send", "ts": 89.95 + skew, "trace": TRACE_B,
         "ep": "sub", "receiver": "alpha", "kind": "registration-request"},
        {"event": "handle", "ts": 90.10 + skew, "trace": TRACE_B,
         "span": "06" * 8, "sender": "alpha", "ep": "sub",
         "kind": "registration-ack"},
        {"event": "handle", "ts": 100.70 + skew, "trace": TRACE_A,
         "span": "02" * 8, "sender": "alpha", "ep": "sub",
         "kind": "broadcast-package"},
        _span(100.92 + skew, TRACE_A, "03" * 8, "decrypt",
              100.72 + skew, 0.2),
    ])
    return pub, broker, sub


# -- happy path --------------------------------------------------------------


def test_stitch_single_file_tree(tmp_path):
    _write(tmp_path, "engine", [
        _span(10.9, TRACE_A, "aa" * 8, "publish", 10.0, 0.9),
        _span(10.8, TRACE_A, "bb" * 8, "acv.solve", 10.2, 0.6,
              parent="aa" * 8),
        {"event": "publish", "ts": 10.9, "trace": TRACE_A,
         "span": "aa" * 8, "ep": "alpha", "kind": "broadcast-package"},
    ])
    analysis = analyze_paths([str(tmp_path)])
    (view,) = analysis.traces
    assert view.kind == "publish"
    assert view.problems == []
    # Self time excludes the nested child's duration.
    assert abs(view.stage_self["publish"] - 0.3) < 1e-9
    assert abs(view.stage_self["acv.solve"] - 0.6) < 1e-9
    assert abs(view.wall_s - 0.9) < 1e-9


def test_clock_skew_recovered_and_transit_positive(tmp_path):
    _publish_fixture(tmp_path, skew=5.0)
    analysis = analyze_paths([str(tmp_path)])
    sub_path = [p for p in analysis.files if "sub" in p][0]
    # The subscriber's +5 s skew is recovered to within the transit
    # asymmetry of the synthetic pairs (~0.1 s).
    assert abs(analysis.offsets[sub_path] - 5.0) < 0.2
    (view,) = analysis.publish_traces
    assert view.stitched
    assert view.transit_s > 0.0
    assert not any(p.kind == "negative-transit" for p in view.problems)


def test_unskewed_run_has_near_zero_offsets(tmp_path):
    _publish_fixture(tmp_path, skew=0.0)
    analysis = analyze_paths([str(tmp_path)])
    assert all(abs(theta) < 0.2 for theta in analysis.offsets.values())


def test_reference_override_pins_zero(tmp_path):
    pub, _broker, sub = _publish_fixture(tmp_path, skew=5.0)
    analysis = analyze_paths([str(tmp_path)], reference=sub)
    assert analysis.reference == sub
    assert analysis.offsets[sub] == 0.0
    assert abs(analysis.offsets[pub] + 5.0) < 0.2


def test_unknown_reference_falls_back(tmp_path):
    _publish_fixture(tmp_path)
    analysis = analyze_paths([str(tmp_path)], reference="/nope/obs.jsonl")
    assert any(p.kind == "unknown-reference" for p in analysis.problems)
    assert analysis.reference in analysis.files


def test_fully_stitched_ignores_files_outside_publishes(tmp_path):
    _publish_fixture(tmp_path)
    # An idmgr that never sees a broadcast must not make the publish
    # look partially stitched.
    _write(tmp_path, "idmgr", [
        {"event": "handle", "ts": 50.0, "trace": "cc" * 16,
         "span": "07" * 8, "sender": "sub", "ep": "idmgr",
         "kind": "token-request"},
    ])
    analysis = analyze_paths([str(tmp_path)])
    assert analysis.stitched_fraction == 1.0


def test_attribution_table_shares_and_quantiles(tmp_path):
    _publish_fixture(tmp_path)
    analysis = analyze_paths([str(tmp_path)])
    table = analysis.publish_attribution()
    assert table["traces"] == 1
    stages = table["stages"]
    assert set(stages) >= {"publish", "decrypt", TRANSIT_STAGE}
    for cut in stages.values():
        assert cut["p50_s"] <= cut["p95_s"] <= cut["p99_s"]
    # publish 0.5 s + decrypt 0.2 s + transit inside a ~0.92 s wall: the
    # named stages account for most of it (the broker hop's one-way
    # offset estimate eats the first-arrival transit, so the exact
    # coverage depends on which minimum the estimator saw).
    assert table["coverage"] > 0.7


def test_union_wall_counts_overlap_once():
    views = [
        TraceView(trace="a", kind="publish", start=0.0, end=1.0, files=()),
        TraceView(trace="b", kind="publish", start=0.5, end=1.5, files=()),
        TraceView(trace="c", kind="publish", start=3.0, end=3.5, files=()),
    ]
    views[0].stage_self = {"decrypt": 1.0}
    table = attribution_table(views)
    assert abs(table["wall_s"] - 2.0) < 1e-9
    assert abs(table["stages"]["decrypt"]["share"] - 0.5) < 1e-9


def test_idle_gap_becomes_transit(tmp_path):
    # Two arrivals 1 s apart, each with a 0.1 s handling span: the 0.8 s
    # the process spent waiting between them is hop.transit, not
    # "other" -- in a serial pump that gap is exactly queue/wire dwell.
    _write(tmp_path, "engine", [
        _span(10.2, TRACE_A, "aa" * 8, "publish", 10.0, 0.2),
        {"event": "publish", "ts": 10.2, "trace": TRACE_A,
         "span": "aa" * 8, "ep": "alpha", "kind": "broadcast-package"},
        {"event": "handle", "ts": 10.3, "trace": TRACE_A, "span": "bb" * 8,
         "sender": "alpha", "ep": "m1", "kind": "broadcast-package"},
        _span(10.4, TRACE_A, "cc" * 8, "hop.handle", 10.3, 0.1),
        {"event": "handle", "ts": 11.3, "trace": TRACE_A, "span": "dd" * 8,
         "sender": "alpha", "ep": "m2", "kind": "broadcast-package"},
        _span(11.4, TRACE_A, "ee" * 8, "hop.handle", 11.3, 0.1),
    ])
    analysis = analyze_paths([str(tmp_path)])
    (view,) = analysis.publish_traces
    # 0.1 s first-arrival gap + 0.9 s idle between the two handles
    # (the 1.1 s inter-arrival extent minus 0.2 s of handling spans).
    assert 0.9 < view.transit_s < 1.1
    table = attribution_table([view])
    assert OTHER_STAGE not in table["stages"]


def test_exact_quantile():
    assert exact_quantile([], 0.5) == 0.0
    assert exact_quantile([7.0], 0.99) == 7.0
    values = [1.0, 2.0, 3.0, 4.0]
    assert exact_quantile(values, 0.0) == 1.0
    assert exact_quantile(values, 1.0) == 4.0
    assert abs(exact_quantile(values, 0.5) - 2.5) < 1e-9


# -- hostile span records ----------------------------------------------------


def _single_file_analysis(tmp_path, records):
    _write(tmp_path, "engine", records)
    return analyze_paths([str(tmp_path)])


def test_forged_parent_id_degrades(tmp_path):
    analysis = _single_file_analysis(tmp_path, [
        _span(10.5, TRACE_A, "aa" * 8, "publish", 10.0, 0.5),
        _span(10.4, TRACE_A, "bb" * 8, "decrypt", 10.1, 0.3,
              parent="f0" * 8),  # no such span anywhere
        {"event": "publish", "ts": 10.5, "trace": TRACE_A,
         "span": "aa" * 8, "ep": "alpha", "kind": "broadcast-package"},
    ])
    (view,) = analysis.traces
    assert any(p.kind == "unknown-parent" for p in view.problems)
    # The orphan still contributes its own self time; the publish span
    # keeps its full duration (the forged child never subtracts).
    assert abs(view.stage_self["publish"] - 0.5) < 1e-9
    assert abs(view.stage_self["decrypt"] - 0.3) < 1e-9


def test_parent_cycle_degrades(tmp_path):
    analysis = _single_file_analysis(tmp_path, [
        _span(10.5, TRACE_A, "aa" * 8, "publish", 10.0, 0.5,
              parent="bb" * 8),
        _span(10.4, TRACE_A, "bb" * 8, "decrypt", 10.1, 0.3,
              parent="aa" * 8),
        {"event": "publish", "ts": 10.5, "trace": TRACE_A,
         "span": "aa" * 8, "ep": "alpha", "kind": "broadcast-package"},
    ])
    (view,) = analysis.traces
    assert any(p.kind == "parent-cycle" for p in view.problems)
    # Mutual parenthood subtracts both ways; the self-time clamp keeps
    # every stage non-negative instead of inventing negative time.
    assert all(v >= 0.0 for v in view.stage_self.values())


def test_duplicate_span_ids_keep_first(tmp_path):
    analysis = _single_file_analysis(tmp_path, [
        _span(10.5, TRACE_A, "aa" * 8, "publish", 10.0, 0.5),
        _span(10.9, TRACE_A, "aa" * 8, "publish", 10.0, 99.0),  # forged dup
        {"event": "publish", "ts": 10.5, "trace": TRACE_A,
         "span": "aa" * 8, "ep": "alpha", "kind": "broadcast-package"},
    ])
    (view,) = analysis.traces
    assert any(p.kind == "duplicate-span" for p in view.problems)
    assert abs(view.stage_self["publish"] - 0.5) < 1e-9


def test_span_without_start_degrades(tmp_path):
    # An "end without start": the writer emits one record at exit, so a
    # crashed stage shows up as a span record missing start/dur fields.
    analysis = _single_file_analysis(tmp_path, [
        {"event": "span", "ts": 10.5, "trace": TRACE_A, "span": "aa" * 8,
         "stage": "publish", "dur": 0.5},
        {"event": "publish", "ts": 10.5, "trace": TRACE_A,
         "span": "aa" * 8, "ep": "alpha", "kind": "broadcast-package"},
    ])
    (view,) = analysis.traces
    assert any(p.kind == "bad-span-record" for p in view.problems)
    assert "publish" not in view.stage_self


def test_non_monotonic_duration_degrades(tmp_path):
    analysis = _single_file_analysis(tmp_path, [
        _span(10.5, TRACE_A, "aa" * 8, "publish", 10.0, -0.5),
        {"event": "publish", "ts": 10.5, "trace": TRACE_A,
         "span": "aa" * 8, "ep": "alpha", "kind": "broadcast-package"},
    ])
    (view,) = analysis.traces
    assert any(p.kind == "bad-span-record" for p in view.problems)
    assert view.stage_self == {}


def test_malformed_lines_reported_not_fatal(tmp_path):
    path = _write(tmp_path, "engine", [
        _span(10.5, TRACE_A, "aa" * 8, "publish", 10.0, 0.5),
        {"event": "publish", "ts": 10.5, "trace": TRACE_A,
         "span": "aa" * 8, "ep": "alpha", "kind": "broadcast-package"},
    ])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{truncated mid-write\n")
    analysis = analyze_paths([str(tmp_path)])
    assert any(p.kind == "malformed-line" for p in analysis.problems)
    assert len(analysis.publish_traces) == 1


def test_unsynced_file_flagged(tmp_path):
    _publish_fixture(tmp_path)
    # A file sharing no hop pair with anyone cannot be skew-corrected.
    _write(tmp_path, "island", [
        _span(500.0, "dd" * 16, "09" * 8, "decrypt", 499.0, 1.0),
    ])
    analysis = analyze_paths([str(tmp_path)])
    assert any(p.kind == "unsynced-file" for p in analysis.problems)


# -- the CLI -----------------------------------------------------------------


def test_cli_check_passes_on_good_run(tmp_path, capsys):
    _publish_fixture(tmp_path)
    assert main([str(tmp_path), "--check"]) == 0
    assert "CHECK OK" in capsys.readouterr().out


def test_cli_check_fails_without_publishes(tmp_path, capsys):
    _write(tmp_path, "engine", [
        {"event": "handle", "ts": 1.0, "trace": TRACE_B, "span": "01" * 8,
         "sender": "a", "ep": "b", "kind": "registration-request"},
    ])
    assert main([str(tmp_path), "--check"]) == 1
    assert "CHECK FAILED" in capsys.readouterr().out


def test_cli_check_fails_below_min_coverage(tmp_path, capsys):
    # A publish whose wall is mostly an *instrumentation gap*: a second
    # span-less record a second later stretches the wall with nothing
    # attributing it (no arrivals, so no idle-gap transit either).
    _write(tmp_path, "engine", [
        _span(10.1, TRACE_A, "aa" * 8, "publish", 10.0, 0.1),
        {"event": "publish", "ts": 10.1, "trace": TRACE_A,
         "span": "aa" * 8, "ep": "alpha", "kind": "broadcast-package"},
        _span(20.0, TRACE_A, "bb" * 8, "decrypt", 19.99, 0.01),
    ])
    assert main([str(tmp_path), "--check", "--min-coverage", "0.8"]) == 1
    assert "CHECK FAILED" in capsys.readouterr().out


def test_analyze_and_profile_import_no_crypto():
    """The keyless-relay import boundary extends to the analysis tier:
    stitching span logs and merging profiles must not load key
    material's code."""
    probe = (
        "import sys; import repro.obs.analyze; import repro.obs.profile; "
        "bad = [m for m in sys.modules if any(t in m for t in ("
        "'crypto', 'gkm', 'policy', 'ocbe', 'publisher', 'subscriber', "
        "'documents'))]; "
        "sys.exit('leaked: %s' % bad if bad else 0)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
