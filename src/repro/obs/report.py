"""``python -m repro.obs.report``: validate, summarize and export spans.

Reads every ``obs.jsonl`` under the given files/directories and renders
the cross-process picture the per-entity writers cannot see alone: how
many spans each entity logged, which traces crossed which processes,
and how long each trace took end to end (first to last span timestamp,
as observed by the participating hosts' clocks).

Three modes compose:

* default -- print the text summary (entity/event table + trace table,
  plus interpolated p50/p95/p99 latencies for every histogram found in
  embedded ``metrics`` snapshot records);
* ``--check`` -- CI gate: exit non-zero when any line is malformed or
  no span was found at all (instrumentation that silently writes
  nothing must fail the gate, not pass it);
* ``--top N`` -- delegate to :mod:`repro.obs.analyze` and print the N
  slowest fully-stitched traces with their per-hop breakdown, for
  eyeballing outliers after a soak run.

Validation is structural: every line must be a JSON object carrying a
numeric ``ts``, string ``entity``/``event`` and a ``trace`` that is
either empty or exactly 32 hex digits.  JSON cannot carry bytes, and
:class:`repro.obs.trace.SpanWriter` refuses them at write time, so a
well-formed stream is payload-free by construction.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, Iterable, List, Tuple

__all__ = ["Malformed", "load_spans", "main", "summarize"]

#: Hex digits in a full trace id (16 bytes on the wire).
_TRACE_HEX_LEN = 32


class Malformed:
    """One rejected line: where it was and why."""

    __slots__ = ("path", "lineno", "reason")

    def __init__(self, path: str, lineno: int, reason: str):
        self.path = path
        self.lineno = lineno
        self.reason = reason

    def __str__(self) -> str:
        return "%s:%d: %s" % (self.path, self.lineno, self.reason)


def _validate(record: object) -> str:
    """Why ``record`` is not a span, or ``""`` when it is one."""
    if not isinstance(record, dict):
        return "not a JSON object"
    ts = record.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        return "missing/non-numeric 'ts'"
    for key in ("entity", "event"):
        if not isinstance(record.get(key), str) or not record[key]:
            return "missing/empty %r" % key
    trace = record.get("trace")
    if not isinstance(trace, str):
        return "missing 'trace'"
    if trace:
        if len(trace) != _TRACE_HEX_LEN:
            return "trace is %d hex digits, expected %d" % (
                len(trace), _TRACE_HEX_LEN
            )
        try:
            bytes.fromhex(trace)
        except ValueError:
            return "trace is not hex"
    return ""


def load_spans(path: str) -> Tuple[List[dict], List[Malformed]]:
    """Parse one ``obs.jsonl``; returns ``(spans, malformed lines)``."""
    spans: List[dict] = []
    bad: List[Malformed] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                bad.append(Malformed(path, lineno, "bad JSON: %s" % exc))
                continue
            reason = _validate(record)
            if reason:
                bad.append(Malformed(path, lineno, reason))
            else:
                spans.append(record)
    return spans, bad


def discover(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into the ``obs.jsonl`` files beneath them."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                for name in sorted(files):
                    if name == "obs.jsonl":
                        found.append(os.path.join(root, name))
        elif os.path.exists(path):
            found.append(path)
    return sorted(set(found))


def summarize(spans: List[dict]) -> dict:
    """Aggregate spans into the summary the text output renders."""
    by_entity_event: Dict[Tuple[str, str], int] = {}
    traces: Dict[str, List[dict]] = {}
    for span in spans:
        key = (span["entity"], span["event"])
        by_entity_event[key] = by_entity_event.get(key, 0) + 1
        if span["trace"]:
            traces.setdefault(span["trace"], []).append(span)
    trace_rows = []
    for trace_id in sorted(traces):
        group = traces[trace_id]
        entities = sorted({s["entity"] for s in group})
        stamps = [s["ts"] for s in group]
        trace_rows.append({
            "trace": trace_id,
            "spans": len(group),
            "entities": entities,
            "duration": max(stamps) - min(stamps),
        })
    return {
        "spans": len(spans),
        "by_entity_event": by_entity_event,
        "traces": trace_rows,
        "cross_process_traces": sum(
            1 for row in trace_rows if len(row["entities"]) >= 2
        ),
    }


def _print_summary(files: List[str], summary: dict) -> None:
    # Lazy import keeps ``repro.obs`` itself a strict leaf package.
    from repro.bench.runner import format_table

    print("%d span file(s), %d span(s), %d trace(s) (%d cross-process)" % (
        len(files),
        summary["spans"],
        len(summary["traces"]),
        summary["cross_process_traces"],
    ))
    event_rows = [
        [entity, event, count]
        for (entity, event), count in sorted(summary["by_entity_event"].items())
    ]
    if event_rows:
        print(format_table("spans by entity/event",
                           ["entity", "event", "count"], event_rows))
    trace_rows = [
        [row["trace"][:12], row["spans"], len(row["entities"]),
         ",".join(row["entities"]), row["duration"] * 1e3]
        for row in summary["traces"]
    ]
    if trace_rows:
        print(format_table(
            "traces (duration = last span - first span)",
            ["trace", "spans", "procs", "entities", "ms"], trace_rows,
        ))


def _histogram_rows(spans: List[dict]) -> List[list]:
    """p50/p95/p99 rows from the *last* ``metrics`` snapshot per entity.

    Entities periodically embed registry snapshots into their span
    stream; the last one per entity is cumulative, so its histograms
    carry the whole run.  Estimation interpolates inside the fixed
    bucket edges -- latencies, not raw bucket counts.
    """
    from repro.obs.metrics import estimate_quantiles

    latest: Dict[str, dict] = {}
    for span in spans:
        if span.get("event") == "metrics" and isinstance(
            span.get("snapshot"), dict
        ):
            latest[span["entity"]] = span["snapshot"]
    rows: List[list] = []
    for entity in sorted(latest):
        histograms = latest[entity].get("histograms")
        if not isinstance(histograms, dict):
            continue
        for name in sorted(histograms):
            histogram = histograms[name]
            if not isinstance(histogram, dict) or not histogram.get("count"):
                continue
            quantiles = estimate_quantiles(histogram)
            rows.append([
                entity, name, histogram.get("count", 0),
                quantiles[0.5] * 1e3, quantiles[0.95] * 1e3,
                quantiles[0.99] * 1e3,
            ])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Validate and summarize obs.jsonl span streams.",
    )
    parser.add_argument("paths", nargs="*", default=["."],
                        help="obs.jsonl files or directories to scan "
                             "(default: the current directory)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on malformed lines or when no "
                             "span was found (the CI gate)")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="print the N slowest fully-stitched traces "
                             "with per-hop breakdowns")
    args = parser.parse_args(argv)

    files = discover(args.paths or ["."])
    spans: List[dict] = []
    bad: List[Malformed] = []
    for path in files:
        file_spans, file_bad = load_spans(path)
        spans.extend(file_spans)
        bad.extend(file_bad)

    summary = summarize(spans)
    _print_summary(files, summary)
    histogram_rows = _histogram_rows(spans)
    if histogram_rows:
        from repro.bench.runner import format_table

        print(format_table(
            "histogram latencies (interpolated from bucket edges)",
            ["entity", "histogram", "obs", "p50 ms", "p95 ms", "p99 ms"],
            histogram_rows,
        ))
    if args.top:
        from repro.obs.analyze import analyze_paths, format_top

        print(format_top(analyze_paths(args.paths or ["."]), args.top))
    for problem in bad:
        print("MALFORMED %s" % problem)

    if args.check:
        if bad:
            print("CHECK FAILED: %d malformed line(s)" % len(bad))
            return 1
        if not spans:
            print("CHECK FAILED: no spans found under %s" % (args.paths,))
            return 1
        print("CHECK OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
