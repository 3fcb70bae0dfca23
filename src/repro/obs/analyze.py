"""``python -m repro.obs.analyze``: stitch span logs into trace trees.

:mod:`repro.obs.report` renders the *flat* picture -- who logged what.
This module answers the operator's real question: *where does a
publish's latency go?*  It takes the per-entity ``obs.jsonl`` files
written by separate OS processes and

1. **corrects per-process clock skew.**  Each file is one clock
   domain.  Every frame crossing a link leaves a (send, receive)
   timestamp pair in two different files -- a ``publish`` point paired
   with the broker's ``broadcast``, a ``broadcast`` paired with each
   subscriber ``handle``, a unicast ``send`` paired with the matching
   ``deliver`` and ``handle``.  For a directed file pair (P, Q) the
   smallest observed ``recv - send`` difference ``d_PQ`` bounds
   ``min_transit + (theta_Q - theta_P)``; when both directions exist
   the offset is ``(d_PQ - d_QP) / 2`` (symmetric-transit assumption),
   one-way pairs fall back to ``d_PQ`` (assumes the fastest frame had
   ~zero transit, i.e. the estimate eats the minimum transit).  Offsets
   propagate over a BFS spanning tree from the reference file, and
   every corrected time is ``raw - theta``.

2. **stitches trace trees.**  Duration-carrying stage records
   (``event == "span"``) carry ``span``/``parent`` ids; hop point
   events (``handle``/``send``/``publish``) carry the hop span id.
   Within a file the tree is explicit; across files the edges are
   inferred from the hop pairing above -- span ids never travel on the
   wire.

3. **attributes the critical path.**  Per trace: end-to-end wall =
   corrected last end - first start; per stage *self time* =
   ``max(0, dur - sum(child durs))`` (the clamp makes forged parents,
   cycles and duplicate ids safe -- they degrade to
   :class:`TraceProblem` records, never a crash or a mis-attribution);
   hop transit = for broadcast traces, the corrected first-arrival gap
   plus each receiving file's *idle* time between the trace's arrivals
   (extent minus the instants covered by any span -- skew-free, since
   each file is compared only against itself); for unicast traces, the
   sum of matched per-frame send->handle gaps, capped at the trace
   wall.  Aggregation yields, per stage, count / total / share of the
   *union* wall of the traces' intervals / p50 / p95 / p99 -- the
   table ``LoadReport`` embeds per phase and CI gates on.

This module imports **no crypto**: like the rest of ``repro.obs`` it
must stay importable from a keyless relay-tier process.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.report import discover, load_spans

__all__ = [
    "Analysis",
    "TraceProblem",
    "TraceView",
    "analyze_paths",
    "attribution_table",
    "clock_offsets",
    "exact_quantile",
    "format_attribution",
    "format_top",
    "main",
]

#: Stage name under which hop transit appears in attribution tables.
TRANSIT_STAGE = "hop.transit"

#: Residual (wall not covered by any stage or transit) in the tables.
OTHER_STAGE = "other"


@dataclass(frozen=True)
class TraceProblem:
    """One typed defect found while stitching -- partial result, not a crash."""

    kind: str  #: e.g. ``"bad-span-record"``, ``"unknown-parent"``, ``"parent-cycle"``
    path: str  #: the obs.jsonl file the defect was found in
    detail: str
    trace: str = ""

    def __str__(self) -> str:
        where = "%s [%s]" % (self.path, self.trace[:12]) if self.trace else self.path
        return "%s: %s: %s" % (self.kind, where, self.detail)


@dataclass
class TraceView:
    """One stitched trace: corrected extent, per-stage self time, transit."""

    trace: str
    kind: str  #: ``"publish"`` (broadcast-rooted) or ``"unicast"``
    start: float  #: corrected first instant
    end: float  #: corrected last instant
    files: Tuple[str, ...]
    stage_self: Dict[str, float] = field(default_factory=dict)
    stage_counts: Dict[str, int] = field(default_factory=dict)
    transit_s: float = 0.0
    hops: List[dict] = field(default_factory=list)
    problems: List[TraceProblem] = field(default_factory=list)
    stitched: bool = False

    @property
    def wall_s(self) -> float:
        return max(0.0, self.end - self.start)

    def coverage(self) -> float:
        """Fraction of the wall accounted for by named stages + transit."""
        wall = self.wall_s
        if wall <= 0.0:
            return 0.0
        return (sum(self.stage_self.values()) + self.transit_s) / wall


@dataclass
class Analysis:
    """Everything :func:`analyze_paths` learned from one set of span logs."""

    files: List[str]
    reference: str
    offsets: Dict[str, float]
    traces: List[TraceView]
    problems: List[TraceProblem]

    @property
    def publish_traces(self) -> List[TraceView]:
        return [t for t in self.traces if t.kind == "publish"]

    @property
    def stitched_fraction(self) -> float:
        publishes = self.publish_traces
        if not publishes:
            return 0.0
        return sum(1 for t in publishes if t.stitched) / len(publishes)

    def publish_attribution(self) -> dict:
        return attribution_table(self.publish_traces)


# -- clock skew -------------------------------------------------------------


def _span_record_problem(record: dict) -> str:
    """Why ``record`` is not a valid stage span, or ``""`` when it is."""
    span = record.get("span")
    if not isinstance(span, str) or not span:
        return "missing/empty 'span' id"
    name = record.get("stage")
    if not isinstance(name, str) or not name:
        return "missing/empty 'stage'"
    for key in ("start", "dur"):
        value = record.get(key)
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not math.isfinite(value)
        ):
            return "missing/non-finite %r" % key
    if record["dur"] < 0:
        return "negative 'dur'"
    parent = record.get("parent")
    if parent is not None and (not isinstance(parent, str) or not parent):
        return "non-string 'parent'"
    return ""


def _ts(record: dict) -> float:
    return float(record["ts"])


class _FileIndex:
    """Per-file views of the hop-relevant point events (raw timestamps)."""

    def __init__(self, path: str, records: List[dict]):
        self.path = path
        self.records = records
        self.publishes: List[dict] = []
        self.broadcasts: List[dict] = []
        self.handles: List[dict] = []
        self.sends: List[dict] = []
        self.delivers: List[dict] = []
        self.is_root = False
        for record in records:
            event = record.get("event")
            if event == "publish":
                self.publishes.append(record)
            elif event == "broadcast":
                self.broadcasts.append(record)
            elif event == "handle":
                self.handles.append(record)
            elif event == "send":
                self.sends.append(record)
            elif event == "deliver":
                self.delivers.append(record)
            elif event in ("connect", "relay_connect", "attach"):
                # Only the root broker logs connection admission events;
                # that marks its file as the origin of seq-stamped fan-out.
                self.is_root = True

    @staticmethod
    def _grouped(records: List[dict], key) -> Dict[tuple, List[float]]:
        out: Dict[tuple, List[float]] = {}
        for record in sorted(records, key=_ts):
            out.setdefault(key(record), []).append(_ts(record))
        return out


def _directed_minima(
    indexes: List[_FileIndex],
) -> Dict[Tuple[str, str], float]:
    """``d_PQ = min(recv - send)`` for every directed file pair observed."""
    minima: Dict[Tuple[str, str], float] = {}

    def feed(p: str, q: str, send_ts: float, recv_ts: float) -> None:
        if p == q:
            return
        key = (p, q)
        delta = recv_ts - send_ts
        if key not in minima or delta < minima[key]:
            minima[key] = delta

    for origin in indexes:
        if not origin.publishes:
            continue
        pub_by_trace = {r["trace"]: _ts(r) for r in origin.publishes if r["trace"]}
        for other in indexes:
            if other is origin:
                continue
            for bc in other.broadcasts:
                sent = pub_by_trace.get(bc["trace"])
                if sent is not None:
                    feed(origin.path, other.path, sent, _ts(bc))
    for upstream in indexes:
        if not upstream.broadcasts:
            continue
        for downstream in indexes:
            if downstream is upstream:
                continue
            handles_by_tk: Dict[tuple, List[float]] = {}
            for h in downstream.handles:
                if h["trace"]:
                    handles_by_tk.setdefault(
                        (h["trace"], h.get("kind")), []
                    ).append(_ts(h))
            for bc in upstream.broadcasts:
                for recv in handles_by_tk.get((bc["trace"], bc.get("kind")), []):
                    feed(upstream.path, downstream.path, _ts(bc), recv)
            if upstream.is_root and downstream.broadcasts:
                by_seq = {
                    b.get("seq"): _ts(b)
                    for b in downstream.broadcasts
                    if b.get("seq") is not None
                }
                for bc in upstream.broadcasts:
                    recv = by_seq.get(bc.get("seq"))
                    if bc.get("seq") is not None and recv is not None:
                        feed(upstream.path, downstream.path, _ts(bc), recv)
    def send_key(r):
        return (r.get("ep"), r.get("receiver"), r.get("kind"))

    def deliver_key(r):
        return (r.get("sender"), r.get("receiver"), r.get("kind"))

    def handle_key(r):
        return (r.get("sender"), r.get("ep"), r.get("kind"))

    def feed_zipped(p: str, q: str, sent_times, recv_times) -> None:
        # The nth-send-to-nth-receive pairing is only sound when both
        # sides saw every frame of the key: a member that re-attached to
        # a different relay mid-run splits its frames across relay logs,
        # and zipping one relay's partial view against the member's full
        # view pairs unrelated frames (observed as a bogus multi-second
        # clock offset).  Mismatched counts mean a partial view -- skip.
        if not sent_times or len(sent_times) != len(recv_times):
            return
        for sent, recv in zip(sent_times, recv_times):
            feed(p, q, sent, recv)

    grouped = _FileIndex._grouped
    for p in indexes:
        sends = grouped(p.sends, send_key)
        delivers_p = grouped(p.delivers, deliver_key)
        for q in indexes:
            if q is p:
                continue
            if sends:
                for key, times in grouped(q.delivers, deliver_key).items():
                    feed_zipped(p.path, q.path, sends.get(key, ()), times)
                for key, times in grouped(q.handles, handle_key).items():
                    feed_zipped(p.path, q.path, sends.get(key, ()), times)
            if delivers_p:
                for key, times in grouped(q.handles, handle_key).items():
                    feed_zipped(p.path, q.path, delivers_p.get(key, ()), times)
    return minima


def clock_offsets(
    per_file: Dict[str, List[dict]], reference: str
) -> Tuple[Dict[str, float], List[TraceProblem]]:
    """Per-file clock offsets ``theta`` (corrected time = raw - theta).

    ``reference`` anchors the frame at offset ``0.0``.  Files connected
    to the reference through hop pairs get the pairwise estimate
    described in the module docstring, propagated breadth-first; files
    with no usable pair stay at ``0.0`` and draw an ``"unsynced-file"``
    problem so the caller knows their times are uncorrected.
    """
    indexes = [_FileIndex(path, records) for path, records in per_file.items()]
    minima = _directed_minima(indexes)
    neighbors: Dict[str, set] = {path: set() for path in per_file}
    for p, q in minima:
        neighbors.setdefault(p, set()).add(q)
        neighbors.setdefault(q, set()).add(p)
    offsets: Dict[str, float] = {reference: 0.0}
    queue = [reference]
    while queue:
        here = queue.pop(0)
        for there in sorted(neighbors.get(here, ())):
            if there in offsets:
                continue
            forward = minima.get((here, there))
            backward = minima.get((there, here))
            if forward is not None and backward is not None:
                delta = (forward - backward) / 2.0
            elif forward is not None:
                delta = forward
            else:
                delta = -backward
            offsets[there] = offsets[here] + delta
            queue.append(there)
    problems: List[TraceProblem] = []
    for path in per_file:
        if path not in offsets:
            offsets[path] = 0.0
            if per_file[path]:
                problems.append(TraceProblem(
                    kind="unsynced-file", path=path,
                    detail="no hop pair connects this file to the reference; "
                           "its timestamps are used uncorrected",
                ))
    return offsets, problems


# -- stitching --------------------------------------------------------------


def _stitch_file(view: TraceView, path: str, records: List[dict]) -> None:
    """Fold one file's records for one trace into ``view`` (in place)."""
    spans: Dict[str, dict] = {}
    known_ids = set()
    for record in records:
        span_id = record.get("span")
        if isinstance(span_id, str) and span_id:
            known_ids.add(span_id)
        event = record.get("event")
        if event == "span":
            reason = _span_record_problem(record)
            if reason:
                view.problems.append(TraceProblem(
                    kind="bad-span-record", path=path,
                    detail=reason, trace=view.trace,
                ))
                continue
            if record["span"] in spans:
                view.problems.append(TraceProblem(
                    kind="duplicate-span", path=path,
                    detail="span id %s logged twice" % record["span"],
                    trace=view.trace,
                ))
                continue
            spans[record["span"]] = record
    child_dur: Dict[str, float] = {}
    for record in spans.values():
        parent = record.get("parent")
        if parent:
            child_dur[parent] = child_dur.get(parent, 0.0) + record["dur"]
            if parent not in known_ids:
                view.problems.append(TraceProblem(
                    kind="unknown-parent", path=path,
                    detail="span %s parents under unknown id %s"
                           % (record["span"], parent),
                    trace=view.trace,
                ))
    # Cycle detection: a forged parent chain must terminate the walk,
    # not hang it.  Attribution stays safe regardless (self time is
    # clamped), but the defect is surfaced as a typed problem.
    visited_ok = set()
    for span_id in spans:
        chain = []
        seen = set()
        here: Optional[str] = span_id
        while here is not None and here in spans:
            if here in visited_ok:
                break
            if here in seen:
                view.problems.append(TraceProblem(
                    kind="parent-cycle", path=path,
                    detail="parent chain of span %s revisits %s"
                           % (span_id, here),
                    trace=view.trace,
                ))
                break
            seen.add(here)
            chain.append(here)
            here = spans[here].get("parent")
        else:
            visited_ok.update(chain)
            continue
        if here in visited_ok:
            visited_ok.update(chain)
    for span_id, record in spans.items():
        self_time = max(0.0, record["dur"] - child_dur.get(span_id, 0.0))
        name = record["stage"]
        view.stage_self[name] = view.stage_self.get(name, 0.0) + self_time
        view.stage_counts[name] = view.stage_counts.get(name, 0) + 1


def _hop_row(record: dict, offset: float) -> dict:
    event = record["event"]
    detail = record.get("kind") or record.get("document") or ""
    who = record.get("ep") or record.get("entity", "")
    if event == "handle":
        detail = "%s from %s" % (detail, record.get("sender", "?"))
    elif event == "send":
        detail = "%s to %s" % (detail, record.get("receiver", "?"))
    elif event == "deliver":
        detail = "%s %s->%s" % (
            detail, record.get("sender", "?"), record.get("receiver", "?"),
        )
    elif event == "broadcast" and record.get("seq") is not None:
        detail = "%s seq=%s" % (detail, record["seq"])
    return {
        "t": _ts(record) - offset,
        "entity": who,
        "event": event,
        "detail": detail,
    }


_HOP_EVENTS = (
    "publish", "broadcast", "deliver", "send", "handle", "broadcast_received",
)


def _extent(record: dict, offset: float) -> Tuple[float, float]:
    if record.get("event") == "span" and not _span_record_problem(record):
        start = float(record["start"]) - offset
        return start, start + float(record["dur"])
    t = _ts(record) - offset
    return t, t


def _busy_intervals(records: List[dict]) -> List[List[float]]:
    """Merged ``[start, end]`` intervals covered by *any* span record in
    one file, in that file's raw clock -- the "this process was doing
    instrumented work" timeline the idle-gap transit is measured against.
    """
    spans = []
    for record in records:
        if record.get("event") != "span":
            continue
        start = record.get("start")
        dur = record.get("dur")
        if (isinstance(start, (int, float)) and isinstance(dur, (int, float))
                and math.isfinite(start) and math.isfinite(dur) and dur > 0.0):
            spans.append((float(start), float(start) + float(dur)))
    spans.sort()
    merged: List[List[float]] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _overlap(busy: List[List[float]], lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` covered by the merged ``busy`` intervals."""
    covered = 0.0
    for start, end in busy:
        if end <= lo:
            continue
        if start >= hi:
            break
        covered += min(end, hi) - max(start, lo)
    return covered


def _idle_gaps(
    by_file: Dict[str, List[dict]],
    busy_by_file: Dict[str, List[List[float]]],
) -> float:
    """Per-file arrival-wait time for one trace, in raw file clocks.

    For each file the trace touched: from its first inbound frame event
    to its last record, how long was the process running *no* span of
    *any* trace?  In a serial pump that is exactly the time this trace's
    remaining frames sat on the wire or in queues while nothing else
    was being done -- the dominant cost of a fan-out over real sockets.
    Skew never enters: each file is compared only against itself.
    """
    total = 0.0
    for path, records in by_file.items():
        lo = math.inf
        hi = -math.inf
        for record in records:
            t0, t1 = _extent(record, 0.0)
            if record.get("event") in ("handle", "broadcast", "deliver"):
                lo = min(lo, t0)
            hi = max(hi, t1)
        if lo < hi:
            total += (hi - lo) - _overlap(busy_by_file.get(path, []), lo, hi)
    return total


def _transit_publish(view: TraceView, by_file: Dict[str, List[dict]],
                     offsets: Dict[str, float]) -> float:
    origin = None
    arrivals: List[float] = []
    for path, records in by_file.items():
        theta = offsets.get(path, 0.0)
        for record in records:
            event = record.get("event")
            if event == "publish":
                t = _ts(record) - theta
                if origin is None or t < origin:
                    origin = t
            elif event in ("handle", "broadcast"):
                arrivals.append(_ts(record) - theta)
    if origin is None or not arrivals:
        return 0.0
    transit = min(arrivals) - origin
    if transit < 0.0:
        view.problems.append(TraceProblem(
            kind="negative-transit", path="", trace=view.trace,
            detail="first arrival precedes the publish by %.6fs after "
                   "skew correction; clamped to 0" % -transit,
        ))
        return 0.0
    return transit


def _transit_unicast(view: TraceView, by_file: Dict[str, List[dict]],
                     offsets: Dict[str, float]) -> float:
    sends: Dict[tuple, List[float]] = {}
    handles: Dict[tuple, List[float]] = {}
    for path, records in by_file.items():
        theta = offsets.get(path, 0.0)
        for record in records:
            event = record.get("event")
            if event == "send":
                key = (record.get("ep"), record.get("receiver"),
                       record.get("kind"))
                sends.setdefault(key, []).append(_ts(record) - theta)
            elif event == "handle":
                key = (record.get("sender"), record.get("ep"),
                       record.get("kind"))
                handles.setdefault(key, []).append(_ts(record) - theta)
    total = 0.0
    for key, sent_times in sends.items():
        recv_times = handles.get(key, [])
        for sent, recv in zip(sorted(sent_times), sorted(recv_times)):
            total += max(0.0, recv - sent)
    return total


def _stitch_traces(
    per_file: Dict[str, List[dict]], offsets: Dict[str, float]
) -> List[TraceView]:
    grouped: Dict[str, Dict[str, List[dict]]] = {}
    for path, records in per_file.items():
        for record in records:
            trace = record.get("trace")
            if trace:
                grouped.setdefault(trace, {}).setdefault(path, []).append(record)
    busy_by_file = {
        path: _busy_intervals(records) for path, records in per_file.items()
    }
    views: List[TraceView] = []
    for trace_id in sorted(grouped):
        by_file = grouped[trace_id]
        kind = "unicast"
        for records in by_file.values():
            if any(r.get("event") == "publish" for r in records):
                kind = "publish"
                break
        start = math.inf
        end = -math.inf
        for path, records in by_file.items():
            theta = offsets.get(path, 0.0)
            for record in records:
                t0, t1 = _extent(record, theta)
                start = min(start, t0)
                end = max(end, t1)
        view = TraceView(
            trace=trace_id, kind=kind, start=start, end=end,
            files=tuple(sorted(by_file)),
        )
        for path, records in by_file.items():
            _stitch_file(view, path, records)
        if kind == "publish":
            # Cross-file first-arrival gap (skew-corrected) plus per-file
            # arrival-wait gaps (raw, skew-free): the wire time to the
            # first receiver and the queue dwell of every later frame.
            view.transit_s = _transit_publish(view, by_file, offsets)
            view.transit_s += _idle_gaps(by_file, busy_by_file)
        else:
            view.transit_s = _transit_unicast(view, by_file, offsets)
        # A registration trace runs several request/ack/aux/envelope
        # chains concurrently under one id; their queue waits overlap in
        # wall time, so the summed transit is capped at the trace's wall
        # to keep attribution shares meaningful.
        view.transit_s = min(view.transit_s, view.wall_s)
        hops = []
        for path, records in by_file.items():
            theta = offsets.get(path, 0.0)
            for record in records:
                if record.get("event") in _HOP_EVENTS:
                    hops.append(_hop_row(record, theta))
        view.hops = sorted(hops, key=lambda row: row["t"])
        views.append(view)
    # "Fully stitched" is judged against the files that participate in
    # *any* publish trace (an idmgr that never sees a broadcast must not
    # make every publish look partial).
    expected = set()
    for view in views:
        if view.kind == "publish":
            expected.update(view.files)
    for view in views:
        if view.kind == "publish":
            view.stitched = bool(expected) and set(view.files) == expected
    return views


# -- aggregation ------------------------------------------------------------


def exact_quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an unsorted sample (exact, not
    bucketed -- the per-trace lists here are small)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    q = min(max(q, 0.0), 1.0)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _union_wall(traces: Sequence[TraceView]) -> float:
    """Total wall covered by the traces' ``[start, end]`` intervals,
    overlaps counted once -- concurrent traces (a rekey from every
    publisher, 64 interleaved registrations) must not inflate the
    denominator the shares are computed over."""
    intervals = sorted(
        (t.start, t.end) for t in traces if t.end > t.start
    )
    total = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def attribution_table(traces: Sequence[TraceView]) -> dict:
    """Aggregate per-stage attribution over ``traces`` (JSON-safe dict).

    ``share`` is each stage's total self time over the *union* wall of
    the traces' intervals (overlaps counted once); ``hop.transit``
    rides as a pseudo-stage -- publish traces only, where it is the
    first-arrival transit and bounded by the trace wall -- and
    ``other`` is the unattributed residual.  A share can legitimately
    exceed 100% when parallel processes burn CPU concurrently.
    """
    wall = _union_wall(traces)
    per_stage_values: Dict[str, List[float]] = {}
    per_stage_counts: Dict[str, int] = {}
    for trace in traces:
        for name, seconds in trace.stage_self.items():
            per_stage_values.setdefault(name, []).append(seconds)
            per_stage_counts[name] = (
                per_stage_counts.get(name, 0) + trace.stage_counts.get(name, 0)
            )
        if trace.kind == "publish":
            per_stage_values.setdefault(TRANSIT_STAGE, []).append(
                trace.transit_s
            )
            per_stage_counts[TRANSIT_STAGE] = (
                per_stage_counts.get(TRANSIT_STAGE, 0) + 1
            )
    stages = {}
    attributed = 0.0
    for name in sorted(per_stage_values):
        values = per_stage_values[name]
        total = sum(values)
        attributed += total
        stages[name] = {
            "count": per_stage_counts.get(name, len(values)),
            "total_s": total,
            "share": (total / wall) if wall > 0.0 else 0.0,
            "p50_s": exact_quantile(values, 0.50),
            "p95_s": exact_quantile(values, 0.95),
            "p99_s": exact_quantile(values, 0.99),
        }
    coverage = (attributed / wall) if wall > 0.0 else 0.0
    if wall > 0.0 and attributed < wall:
        stages[OTHER_STAGE] = {
            "count": len(traces),
            "total_s": wall - attributed,
            "share": 1.0 - coverage,
            "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0,
        }
    return {
        "traces": len(traces),
        "wall_s": wall,
        "coverage": coverage,
        "stages": stages,
    }


def analyze_paths(
    paths: Iterable[str], reference: Optional[str] = None
) -> Analysis:
    """Discover, validate, skew-correct and stitch every span log under
    ``paths``; ``reference`` pins the clock frame (default: the file
    with the most ``publish`` events, ties to the lexicographically
    first path)."""
    files = discover(paths)
    per_file: Dict[str, List[dict]] = {}
    problems: List[TraceProblem] = []
    for path in files:
        records, bad = load_spans(path)
        per_file[path] = records
        for defect in bad:
            problems.append(TraceProblem(
                kind="malformed-line", path=path,
                detail="line %d: %s" % (defect.lineno, defect.reason),
            ))
    if reference is None or reference not in per_file:
        if reference is not None:
            problems.append(TraceProblem(
                kind="unknown-reference", path=reference,
                detail="requested reference file was not discovered; "
                       "falling back to the default choice",
            ))
        reference = ""
        best = -1
        for path in sorted(per_file):
            publishes = sum(
                1 for r in per_file[path] if r.get("event") == "publish"
            )
            if publishes > best:
                best = publishes
                reference = path
    offsets, skew_problems = clock_offsets(per_file, reference) if per_file \
        else ({}, [])
    problems.extend(skew_problems)
    traces = _stitch_traces(per_file, offsets)
    for view in traces:
        problems.extend(view.problems)
    return Analysis(
        files=files, reference=reference, offsets=offsets,
        traces=traces, problems=problems,
    )


# -- rendering --------------------------------------------------------------


def format_attribution(table: dict, title: str = "latency attribution") -> str:
    from repro.bench.runner import format_table

    rows = []
    for name, cut in table.get("stages", {}).items():
        rows.append([
            name, cut["count"], cut["total_s"] * 1e3,
            "%5.1f%%" % (cut["share"] * 100.0),
            cut["p50_s"] * 1e3, cut["p95_s"] * 1e3, cut["p99_s"] * 1e3,
        ])
    rows.sort(key=lambda row: -float(row[2]))
    header = "%s: %d trace(s), %.1f ms wall, %.1f%% attributed" % (
        title, table.get("traces", 0), table.get("wall_s", 0.0) * 1e3,
        table.get("coverage", 0.0) * 100.0,
    )
    if not rows:
        return header + " (no stages)"
    return header + "\n" + format_table(
        "per-stage", ["stage", "n", "total ms", "share", "p50 ms",
                      "p95 ms", "p99 ms"], rows,
    )


def format_top(analysis: Analysis, count: int) -> str:
    """The ``count`` slowest fully-stitched publish traces, one per-hop
    breakdown each -- the outlier-eyeballing view after a soak run."""
    stitched = sorted(
        (t for t in analysis.publish_traces if t.stitched),
        key=lambda t: -t.wall_s,
    )[:max(0, count)]
    if not stitched:
        return "top traces: no fully-stitched publish traces"
    lines = ["top %d slowest fully-stitched publish trace(s):" % len(stitched)]
    for view in stitched:
        lines.append(
            "  trace %s  wall %.3f ms  transit %.3f ms  coverage %.1f%%"
            % (view.trace[:16], view.wall_s * 1e3, view.transit_s * 1e3,
               view.coverage() * 100.0)
        )
        for hop in view.hops:
            lines.append("    +%8.3f ms  %-10s %-18s %s" % (
                (hop["t"] - view.start) * 1e3, hop["entity"],
                hop["event"], hop["detail"],
            ))
        for name in sorted(view.stage_self):
            lines.append("    stage %-18s %8.3f ms (n=%d)" % (
                name, view.stage_self[name] * 1e3,
                view.stage_counts.get(name, 0),
            ))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analyze",
        description="Stitch obs.jsonl span logs into trace trees and "
                    "attribute end-to-end latency per stage.",
    )
    parser.add_argument("paths", nargs="*", default=["."],
                        help="obs.jsonl files or directories to scan")
    parser.add_argument("--reference", default=None,
                        help="span file whose clock anchors skew correction")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless enough publish traces "
                             "stitched fully across all participating files")
    parser.add_argument("--min-stitched", type=float, default=0.95,
                        help="--check: minimum fully-stitched fraction of "
                             "publish traces (default 0.95)")
    parser.add_argument("--min-coverage", type=float, default=0.0,
                        help="--check: minimum attributed fraction of "
                             "publish wall (default: not gated)")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="print the N slowest fully-stitched traces "
                             "with per-hop breakdowns")
    args = parser.parse_args(argv)

    analysis = analyze_paths(args.paths or ["."], reference=args.reference)
    publishes = analysis.publish_traces
    print("%d span file(s), %d trace(s): %d publish (%d fully stitched), "
          "%d unicast" % (
              len(analysis.files), len(analysis.traces), len(publishes),
              sum(1 for t in publishes if t.stitched),
              len(analysis.traces) - len(publishes),
          ))
    for path in analysis.files:
        marker = " (reference)" if path == analysis.reference else ""
        print("  %s  offset %+0.6fs%s" % (
            path, analysis.offsets.get(path, 0.0), marker,
        ))
    table = analysis.publish_attribution()
    print(format_attribution(table, title="publish attribution"))
    unicast = [t for t in analysis.traces if t.kind == "unicast"]
    if unicast:
        print(format_attribution(
            attribution_table(unicast), title="registration attribution",
        ))
    if args.top:
        print(format_top(analysis, args.top))
    if analysis.problems:
        by_kind: Dict[str, int] = {}
        for problem in analysis.problems:
            by_kind[problem.kind] = by_kind.get(problem.kind, 0) + 1
        print("problems: " + ", ".join(
            "%s=%d" % (kind, count) for kind, count in sorted(by_kind.items())
        ))
        for problem in analysis.problems[:20]:
            print("  " + str(problem))

    if args.check:
        failed = False
        if not analysis.files:
            print("CHECK FAILED: no span files under %s" % (args.paths,))
            failed = True
        elif not publishes:
            print("CHECK FAILED: no publish traces to attribute")
            failed = True
        else:
            fraction = analysis.stitched_fraction
            if fraction < args.min_stitched:
                print("CHECK FAILED: %.1f%% of publish traces fully "
                      "stitched < required %.1f%%" % (
                          fraction * 100.0, args.min_stitched * 100.0))
                failed = True
            if args.min_coverage > 0.0 and table["coverage"] < args.min_coverage:
                print("CHECK FAILED: %.1f%% of publish wall attributed "
                      "< required %.1f%%" % (
                          table["coverage"] * 100.0,
                          args.min_coverage * 100.0))
                failed = True
        if failed:
            return 1
        print("CHECK OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
