"""Counters, gauges, bounded histograms, and the per-process registry.

Design constraints (see DESIGN.md "Observability"):

* **Dependency-free.**  Standard library + :mod:`repro.errors` only --
  a relay process imports this, and the keyless import boundary must
  hold.
* **Deterministic snapshots.**  Histograms use *fixed* bucket edges
  chosen at creation, so two runs that observe the same values produce
  byte-identical snapshot JSON; snapshots round-trip through JSON
  exactly (``snapshot_from_json(snapshot_to_json(s)) == s``).
* **Thread-safe.**  :class:`TcpTransport` mixes a background asyncio
  thread with arbitrary caller threads; every mutation takes the
  registry lock, and a snapshot is a consistent point-in-time copy.
* **Hostile-input safe.**  Snapshots cross process boundaries inside
  ``StatsReply`` frames; :func:`snapshot_from_json` validates shape,
  sizes and types before anything enters an aggregate, raising
  :class:`~repro.errors.SerializationError` -- never ``KeyError`` or
  ``MemoryError`` -- on garbage.

Instrumentation in the hot paths goes through the *process-global*
registry (:func:`get_registry`) so the store/gkm/system layers need no
constructor plumbing; servers that coexist in one test process (broker
thread + relay threads) hold their own :class:`MetricsRegistry`
instances instead.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import SerializationError

__all__ = [
    "DEFAULT_LATENCY_EDGES",
    "MAX_SNAPSHOT_BYTES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "estimate_quantiles",
    "get_registry",
    "merge_snapshots",
    "snapshot_from_json",
    "snapshot_to_json",
]

#: Default histogram edges, in seconds: 100 us .. 10 s, the span between
#: one dict update and one churn phase.  Observations above the last
#: edge land in the overflow bucket (``counts`` has ``len(edges) + 1``
#: entries).
DEFAULT_LATENCY_EDGES: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Decode-side caps for snapshots received off the wire.
MAX_SNAPSHOT_BYTES = 1 << 20
_MAX_METRICS_PER_SECTION = 1024
_MAX_METRIC_NAME = 120
_MAX_HISTOGRAM_EDGES = 64

_SECTIONS = ("counters", "gauges", "histograms")


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += int(amount)


class Gauge:
    """A point-in-time number (queue depth, live connections)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += float(delta)


class Histogram:
    """A bounded histogram over fixed, creation-time bucket edges.

    ``counts[i]`` counts observations ``<= edges[i]``; the final slot is
    the overflow bucket.  Fixed edges (never rescaled) are what make
    snapshots deterministic and mergeable across processes.
    """

    __slots__ = ("_lock", "edges", "counts", "count", "sum", "min", "max")

    def __init__(self, lock: threading.Lock, edges: Sequence[float]):
        if not edges or len(edges) > _MAX_HISTOGRAM_EDGES:
            raise SerializationError(
                "histogram needs 1..%d edges, got %d"
                % (_MAX_HISTOGRAM_EDGES, len(edges))
            )
        ordered = tuple(float(e) for e in edges)
        if list(ordered) != sorted(set(ordered)):
            raise SerializationError("histogram edges must strictly increase")
        self._lock = lock
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            slot = len(self.edges)
            for index, edge in enumerate(self.edges):
                if value <= edge:
                    slot = index
                    break
            self.counts[slot] += 1
            if self.count == 0:
                self.min = self.max = value
            else:
                self.min = min(self.min, value)
                self.max = max(self.max, value)
            self.count += 1
            self.sum += value

    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create instruments by name; snapshot them consistently.

    One lock guards both the name tables and every instrument, so a
    snapshot taken while the asyncio thread and caller threads are
    mid-increment is still a coherent point-in-time view.
    """

    def __init__(self, enabled: bool = True):
        self._lock = threading.Lock()
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access -------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(self._lock)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(self._lock)
            return instrument

    def histogram(
        self, name: str, edges: Sequence[float] = DEFAULT_LATENCY_EDGES
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    self._lock, edges
                )
            return instrument

    # -- convenience mutators (no-ops while disabled) ----------------------

    def inc(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.gauge(name).set(value)

    def observe(
        self,
        name: str,
        value: float,
        edges: Sequence[float] = DEFAULT_LATENCY_EDGES,
    ) -> None:
        if self.enabled:
            self.histogram(name, edges).observe(value)

    @contextmanager
    def timer(self, name: str, edges: Sequence[float] = DEFAULT_LATENCY_EDGES):
        """Time a block into a histogram (zero-cost while disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start, edges)

    # -- lifecycle ---------------------------------------------------------

    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def reset(self) -> None:
        """Drop every instrument (test isolation between scenarios)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A consistent, plain-data, JSON-round-trippable copy."""
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.value for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "edges": list(h.edges),
                        "counts": list(h.counts),
                        "count": h.count,
                        "sum": h.sum,
                        "min": h.min,
                        "max": h.max,
                    }
                    for name, h in sorted(self._histograms.items())
                },
            }


#: The per-process registry the library-level instrumentation writes to.
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry (one per entity process)."""
    return _GLOBAL


# -- snapshot plumbing ------------------------------------------------------


def snapshot_to_json(snapshot: dict) -> bytes:
    """Canonical JSON bytes (sorted keys -> deterministic)."""
    return json.dumps(
        snapshot, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _require_section(snapshot: dict, section: str) -> dict:
    table = snapshot.get(section, {})
    if not isinstance(table, dict) or len(table) > _MAX_METRICS_PER_SECTION:
        raise SerializationError("malformed metrics section %r" % section)
    for name in table:
        if not isinstance(name, str) or not name or len(name) > _MAX_METRIC_NAME:
            raise SerializationError("bad metric name %r" % (name,))
    return table


def _require_number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SerializationError("metric %s must be a number" % label)
    return value


def snapshot_from_json(raw: bytes, max_bytes: int = MAX_SNAPSHOT_BYTES) -> dict:
    """Parse + validate an off-the-wire snapshot; hostile input refused."""
    if len(raw) > max_bytes:
        raise SerializationError(
            "metrics snapshot of %d bytes exceeds the %d-byte cap"
            % (len(raw), max_bytes)
        )
    try:
        snapshot = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SerializationError("undecodable metrics snapshot") from exc
    if not isinstance(snapshot, dict):
        raise SerializationError("metrics snapshot must be an object")
    out: dict = {}
    for section in _SECTIONS:
        table = _require_section(snapshot, section)
        if section == "histograms":
            cleaned = {}
            for name, hist in table.items():
                if not isinstance(hist, dict):
                    raise SerializationError("histogram %r must be an object" % name)
                edges = hist.get("edges")
                counts = hist.get("counts")
                if (
                    not isinstance(edges, list)
                    or not isinstance(counts, list)
                    or not 1 <= len(edges) <= _MAX_HISTOGRAM_EDGES
                    or len(counts) != len(edges) + 1
                ):
                    raise SerializationError("histogram %r malformed" % name)
                cleaned[name] = {
                    "edges": [_require_number(e, name) for e in edges],
                    "counts": [int(_require_number(c, name)) for c in counts],
                    "count": int(_require_number(hist.get("count", 0), name)),
                    "sum": _require_number(hist.get("sum", 0.0), name),
                    "min": _require_number(hist.get("min", 0.0), name),
                    "max": _require_number(hist.get("max", 0.0), name),
                }
            out[section] = cleaned
        else:
            out[section] = {
                name: _require_number(value, name)
                for name, value in table.items()
            }
    return out


#: The quantiles the latency tables render.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def estimate_quantiles(
    histogram: dict, quantiles: Sequence[float] = DEFAULT_QUANTILES
) -> Dict[float, float]:
    """Interpolate quantiles from a fixed-edge histogram snapshot.

    Works on the snapshot/merge dict form (``edges``/``counts``/
    ``count``/``min``/``max``).  Within the bucket holding the target
    rank the value is linearly interpolated between the bucket bounds
    (the tracked ``min`` bounds the first bucket, the tracked ``max``
    the overflow bucket), then clamped into ``[min, max]`` -- so a
    single-observation histogram reports that observation exactly, and
    no estimate can escape the observed range.  Returns ``{q: 0.0}``
    for empty or malformed histograms rather than raising: callers are
    rendering tables, and a skewed snapshot should produce a zero row,
    not a crash.
    """
    try:
        count = int(histogram.get("count", 0))
        edges = [float(e) for e in histogram.get("edges", [])]
        counts = [int(c) for c in histogram.get("counts", [])]
        seen_min = float(histogram.get("min", 0.0))
        seen_max = float(histogram.get("max", 0.0))
    except (TypeError, ValueError, AttributeError):
        return {q: 0.0 for q in quantiles}
    if count <= 0 or not edges or len(counts) != len(edges) + 1:
        return {q: 0.0 for q in quantiles}
    if any(c < 0 for c in counts):
        return {q: 0.0 for q in quantiles}
    out: Dict[float, float] = {}
    for q in quantiles:
        q = min(max(float(q), 0.0), 1.0)
        rank = q * count
        cumulative = 0
        value = seen_max
        for index, bucket in enumerate(counts):
            before = cumulative
            cumulative += bucket
            if bucket and cumulative >= rank:
                lower = seen_min if index == 0 else edges[index - 1]
                upper = edges[index] if index < len(edges) else seen_max
                if upper < lower:
                    upper = lower
                fraction = (rank - before) / bucket
                value = lower + (upper - lower) * fraction
                break
        out[q] = min(max(value, seen_min), seen_max)
    return out


def merge_snapshots(snapshots: Iterable[Optional[dict]]) -> dict:
    """Sum snapshots into one subtree aggregate.

    Counters, gauges and histogram bucket counts add; histogram min/max
    take the extremes.  Gauges *sum* deliberately: across a subtree,
    "entities attached" or "inbox depth" aggregate additively.
    Histograms with mismatched edges keep the first set seen and fold
    the other's totals into ``count``/``sum`` only (a version-skewed
    child must not corrupt the parent's buckets).
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0) + value
        for name, hist in snapshot.get("histograms", {}).items():
            into = histograms.get(name)
            if into is None:
                histograms[name] = {
                    "edges": list(hist["edges"]),
                    "counts": list(hist["counts"]),
                    "count": hist["count"],
                    "sum": hist["sum"],
                    "min": hist["min"],
                    "max": hist["max"],
                }
                continue
            if into["edges"] == list(hist["edges"]):
                into["counts"] = [
                    a + b for a, b in zip(into["counts"], hist["counts"])
                ]
            if hist["count"]:
                if into["count"]:
                    into["min"] = min(into["min"], hist["min"])
                    into["max"] = max(into["max"], hist["max"])
                else:
                    into["min"], into["max"] = hist["min"], hist["max"]
            into["count"] += hist["count"]
            into["sum"] += hist["sum"]
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }
