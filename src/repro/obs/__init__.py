"""Observability: a dependency-free metrics + trace layer.

``repro.obs`` is deliberately a *leaf* package: it imports nothing from
the crypto/GKM/policy stack (the keyless-relay import boundary pinned by
``tests/net/test_relay.py`` must hold with a relay process importing
this package), and nothing outside the standard library plus
:mod:`repro.errors`.  Everything above it -- store, gkm, system, net,
load -- may import it; never the other way around.

* :mod:`repro.obs.metrics` -- counters, gauges, bounded histograms with
  fixed bucket edges, and the thread-safe per-process
  :class:`~repro.obs.metrics.MetricsRegistry` whose snapshots are
  deterministic and JSON-round-trippable (the unit every
  ``StatsReply.metrics`` field and subtree aggregation works in).
* :mod:`repro.obs.trace` -- compact 16-byte trace ids propagated on
  wire frames, the per-thread/per-task trace context, and the
  :class:`~repro.obs.trace.SpanWriter` appending per-hop span records
  to an entity's ``obs.jsonl`` (routing-level facts only; the writer
  refuses bytes-typed fields so payloads and key material cannot leak
  into telemetry by construction).
* :mod:`repro.obs.report` -- ``python -m repro.obs.report``: validate
  (``--check``) and summarize collected ``obs.jsonl`` streams.
* :mod:`repro.obs.analyze` -- ``python -m repro.obs.analyze``: stitch
  the per-process span logs into causal trace trees, correct clock
  skew from hop timestamp pairs, and attribute end-to-end latency to
  named stages (the critical-path table CI gates on).
* :mod:`repro.obs.profile` -- opt-in :mod:`cProfile` windows keyed to
  span stage names (function names only, never argument values) and
  the ``python -m repro.obs.profile`` merger.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_EDGES,
    MetricsRegistry,
    estimate_quantiles,
    get_registry,
    merge_snapshots,
    snapshot_from_json,
    snapshot_to_json,
)
from repro.obs.trace import (
    SPAN_ID_LEN,
    TRACE_LEN,
    ZERO_TRACE,
    SpanWriter,
    current_span,
    current_trace,
    get_span_writer,
    new_span_id,
    new_trace_id,
    set_span_writer,
    set_trace,
    spanning,
    stage,
    trace_hex,
    tracing,
)

__all__ = [
    "DEFAULT_LATENCY_EDGES",
    "MetricsRegistry",
    "SPAN_ID_LEN",
    "SpanWriter",
    "TRACE_LEN",
    "ZERO_TRACE",
    "current_span",
    "current_trace",
    "estimate_quantiles",
    "get_registry",
    "get_span_writer",
    "merge_snapshots",
    "new_span_id",
    "new_trace_id",
    "set_span_writer",
    "set_trace",
    "snapshot_from_json",
    "snapshot_to_json",
    "spanning",
    "stage",
    "trace_hex",
    "tracing",
]
