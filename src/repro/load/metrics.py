"""Per-phase metrics and the machine-readable load report.

The engine marks the broker accounting before each phase and hands the
delta (plus wall time and membership counters) to a
:class:`MetricsCollector`; :class:`LoadReport` renders the collected
phases as the usual fixed-width table and, through
:meth:`LoadReport.to_payload`, as the JSON document
``python -m repro.load --report PATH`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.runner import format_table
from repro.obs.metrics import estimate_quantiles
from repro.system.transport import BROADCAST, Message

__all__ = ["LoadReport", "MetricsCollector", "PhaseMetrics"]


@dataclass(frozen=True)
class PhaseMetrics:
    """Everything one phase did, as numbers."""

    label: str
    kind: str
    wall_s: float
    frames: int
    bytes_total: int
    bytes_by_kind: Dict[str, int]
    broadcasts: int
    publisher_unicast_frames: int
    rekeys: int
    members_alive: int
    members_revoked: int
    #: Wall time inside ``service.publish`` for the phase's closing rekey
    #: window: the publisher-side ACV build + encryption cost, isolated
    #: from settling/delivery.  This is the dense-vs-bucketed number.
    rekey_publish_s: float = 0.0
    #: Point-in-time :mod:`repro.obs` snapshots taken at the end of the
    #: phase, keyed by vantage point (``local`` = this process's
    #: registry; ``root`` = the broker's root-aggregated subtree;
    #: ``relay:<name>`` = one relay's local view).  ``None`` when the
    #: engine ran without obs sampling -- the JSON round trip simply
    #: omits the key then.
    obs: Optional[Dict[str, dict]] = None
    #: ``(wall-clock start, end)`` of the phase in the engine's clock
    #: frame -- the bucket the post-run trace attribution assigns traces
    #: into.  ``None`` when the engine did not record one.
    window: Optional[Tuple[float, float]] = None
    #: Per-stage latency attribution for the traces whose corrected
    #: start fell inside this phase's window (the
    #: :func:`repro.obs.analyze.attribution_table` payload); ``None``
    #: when the run had no ``obs_dir``.
    attribution: Optional[dict] = None

    def to_payload(self) -> dict:
        payload = {
            "label": self.label,
            "kind": self.kind,
            "wall_s": self.wall_s,
            "rekey_publish_s": self.rekey_publish_s,
            "frames": self.frames,
            "bytes_total": self.bytes_total,
            "bytes_by_kind": dict(sorted(self.bytes_by_kind.items())),
            "broadcasts": self.broadcasts,
            "publisher_unicast_frames": self.publisher_unicast_frames,
            "rekeys": self.rekeys,
            "members_alive": self.members_alive,
            "members_revoked": self.members_revoked,
        }
        if self.obs is not None:
            payload["obs"] = self.obs
        if self.window is not None:
            payload["window"] = list(self.window)
        if self.attribution is not None:
            payload["attribution"] = self.attribution
        return payload


class MetricsCollector:
    """Aggregates phase windows of the transport's accounting log."""

    def __init__(self) -> None:
        self.phases: List[PhaseMetrics] = []

    def record(
        self,
        label: str,
        kind: str,
        wall_s: float,
        records: Sequence[Message],
        publisher_names: Sequence[str],
        rekeys: int,
        members_alive: int,
        members_revoked: int,
        rekey_publish_s: float = 0.0,
        obs: Optional[Dict[str, dict]] = None,
        window: Optional[Tuple[float, float]] = None,
    ) -> PhaseMetrics:
        """Fold one phase's accounting window into a :class:`PhaseMetrics`."""
        bytes_by_kind: Dict[str, int] = {}
        broadcasts = 0
        unicast = 0
        for record in records:
            bytes_by_kind[record.kind] = (
                bytes_by_kind.get(record.kind, 0) + record.size
            )
            if record.sender in publisher_names:
                if record.receiver == BROADCAST:
                    broadcasts += 1
                else:
                    unicast += 1
        metrics = PhaseMetrics(
            label=label,
            kind=kind,
            wall_s=wall_s,
            frames=len(records),
            bytes_total=sum(record.size for record in records),
            bytes_by_kind=bytes_by_kind,
            broadcasts=broadcasts,
            publisher_unicast_frames=unicast,
            rekeys=rekeys,
            members_alive=members_alive,
            members_revoked=members_revoked,
            rekey_publish_s=rekey_publish_s,
            obs=obs,
            window=window,
        )
        self.phases.append(metrics)
        return metrics


@dataclass
class LoadReport:
    """The outcome of one scenario run, ready to print or emit."""

    scenario: str
    driver: str
    phases: List[PhaseMetrics] = field(default_factory=list)
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(phase.wall_s for phase in self.phases)

    @property
    def rekey_publish_s(self) -> float:
        """Total publisher-side rekey (publish-call) wall time."""
        return sum(phase.rekey_publish_s for phase in self.phases)

    def bytes_by_kind(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for phase in self.phases:
            for kind, size in phase.bytes_by_kind.items():
                totals[kind] = totals.get(kind, 0) + size
        return totals

    def format(self) -> str:
        rows = [
            [
                phase.label,
                phase.kind,
                phase.wall_s * 1e3,
                phase.rekey_publish_s * 1e3,
                phase.frames,
                phase.bytes_total,
                phase.broadcasts,
                phase.rekeys,
                phase.members_alive,
                phase.members_revoked,
            ]
            for phase in self.phases
        ]
        return format_table(
            "load scenario %r over the %s driver (%.0f ms total)"
            % (self.scenario, self.driver, self.wall_s * 1e3),
            ["phase", "kind", "ms", "rekey ms", "frames", "bytes", "bcasts",
             "rekeys", "alive", "revoked"],
            rows,
        )

    def format_obs(self) -> str:
        """The per-phase :mod:`repro.obs` metrics table, or ``""``.

        One row per (phase, vantage point, metric): counters and gauges
        verbatim, histograms as mean + interpolated p50/p95/p99
        latencies (:func:`repro.obs.metrics.estimate_quantiles` over the
        fixed bucket edges -- latencies, not raw bucket counts).  Values
        are cumulative per vantage (each phase samples the same live
        registries), so reading down a column shows the series growing
        phase over phase.
        """
        rows = []
        for phase in self.phases:
            for vantage, snapshot in sorted((phase.obs or {}).items()):
                for name, value in snapshot.get("counters", {}).items():
                    rows.append([phase.label, vantage, name, int(value)])
                for name, value in snapshot.get("gauges", {}).items():
                    rows.append([phase.label, vantage, name, value])
                for name, hist in snapshot.get("histograms", {}).items():
                    count = hist.get("count", 0)
                    mean_ms = (hist.get("sum", 0.0) / count * 1e3) if count else 0.0
                    quantiles = estimate_quantiles(hist)
                    rows.append([
                        phase.label, vantage, name,
                        "%d obs, mean %.3f, p50 %.3f, p95 %.3f, "
                        "p99 %.3f ms" % (
                            count, mean_ms, quantiles[0.5] * 1e3,
                            quantiles[0.95] * 1e3, quantiles[0.99] * 1e3,
                        ),
                    ])
        if not rows:
            return ""
        return format_table(
            "obs metrics per phase (cumulative per vantage)",
            ["phase", "vantage", "metric", "value"],
            rows,
        )

    def format_attribution(self) -> str:
        """The per-phase latency attribution tables, or ``""`` when the
        run carried no ``obs_dir`` (no spans means nothing to stitch)."""
        rows = []
        for phase in self.phases:
            table = phase.attribution
            if not table or not table.get("stages"):
                continue
            stages = sorted(
                table["stages"].items(),
                key=lambda item: -item[1]["total_s"],
            )
            for name, cut in stages:
                rows.append([
                    phase.label, name, cut["count"],
                    cut["total_s"] * 1e3,
                    "%5.1f%%" % (cut["share"] * 100.0),
                    cut["p50_s"] * 1e3, cut["p95_s"] * 1e3,
                    cut["p99_s"] * 1e3,
                ])
        if not rows:
            return ""
        return format_table(
            "latency attribution per phase (share of union trace wall)",
            ["phase", "stage", "n", "total ms", "share", "p50 ms",
             "p95 ms", "p99 ms"],
            rows,
        )

    def to_payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "driver": self.driver,
            "params": dict(self.params),
            "wall_s": self.wall_s,
            "phases": [phase.to_payload() for phase in self.phases],
        }
