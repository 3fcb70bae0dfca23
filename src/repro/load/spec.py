"""Declarative load/churn scenario specifications.

A :class:`LoadScenario` describes a whole population experiment without
any live objects: which publishers exist (each with its own attribute
mix, policies and broadcast documents), and a script of *phases* --
arrival waves, revoke storms, flapping subscribers that kill-and-recover
from their durable state, pure broadcast fan-out.  The spec is plain
data with an exact JSON round trip, so the same scenario file drives the
in-process driver, the TCP driver and the ``python -m repro.load`` CLI.

Churn rates are expressed as phases: a "5%/min departure rate at N=500
over 10 minutes" is ten ``revoke`` phases of 25 -- the helper
:func:`churn_phases` expands exactly that arithmetic so scenario authors
write rates and the engine still sees discrete, checkable steps (every
phase ends in a rekey whose invariants are asserted).

Multi-publisher scenarios must keep their attribute universes disjoint:
condition keys are strings shared across a subscriber's publishers, so
two publishers announcing the same condition would alias each other's
registrations.  :meth:`LoadScenario.validate` enforces this.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from repro.documents.model import Document
from repro.errors import InvalidParameterError
from repro.gkm.acv import FAST_FIELD, PAPER_FIELD
from repro.gkm.strategy import GKM_STRATEGIES
from repro.mathx.field import PrimeField
from repro.policy.acp import AccessControlPolicy, parse_policy

__all__ = [
    "AttributeSpec",
    "DocumentSpec",
    "GKM_FIELDS",
    "LoadScenario",
    "PHASE_KINDS",
    "PhaseSpec",
    "PolicySpec",
    "PublisherSpec",
    "RelaySpec",
    "churn_phases",
    "load_scenario_file",
    "save_scenario_file",
]

#: The GKM fields a scenario may name (mirrors ``repro.net.bootstrap``).
GKM_FIELDS: Dict[str, PrimeField] = {"fast": FAST_FIELD, "paper": PAPER_FIELD}

#: What a phase can do to the population.  Every kind ends in a rekey
#: broadcast whose invariants the engine asserts.
PHASE_KINDS = ("join", "revoke", "flap", "broadcast")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")


def _require_name(label: str, value: str) -> str:
    if not isinstance(value, str) or not _NAME_RE.match(value):
        raise InvalidParameterError(
            "%s %r must match %s" % (label, value, _NAME_RE.pattern)
        )
    return value


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute of a publisher's mix: integer values drawn uniformly
    from the inclusive ``[low, high]`` range per joining subscriber."""

    name: str
    low: int
    high: int

    def validate(self, attribute_bits: int) -> None:
        _require_name("attribute name", self.name)
        if self.low > self.high:
            raise InvalidParameterError(
                "attribute %r has an empty range (%d, %d)"
                % (self.name, self.low, self.high)
            )
        if self.low < 0 or self.high >= (1 << attribute_bits):
            raise InvalidParameterError(
                "attribute %r range (%d, %d) exceeds %d-bit encoding"
                % (self.name, self.low, self.high, attribute_bits)
            )


@dataclass(frozen=True)
class PolicySpec:
    """One access control policy: a condition string protecting segments
    of one of the publisher's documents."""

    condition: str
    segments: Tuple[str, ...]
    document: str

    def parse(self) -> AccessControlPolicy:
        return parse_policy(self.condition, list(self.segments), self.document)


@dataclass(frozen=True)
class DocumentSpec:
    """One broadcast document: named text segments."""

    name: str
    segments: Tuple[Tuple[str, str], ...]

    def build(self) -> Document:
        return Document.of(
            self.name,
            {seg: text.encode("utf-8") for seg, text in self.segments},
        )

    def segment_names(self) -> Tuple[str, ...]:
        return tuple(seg for seg, _ in self.segments)


@dataclass(frozen=True)
class PublisherSpec:
    """One publisher: attribute mix, policies, broadcast documents."""

    name: str
    attributes: Tuple[AttributeSpec, ...]
    policies: Tuple[PolicySpec, ...]
    documents: Tuple[DocumentSpec, ...]

    def mix(self) -> Dict[str, Tuple[int, int]]:
        """The attribute mix in :func:`repro.workloads.generator.
        draw_attribute_values` form."""
        return {a.name: (a.low, a.high) for a in self.attributes}

    def parsed_policies(self) -> List[AccessControlPolicy]:
        return [p.parse() for p in self.policies]

    def conditions_per_attribute(self) -> Dict[str, int]:
        """Distinct condition keys naming each attribute -- what one
        subscriber is expected to register per held token."""
        conditions: Dict[str, str] = {}
        for policy in self.parsed_policies():
            for condition in policy.conditions:
                conditions[condition.key()] = condition.name
        counts: Dict[str, int] = {}
        for name in conditions.values():
            counts[name] = counts.get(name, 0) + 1
        return counts

    def validate(self, attribute_bits: int) -> None:
        _require_name("publisher name", self.name)
        if not self.attributes or not self.policies or not self.documents:
            raise InvalidParameterError(
                "publisher %r needs at least one attribute, policy and "
                "document" % self.name
            )
        for attribute in self.attributes:
            attribute.validate(attribute_bits)
        declared = {a.name for a in self.attributes}
        if len(declared) != len(self.attributes):
            raise InvalidParameterError(
                "publisher %r declares duplicate attributes" % self.name
            )
        documents = {d.name: d for d in self.documents}
        if len(documents) != len(self.documents):
            raise InvalidParameterError(
                "publisher %r declares duplicate documents" % self.name
            )
        for document in self.documents:
            names = document.segment_names()
            if len(set(names)) != len(names):
                raise InvalidParameterError(
                    "document %r declares duplicate segments" % document.name
                )
        for spec in self.policies:
            policy = spec.parse()  # raises PolicyParseError on bad syntax
            for condition in policy.conditions:
                if condition.name not in declared:
                    raise InvalidParameterError(
                        "policy %r references attribute %r outside the "
                        "mix of publisher %r"
                        % (spec.condition, condition.name, self.name)
                    )
            if spec.document not in documents:
                raise InvalidParameterError(
                    "policy %r protects unknown document %r"
                    % (spec.condition, spec.document)
                )
            known = set(documents[spec.document].segment_names())
            for segment in spec.segments:
                if segment not in known:
                    raise InvalidParameterError(
                        "policy %r protects unknown segment %r of %r"
                        % (spec.condition, segment, spec.document)
                    )


@dataclass(frozen=True)
class RelaySpec:
    """One node of the relay fan-out tree (:mod:`repro.net.relay`).

    ``upstream`` names an **earlier** relay in the scenario's topology
    list, or ``None`` for the root broker -- so a valid topology is a
    tree by construction, and its declaration order is a valid spawn
    order for the supervisor.
    """

    name: str
    upstream: Optional[str] = None

    def validate(self) -> None:
        _require_name("relay name", self.name)


@dataclass(frozen=True)
class PhaseSpec:
    """One step of the scenario script.

    * ``join``  -- ``count`` new subscribers arrive (round-robin across
      publishers, or all to ``publisher``), obtain tokens and register.
    * ``revoke`` -- ``count`` current members lose their subscription
      (a batch revocation; the rekey is the following broadcast).
    * ``flap``  -- ``count`` members are killed (connection + process
      state dropped), miss a rekey, then recover from their durable
      data dir without re-registering.
    * ``broadcast`` -- ``repeat`` extra broadcast rounds with no
      membership change (pure fan-out load).
    """

    kind: str
    count: int = 0
    publisher: Optional[str] = None
    repeat: int = 1

    def validate(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise InvalidParameterError(
                "phase kind %r not in %s" % (self.kind, PHASE_KINDS)
            )
        if self.kind in ("join", "revoke", "flap") and self.count < 1:
            raise InvalidParameterError(
                "%s phase needs a positive count" % self.kind
            )
        if self.repeat < 1:
            raise InvalidParameterError("phase repeat must be >= 1")


def _segments(document_payload: dict) -> Tuple[Tuple[str, str], ...]:
    """Segment pairs from a document payload, order-preserving.

    The canonical encoding is a list of ``[name, text]`` pairs; a JSON
    object (hand-written scenario) is accepted with sorted order, since
    objects carry none.
    """
    raw = document_payload["segments"]
    if isinstance(raw, dict):
        return tuple(sorted(raw.items()))
    return tuple((seg, text) for seg, text in raw)


@dataclass(frozen=True)
class LoadScenario:
    """A complete, serializable load/churn experiment."""

    name: str
    seed: int
    publishers: Tuple[PublisherSpec, ...]
    phases: Tuple[PhaseSpec, ...]
    group: str = "nist-p192"
    gkm_field: str = "fast"
    attribute_bits: int = 8
    capacity_slack: int = 0
    #: Publish-path GKM strategy for every publisher: "dense" (one ACV
    #: per configuration) or "bucketed" (Section VIII-C row-order
    #: buckets, shared key).
    gkm: str = "dense"
    #: Fixed rows-per-bucket for the bucketed strategy; 0 = the auto
    #: ceil(sqrt(m)) policy.
    gkm_bucket_size: int = 0
    #: The relay fan-out tree the run deploys (TCP driver only; empty =
    #: the classic single-broker topology).  Subscribers attach
    #: round-robin across the tree's *leaf* relays; publishers and the
    #: IdMgr stay at the root.
    topology: Tuple[RelaySpec, ...] = ()
    #: Seconds between metrics pushes/snapshots in the broker/relay tier
    #: (:mod:`repro.obs`); 0 disables the periodic push entirely (the
    #: engine still samples on demand at phase boundaries).
    metrics_interval: float = 0.0
    #: Minimum fraction of publish-trace wall that must be attributed to
    #: named stages + transit by :mod:`repro.obs.analyze` for the run to
    #: pass (engine runs with an ``obs_dir`` only); 0 disables the gate.
    min_attribution_coverage: float = 0.0
    #: Publisher-side ACV build cache (exact-hit recombine + incremental
    #: join extension).  Disabling it forces every publish to re-solve the
    #: access matrix from scratch -- the differential baseline the
    #: warm-churn scenarios compare against.
    acv_cache: bool = True

    # -- validation --------------------------------------------------------

    def validate(self) -> "LoadScenario":
        _require_name("scenario name", self.name)
        if not isinstance(self.seed, int):
            raise InvalidParameterError("seed must be an int")
        if self.gkm_field not in GKM_FIELDS:
            raise InvalidParameterError(
                "gkm_field must be one of %s" % sorted(GKM_FIELDS)
            )
        if self.attribute_bits < 1 or self.capacity_slack < 0:
            raise InvalidParameterError("invalid attribute_bits/capacity_slack")
        if self.gkm not in GKM_STRATEGIES:
            raise InvalidParameterError(
                "gkm must be one of %s" % (GKM_STRATEGIES,)
            )
        if not isinstance(self.gkm_bucket_size, int) or self.gkm_bucket_size < 0:
            raise InvalidParameterError("gkm_bucket_size must be an int >= 0")
        if (
            not isinstance(self.metrics_interval, (int, float))
            or isinstance(self.metrics_interval, bool)
            or self.metrics_interval < 0
        ):
            raise InvalidParameterError("metrics_interval must be a number >= 0")
        if (
            not isinstance(self.min_attribution_coverage, (int, float))
            or isinstance(self.min_attribution_coverage, bool)
            or not 0.0 <= self.min_attribution_coverage <= 1.0
        ):
            raise InvalidParameterError(
                "min_attribution_coverage must be a number in [0, 1]"
            )
        if not isinstance(self.acv_cache, bool):
            raise InvalidParameterError("acv_cache must be a bool")
        if not self.publishers:
            raise InvalidParameterError("scenario needs at least one publisher")
        names = [p.name for p in self.publishers]
        if len(set(names)) != len(names):
            raise InvalidParameterError("duplicate publisher names: %s" % names)
        seen_attributes: Dict[str, str] = {}
        seen_documents: Dict[str, str] = {}
        for publisher in self.publishers:
            publisher.validate(self.attribute_bits)
            for attribute in publisher.attributes:
                owner = seen_attributes.setdefault(attribute.name, publisher.name)
                if owner != publisher.name:
                    # Shared attribute names would alias condition keys in
                    # the subscribers' shared results/CSS stores.
                    raise InvalidParameterError(
                        "attribute %r appears in publishers %r and %r; "
                        "multi-publisher universes must be disjoint"
                        % (attribute.name, owner, publisher.name)
                    )
            for document in publisher.documents:
                owner = seen_documents.setdefault(document.name, publisher.name)
                if owner != publisher.name:
                    raise InvalidParameterError(
                        "document %r appears in publishers %r and %r"
                        % (document.name, owner, publisher.name)
                    )
        seen_relays: List[str] = []
        for relay in self.topology:
            relay.validate()
            if relay.name in seen_relays:
                raise InvalidParameterError(
                    "duplicate relay name %r" % relay.name
                )
            if relay.upstream is not None and relay.upstream not in seen_relays:
                raise InvalidParameterError(
                    "relay %r names upstream %r, which is not an earlier "
                    "relay in the topology (None means the root broker)"
                    % (relay.name, relay.upstream)
                )
            seen_relays.append(relay.name)
        if not self.phases:
            raise InvalidParameterError("scenario needs at least one phase")
        if self.phases[0].kind != "join":
            raise InvalidParameterError(
                "the first phase must be a join (an empty population has "
                "nothing to revoke, flap or broadcast to)"
            )
        for phase in self.phases:
            phase.validate()
            if phase.publisher is not None and phase.publisher not in names:
                raise InvalidParameterError(
                    "phase targets unknown publisher %r" % phase.publisher
                )
        return self

    # -- JSON round trip ---------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "group": self.group,
            "gkm_field": self.gkm_field,
            "gkm": self.gkm,
            "gkm_bucket_size": self.gkm_bucket_size,
            "attribute_bits": self.attribute_bits,
            "capacity_slack": self.capacity_slack,
            "metrics_interval": self.metrics_interval,
            "min_attribution_coverage": self.min_attribution_coverage,
            "acv_cache": self.acv_cache,
            "publishers": [
                {
                    "name": p.name,
                    "attributes": [
                        {"name": a.name, "low": a.low, "high": a.high}
                        for a in p.attributes
                    ],
                    "policies": [
                        {
                            "condition": spec.condition,
                            "segments": list(spec.segments),
                            "document": spec.document,
                        }
                        for spec in p.policies
                    ],
                    "documents": [
                        # Pairs, not an object: JSON objects are
                        # unordered, and segment order is part of the
                        # exact round trip (same seed => same Document
                        # build => bit-identical runs from file or API).
                        {
                            "name": d.name,
                            "segments": [[seg, text] for seg, text in d.segments],
                        }
                        for d in p.documents
                    ],
                }
                for p in self.publishers
            ],
            "phases": [
                {
                    "kind": phase.kind,
                    "count": phase.count,
                    "publisher": phase.publisher,
                    "repeat": phase.repeat,
                }
                for phase in self.phases
            ],
            "topology": [
                {"name": relay.name, "upstream": relay.upstream}
                for relay in self.topology
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LoadScenario":
        try:
            # The top-level keys are exactly the dataclass fields; a key
            # this version does not know (a typo, a retired option) must
            # not silently run with a default.
            unknown = sorted(set(payload) - {f.name for f in fields(cls)})
            if unknown:
                raise InvalidParameterError(
                    "unknown load scenario key %r" % unknown[0]
                )
            publishers = tuple(
                PublisherSpec(
                    name=p["name"],
                    attributes=tuple(
                        AttributeSpec(a["name"], a["low"], a["high"])
                        for a in p["attributes"]
                    ),
                    policies=tuple(
                        PolicySpec(
                            condition=spec["condition"],
                            segments=tuple(spec["segments"]),
                            document=spec["document"],
                        )
                        for spec in p["policies"]
                    ),
                    documents=tuple(
                        DocumentSpec(name=d["name"], segments=_segments(d))
                        for d in p["documents"]
                    ),
                )
                for p in payload["publishers"]
            )
            phases = tuple(
                PhaseSpec(
                    kind=phase["kind"],
                    count=phase.get("count", 0),
                    publisher=phase.get("publisher"),
                    repeat=phase.get("repeat", 1),
                )
                for phase in payload["phases"]
            )
            topology = tuple(
                RelaySpec(
                    name=relay["name"], upstream=relay.get("upstream")
                )
                for relay in payload.get("topology", [])
            )
            scenario = cls(
                name=payload["name"],
                seed=payload["seed"],
                publishers=publishers,
                phases=phases,
                topology=topology,
                group=payload.get("group", "nist-p192"),
                gkm_field=payload.get("gkm_field", "fast"),
                gkm=payload.get("gkm", "dense"),
                gkm_bucket_size=payload.get("gkm_bucket_size", 0),
                attribute_bits=payload.get("attribute_bits", 8),
                capacity_slack=payload.get("capacity_slack", 0),
                metrics_interval=payload.get("metrics_interval", 0.0),
                min_attribution_coverage=payload.get(
                    "min_attribution_coverage", 0.0
                ),
                acv_cache=payload.get("acv_cache", True),
            )
        except (KeyError, TypeError) as exc:
            raise InvalidParameterError(
                "malformed load scenario payload: %s" % exc
            ) from exc
        return scenario.validate()


def churn_phases(
    population: int,
    arrival_rate: float,
    departure_rate: float,
    steps: int,
    publisher: Optional[str] = None,
) -> Tuple[PhaseSpec, ...]:
    """Expand per-step arrival/departure *rates* into discrete phases.

    Rates are fractions of ``population`` per step (``0.05`` = 5% churn
    per step); counts are rounded up so a nonzero rate always moves at
    least one member.  Each step contributes its revoke phase before its
    join phase, so the population dips and recovers -- the worst case
    for capacity reuse.
    """
    if population < 1 or steps < 1:
        raise InvalidParameterError("population and steps must be >= 1")
    if arrival_rate < 0 or departure_rate < 0:
        raise InvalidParameterError("rates must be >= 0")
    phases: List[PhaseSpec] = []
    for _ in range(steps):
        departures = math.ceil(population * departure_rate)
        arrivals = math.ceil(population * arrival_rate)
        if departures:
            phases.append(
                PhaseSpec(kind="revoke", count=departures, publisher=publisher)
            )
        if arrivals:
            phases.append(
                PhaseSpec(kind="join", count=arrivals, publisher=publisher)
            )
    return tuple(phases)


def load_scenario_file(path: str) -> LoadScenario:
    """Read and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return LoadScenario.from_payload(json.load(handle))


def save_scenario_file(scenario: LoadScenario, path: str) -> None:
    """Write a validated scenario as JSON (atomically)."""
    scenario.validate()
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(scenario.to_payload(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
