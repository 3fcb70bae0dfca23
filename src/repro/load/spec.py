"""Declarative load/churn scenario specifications.

A :class:`LoadScenario` describes a whole population experiment without
any live objects: which publishers exist (each with its own attribute
mix, policies and broadcast documents), and a script of *phases* --
arrival waves, revoke storms, flapping subscribers that kill-and-recover
from their durable state, pure broadcast fan-out.  The spec is plain
data with an exact JSON round trip, so the same scenario file drives the
in-process driver, the TCP driver and the ``python -m repro.load`` CLI.

Churn rates are expressed as phases: a "5%/min departure rate at N=500
over 10 minutes" is ten ``revoke`` phases of 25, so the engine sees
discrete, checkable steps (every phase ends in a rekey whose invariants
are asserted).

Multi-publisher scenarios must keep their attribute universes disjoint:
condition keys are strings shared across a subscriber's publishers, so
two publishers announcing the same condition would alias each other's
registrations.  :meth:`LoadScenario.validate` enforces this.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from repro.documents.model import Document
from repro.errors import InvalidParameterError
from repro.gkm.acv import GKM_FIELDS
from repro.gkm.strategy import GKM_STRATEGIES
from repro.policy.acp import AccessControlPolicy, parse_policy

__all__ = [
    "AttributeSpec",
    "DocumentSpec",
    "LoadScenario",
    "PHASE_KINDS",
    "PhaseSpec",
    "PolicySpec",
    "PublisherSpec",
    "RelaySpec",
    "load_scenario_file",
    "validate_gkm",
]

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


def _known_keys(label: str, payload: dict, allowed) -> dict:
    """``payload`` itself once each of its keys is in ``allowed``.  A key
    this version does not read (a typo, a retired option) is refused by
    name, never silently run with a default."""
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise InvalidParameterError("unknown %s key %r" % (label, unknown[0]))
    return payload


def _field_names(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def validate_gkm(gkm_field: str, gkm: str, gkm_bucket_size: int) -> None:
    """The GKM settings rules every scenario format shares."""
    if gkm_field not in GKM_FIELDS:
        raise InvalidParameterError(
            "gkm_field must be one of %s" % sorted(GKM_FIELDS)
        )
    if gkm not in GKM_STRATEGIES:
        raise InvalidParameterError("gkm must be one of %s" % (GKM_STRATEGIES,))
    if not isinstance(gkm_bucket_size, int) or gkm_bucket_size < 0:
        raise InvalidParameterError("gkm_bucket_size must be an int >= 0")


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

    @classmethod
    def from_payload(cls, payload: dict) -> "PolicySpec":
        _known_keys("policy", payload, _field_names(cls))
        return cls(
            condition=payload["condition"],
            segments=tuple(payload["segments"]),
            document=payload["document"],
        )


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

    @classmethod
    def from_payload(cls, payload: dict) -> "DocumentSpec":
        """The canonical segments are a list of ``[name, text]`` pairs; a
        JSON object (hand-written scenario) is accepted in sorted order,
        since objects carry none."""
        _known_keys("document", payload, _field_names(cls))
        raw = payload["segments"]
        pairs = sorted(raw.items()) if isinstance(raw, dict) else raw
        return cls(
            name=payload["name"],
            segments=tuple((seg, text) for seg, text in pairs),
        )


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

    @classmethod
    def from_payload(cls, payload: dict, mix: bool = True) -> "PublisherSpec":
        """One ``publishers`` entry.  A deployment file's entry
        (:mod:`repro.net.bootstrap`, ``mix=False``) has no
        ``attributes``: its users hold explicit attribute values."""
        keys = _field_names(cls) if mix else ("name", "policies", "documents")
        _known_keys("publisher", payload, keys)
        return cls(
            name=payload["name"],
            attributes=tuple(
                AttributeSpec(
                    **_known_keys("attribute", a, _field_names(AttributeSpec))
                )
                for a in payload["attributes"]
            ) if mix else (),
            policies=tuple(
                PolicySpec.from_payload(p) for p in payload["policies"]
            ),
            documents=tuple(
                DocumentSpec.from_payload(d) for d in payload["documents"]
            ),
        )

    def validate(self, attribute_bits: int) -> None:
        self.validate_documents()
        if not self.attributes:
            raise InvalidParameterError(
                "publisher %r needs at least one attribute" % self.name
            )
        for attribute in self.attributes:
            attribute.validate(attribute_bits)
        declared = {a.name for a in self.attributes}
        if len(declared) != len(self.attributes):
            raise InvalidParameterError(
                "publisher %r declares duplicate attributes" % self.name
            )
        for spec in self.policies:
            for condition in spec.parse().conditions:
                if condition.name not in declared:
                    raise InvalidParameterError(
                        "policy %r references attribute %r outside the "
                        "mix of publisher %r"
                        % (spec.condition, condition.name, self.name)
                    )

    def validate_documents(self) -> None:
        """Every check but the attribute mix's, shared with a deployment
        file's publisher: a valid name, at least one policy and document,
        no duplicate document or segment, and each policy protecting
        declared segments of a declared document."""
        _require_name("publisher name", self.name)
        if not self.policies or not self.documents:
            raise InvalidParameterError(
                "publisher %r needs at least one policy and document"
                % self.name
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
            spec.parse()  # raises PolicyParseError on bad syntax
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

    # -- validation --------------------------------------------------------

    def validate(self) -> "LoadScenario":
        _require_name("scenario name", self.name)
        if not isinstance(self.seed, int):
            raise InvalidParameterError("seed must be an int")
        validate_gkm(self.gkm_field, self.gkm, self.gkm_bucket_size)
        if self.attribute_bits < 1 or self.capacity_slack < 0:
            raise InvalidParameterError("invalid attribute_bits/capacity_slack")
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
            # Every level's keys are exactly its dataclass's fields.
            _known_keys("load scenario", payload, _field_names(cls))
            publishers = tuple(
                PublisherSpec.from_payload(p) for p in payload["publishers"]
            )
            phases = tuple(
                PhaseSpec(**_known_keys("phase", p, _field_names(PhaseSpec)))
                for p in payload["phases"]
            )
            topology = tuple(
                RelaySpec(**_known_keys("relay", r, _field_names(RelaySpec)))
                for r in payload.get("topology", [])
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
            )
        except (KeyError, TypeError) as exc:
            raise InvalidParameterError(
                "malformed load scenario payload: %s" % exc
            ) from exc
        return scenario.validate()


def load_scenario_file(path: str) -> LoadScenario:
    """Read and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return LoadScenario.from_payload(json.load(handle))

