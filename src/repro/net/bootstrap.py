"""Scenario/bundle files: how separate OS processes agree on a world.

A networked deployment must establish out of band what the in-process
examples share as live Python objects:

* the **scenario** (written by the operator, read by every process) --
  group name, GKM field, attribute bit-length, entity names, policies,
  the user population with their attribute values, and the demo
  lifecycle script (documents to publish, users to revoke).  Everything
  in it is public or IdP-side knowledge.
* the **bundle** (written by the IdMgr process once its keys exist, read
  by publisher and subscribers) -- the IdMgr's *public* signature key,
  each user's assigned pseudonym, and each user's signed attribute
  assertions.  Assertions are Sub-private credentials; shipping them
  through a file stands in for the Sub<->IdP enrollment channel the
  paper assumes, which a production deployment would encrypt per user.

The Pedersen base ``(g, h)`` needs no file: both generators are derived
deterministically from the named group (``h`` by hashing into the group,
so nobody knows ``log_g h``), hence every process reconstructs identical
``PedersenParams`` locally.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crypto.pedersen import PedersenParams
from repro.errors import InvalidParameterError
from repro.gkm.acv import FAST_FIELD, PAPER_FIELD
from repro.gkm.strategy import GKM_STRATEGIES
from repro.groups import get_group
from repro.groups.base import CyclicGroup, GroupElement
from repro.mathx.field import PrimeField
from repro.policy.acp import parse_policy
from repro.system.identity import AttributeAssertion
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher, SystemParams
from repro.system.subscriber import Subscriber

__all__ = [
    "Bundle",
    "build_identity_stack",
    "build_publisher",
    "build_subscriber",
    "build_system_params",
    "conditions_per_attribute",
    "expected_registrations",
    "load_scenario",
    "relay_for_entity",
    "relay_specs",
    "publisher_for_user",
    "publisher_specs",
    "read_bundle",
    "write_bundle",
    "write_json",
]

_GKM_FIELDS: Dict[str, PrimeField] = {"fast": FAST_FIELD, "paper": PAPER_FIELD}


def write_json(path: str, payload: dict) -> None:
    """Write JSON atomically (readers poll for the completed file)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    os.replace(tmp, path)


def load_scenario(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        scenario = json.load(handle)
    for key in ("group", "seed", "users"):
        if key not in scenario:
            raise InvalidParameterError("scenario is missing %r" % key)
    if "policies" not in scenario and "publishers" not in scenario:
        raise InvalidParameterError(
            "scenario needs either 'policies' (single publisher) or "
            "'publishers' (a list of {name, policies})"
        )
    scenario.setdefault("attribute_bits", 8)
    scenario.setdefault("gkm_field", "fast")
    scenario.setdefault("gkm", "dense")
    scenario.setdefault("gkm_bucket_size", 0)
    scenario.setdefault("idp", "idp")
    scenario.setdefault("idmgr", "idmgr")
    scenario.setdefault("publisher", "pub")
    scenario.setdefault("documents", [])
    scenario.setdefault("revoke", [])
    scenario.setdefault("assignments", {})
    scenario.setdefault("topology", {})
    if scenario["gkm_field"] not in _GKM_FIELDS:
        raise InvalidParameterError(
            "gkm_field must be one of %s" % sorted(_GKM_FIELDS)
        )
    if scenario["gkm"] not in GKM_STRATEGIES:
        raise InvalidParameterError(
            "gkm must be one of %s" % (GKM_STRATEGIES,)
        )
    if not isinstance(scenario["gkm_bucket_size"], int) or (
        scenario["gkm_bucket_size"] < 0
    ):
        raise InvalidParameterError("gkm_bucket_size must be an int >= 0")
    names = [spec["name"] for spec in publisher_specs(scenario)]
    if len(set(names)) != len(names):
        raise InvalidParameterError("duplicate publisher names: %s" % names)
    for user, name in scenario["assignments"].items():
        if user not in scenario["users"]:
            raise InvalidParameterError(
                "assignment for unknown user %r" % user
            )
        if name not in names:
            raise InvalidParameterError(
                "user %r assigned to unknown publisher %r" % (user, name)
            )
    relay_names = {spec["name"] for spec in relay_specs(scenario)}
    for entity, relay in scenario["topology"].get("attach", {}).items():
        if relay not in relay_names:
            raise InvalidParameterError(
                "entity %r attached to unknown relay %r" % (entity, relay)
            )
    return scenario


def publisher_specs(scenario: dict) -> List[dict]:
    """``[{"name": ..., "policies": [...]}, ...]`` -- the normalized
    publisher list.  A classic single-publisher scenario (top-level
    ``policies``) yields one spec named ``scenario["publisher"]``; a
    multi-publisher scenario lists them under ``publishers`` and assigns
    users via the optional ``assignments`` map (default: the first)."""
    if "publishers" in scenario:
        if not scenario["publishers"]:
            raise InvalidParameterError(
                "'publishers' must be a non-empty list"
            )
        specs = []
        for spec in scenario["publishers"]:
            for key in ("name", "policies"):
                if key not in spec:
                    raise InvalidParameterError(
                        "publisher spec is missing %r" % key
                    )
            specs.append(spec)
        return specs
    return [{"name": scenario["publisher"], "policies": scenario["policies"]}]


def relay_specs(scenario: dict) -> List[dict]:
    """The normalized relay tree: ``[{"name": ..., "upstream": ...}, ...]``.

    The optional scenario section ``topology`` describes the broker
    federation::

        "topology": {
            "relays": [{"name": "r1"}, {"name": "r2", "upstream": "r1"}],
            "attach": {"alice": "r2"}
        }

    ``upstream`` names an **earlier** relay in the list (omitted or null
    means the root broker), so a well-formed spec is a tree by
    construction -- the same declaration order a supervisor must spawn
    the processes in.  ``attach`` maps entity names to the relay they
    connect through; unlisted entities connect to the root directly.
    Entirely optional: no ``topology`` section means the classic
    single-broker deployment.
    """
    topology = scenario.get("topology") or {}
    relays = topology.get("relays", [])
    seen: List[str] = []
    specs: List[dict] = []
    for spec in relays:
        if "name" not in spec:
            raise InvalidParameterError("relay spec is missing 'name'")
        name = spec["name"]
        if name in seen:
            raise InvalidParameterError("duplicate relay name %r" % name)
        upstream = spec.get("upstream")
        if upstream is not None and upstream not in seen:
            raise InvalidParameterError(
                "relay %r names upstream %r, which is not an earlier relay "
                "in the list (the root broker is the implicit default)"
                % (name, upstream)
            )
        seen.append(name)
        specs.append({"name": name, "upstream": upstream})
    return specs


def relay_for_entity(scenario: dict, entity: str) -> Optional[str]:
    """The relay ``entity`` attaches through, or None for the root."""
    return scenario.get("topology", {}).get("attach", {}).get(entity)


def _publisher_spec(scenario: dict, name: Optional[str]) -> dict:
    specs = publisher_specs(scenario)
    if name is None:
        return specs[0]
    for spec in specs:
        if spec["name"] == name:
            return spec
    raise InvalidParameterError(
        "no publisher %r in the scenario (have %s)"
        % (name, [s["name"] for s in specs])
    )


def publisher_for_user(scenario: dict, user: str) -> str:
    """The publisher ``user`` subscribes to (``assignments``, else the
    first/only publisher)."""
    default = publisher_specs(scenario)[0]["name"]
    return scenario.get("assignments", {}).get(user, default)


def _group(scenario: dict) -> CyclicGroup:
    return get_group(scenario["group"])


def build_identity_stack(scenario: dict):
    """The IdMgr process's world: IdP, IdMgr, pseudonyms, assertions.

    Deterministic in ``scenario["seed"]`` so a restarted IdMgr issues the
    same pseudonyms/keys (users are processed in sorted order).
    """
    rng = random.Random(scenario["seed"])
    group = _group(scenario)
    idp = IdentityProvider(scenario["idp"], group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    nyms: Dict[str, str] = {}
    assertions: Dict[str, Dict[str, AttributeAssertion]] = {}
    for user in sorted(scenario["users"]):
        nyms[user] = idmgr.assign_pseudonym()
        assertions[user] = {}
        for attribute, value in sorted(scenario["users"][user].items()):
            idp.enroll(user, attribute, value)
            assertions[user][attribute] = idp.assert_attribute(user, attribute)
    return idp, idmgr, nyms, assertions


@dataclass(frozen=True)
class Bundle:
    """The published parameters every non-IdMgr process needs."""

    group_name: str
    public_key: GroupElement
    nyms: Dict[str, str]
    assertions: Dict[str, Dict[str, AttributeAssertion]]


def write_bundle(path: str, scenario: dict, idmgr: IdentityManager,
                 nyms: Dict[str, str],
                 assertions: Dict[str, Dict[str, AttributeAssertion]]) -> None:
    write_json(path, {
        "group": scenario["group"],
        "idmgr_public_key": idmgr.public_key.to_bytes().hex(),
        "nyms": nyms,
        "assertions": {
            user: {attr: a.to_bytes().hex() for attr, a in per_user.items()}
            for user, per_user in assertions.items()
        },
    })


def read_bundle(path: str) -> Bundle:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    group = get_group(raw["group"])
    return Bundle(
        group_name=raw["group"],
        public_key=group.element_from_bytes(bytes.fromhex(raw["idmgr_public_key"])),
        nyms=dict(raw["nyms"]),
        assertions={
            user: {
                attr: AttributeAssertion.from_bytes(bytes.fromhex(encoded))
                for attr, encoded in per_user.items()
            }
            for user, per_user in raw["assertions"].items()
        },
    )


def build_system_params(scenario: dict, public_key: GroupElement) -> SystemParams:
    """The ``SystemParams`` a subscriber process reconstructs locally.

    Built through :func:`build_publisher` so the defaults (hash, cipher,
    key length) can never drift between the two sides.
    """
    return build_publisher(scenario, public_key).params


def build_publisher(
    scenario: dict,
    public_key: GroupElement,
    name: Optional[str] = None,
    gkm: Optional[str] = None,
    gkm_bucket_size: Optional[int] = None,
) -> Publisher:
    """Build one of the scenario's publishers (default: the first/only).

    Each publisher's RNG is salted with its own name in multi-publisher
    scenarios, so two publisher processes sharing one broker never mint
    correlated CSSs; the classic single-publisher derivation is kept
    verbatim for reproducibility of existing scenarios.

    The publish-path GKM strategy resolves most-specific-first: the
    ``gkm``/``gkm_bucket_size`` arguments (a CLI override such as
    ``--gkm-buckets``), else the publisher spec's own ``gkm`` fields,
    else the scenario-level ones (default dense).
    """
    spec = _publisher_spec(scenario, name)
    if scenario.get("publishers"):
        salt = "%s/publisher/%s" % (scenario["seed"], spec["name"])
    else:
        salt = "%s/publisher" % scenario["seed"]
    if gkm is None:
        gkm = spec.get("gkm", scenario.get("gkm", "dense"))
    if gkm not in GKM_STRATEGIES:
        raise InvalidParameterError("gkm must be one of %s" % (GKM_STRATEGIES,))
    if gkm_bucket_size is None:
        gkm_bucket_size = spec.get(
            "gkm_bucket_size", scenario.get("gkm_bucket_size", 0)
        )
    if not isinstance(gkm_bucket_size, int) or gkm_bucket_size < 0:
        raise InvalidParameterError("gkm_bucket_size must be an int >= 0")
    publisher = Publisher(
        spec["name"],
        PedersenParams(_group(scenario)),
        public_key,
        gkm_field=_GKM_FIELDS[scenario["gkm_field"]],
        attribute_bits=scenario["attribute_bits"],
        rng=random.Random(salt),
        gkm=gkm,
        gkm_bucket_size=gkm_bucket_size,
    )
    for policy in spec["policies"]:
        publisher.add_policy(
            parse_policy(policy["condition"], policy["segments"], policy["document"])
        )
    return publisher


def build_subscriber(scenario: dict, bundle: Bundle, user: str) -> Subscriber:
    if user not in bundle.nyms:
        raise InvalidParameterError("user %r is not in the bundle" % user)
    params = build_system_params(scenario, bundle.public_key)
    return Subscriber(
        bundle.nyms[user], params,
        rng=random.Random("%s/%s" % (scenario["seed"], user)),
    )


def conditions_per_attribute(
    scenario: dict, publisher: Optional[str] = None
) -> Dict[str, int]:
    """Distinct policy conditions naming each attribute (0 if unmentioned).

    ``publisher`` restricts the count to one publisher's policy set;
    ``None`` counts across every publisher (identical to the historical
    behaviour for single-publisher scenarios).
    """
    if publisher is None:
        specs = publisher_specs(scenario)
    else:
        specs = [_publisher_spec(scenario, publisher)]
    conditions = {}
    for spec in specs:
        for policy in spec["policies"]:
            parsed = parse_policy(
                policy["condition"], policy["segments"], policy["document"]
            )
            for condition in parsed.conditions:
                conditions[condition.key()] = condition.name
    counts: Dict[str, int] = {}
    for name in conditions.values():
        counts[name] = counts.get(name, 0) + 1
    return counts


def expected_registrations(
    scenario: dict, publisher: Optional[str] = None
) -> int:
    """Table cells once every user registered every matching condition.

    Following Section V-B, each subscriber registers its token for every
    condition over an attribute it holds a token for, satisfiable or not
    -- against its *assigned* publisher.  ``publisher`` restricts the sum
    to the users assigned to that publisher (what one publisher process
    waits for); ``None`` sums over all of them.
    """
    per_pub = {
        spec["name"]: conditions_per_attribute(scenario, spec["name"])
        for spec in publisher_specs(scenario)
    }
    total = 0
    for user, attributes in scenario["users"].items():
        assigned = publisher_for_user(scenario, user)
        if publisher is not None and assigned != publisher:
            continue
        counts = per_pub[assigned]
        total += sum(counts.get(name, 0) for name in attributes)
    return total
