"""Scenario/bundle files: how separate OS processes agree on a world.

A networked deployment must establish out of band what the in-process
examples share as live Python objects:

* the **scenario** (written by the operator, read by every process) --
  group name, GKM settings, attribute bit-length, entity names, each
  publisher's policies and documents in the :mod:`repro.load.spec`
  vocabulary, the user population with their attribute values, and the
  users the demo lifecycle revokes.  Everything in it is public or
  IdP-side knowledge.
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
from typing import Dict, Optional

from repro.crypto.pedersen import PedersenParams
from repro.errors import InvalidParameterError
from repro.gkm.acv import GKM_FIELDS
from repro.groups import get_group
from repro.groups.base import CyclicGroup, GroupElement
from repro.load.spec import PublisherSpec, validate_gkm
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
    "expected_registrations",
    "load_scenario",
    "publisher_for_user",
    "publisher_spec",
    "read_bundle",
    "write_bundle",
    "write_json",
]

#: The required keys of a deployment file.
_REQUIRED = ("group", "seed", "users", "publishers")


def write_json(path: str, payload: dict) -> None:
    """Write JSON atomically (readers poll for the completed file)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    os.replace(tmp, path)


def load_scenario(path: str) -> dict:
    """Read and validate a deployment file (schema: DESIGN.md).

    ``publishers`` entries parse into :class:`repro.load.spec.
    PublisherSpec` and pass its policy-to-document check; the GKM
    settings pass the rules a :class:`~repro.load.spec.LoadScenario`
    does.  Any key the file may not set is refused by name.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    scenario = {
        "attribute_bits": 8,
        "gkm_field": "fast",
        "gkm": "dense",
        "gkm_bucket_size": 0,
        "idp": "idp",
        "idmgr": "idmgr",
        "revoke": [],
        "assignments": {},
    }
    unknown = sorted(set(raw) - set(scenario) - set(_REQUIRED))
    if unknown:
        raise InvalidParameterError("unknown deployment key %r" % unknown[0])
    for key in _REQUIRED:
        if key not in raw:
            raise InvalidParameterError("scenario is missing %r" % key)
    scenario.update(raw)
    validate_gkm(scenario["gkm_field"], scenario["gkm"], scenario["gkm_bucket_size"])
    if not scenario["publishers"]:
        raise InvalidParameterError("'publishers' must be a non-empty list")
    try:
        specs = tuple(
            PublisherSpec.from_payload(entry, mix=False)
            for entry in scenario["publishers"]
        )
    except (KeyError, TypeError) as exc:
        raise InvalidParameterError(
            "malformed publisher entry: %s" % exc
        ) from exc
    for spec in specs:
        spec.validate_documents()
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise InvalidParameterError("duplicate publisher names: %s" % names)
    scenario["publishers"] = specs
    for user, name in scenario["assignments"].items():
        if user not in scenario["users"]:
            raise InvalidParameterError(
                "assignment for unknown user %r" % user
            )
        if name not in names:
            raise InvalidParameterError(
                "user %r assigned to unknown publisher %r" % (user, name)
            )
    for user in scenario["revoke"]:
        if user not in scenario["users"]:
            raise InvalidParameterError("revoke names unknown user %r" % user)
    return scenario


def publisher_spec(scenario: dict, name: Optional[str] = None) -> PublisherSpec:
    """The publisher ``name`` of a loaded scenario (default: the first)."""
    specs = scenario["publishers"]
    if name is None:
        return specs[0]
    for spec in specs:
        if spec.name == name:
            return spec
    raise InvalidParameterError(
        "no publisher %r in the scenario (have %s)"
        % (name, [s.name for s in specs])
    )


def publisher_for_user(scenario: dict, user: str) -> str:
    """The publisher ``user`` subscribes to (``assignments``, else the
    first publisher)."""
    return scenario["assignments"].get(user, scenario["publishers"][0].name)


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
    scenario: dict, public_key: GroupElement, name: Optional[str] = None
) -> Publisher:
    """Build one of the scenario's publishers (default: the first).

    Each publisher's RNG is salted with its own name, the derivation
    :class:`repro.load.engine.LoadEngine` uses, so two publisher
    processes sharing one broker never mint correlated CSSs.
    """
    spec = publisher_spec(scenario, name)
    publisher = Publisher(
        spec.name,
        PedersenParams(_group(scenario)),
        public_key,
        gkm_field=GKM_FIELDS[scenario["gkm_field"]],
        attribute_bits=scenario["attribute_bits"],
        rng=random.Random("%s/publisher/%s" % (scenario["seed"], spec.name)),
        gkm=scenario["gkm"],
        gkm_bucket_size=scenario["gkm_bucket_size"],
    )
    for policy in spec.parsed_policies():
        publisher.add_policy(policy)
    return publisher


def build_subscriber(scenario: dict, bundle: Bundle, user: str) -> Subscriber:
    if user not in bundle.nyms:
        raise InvalidParameterError("user %r is not in the bundle" % user)
    params = build_system_params(scenario, bundle.public_key)
    return Subscriber(
        bundle.nyms[user], params,
        rng=random.Random("%s/%s" % (scenario["seed"], user)),
    )


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
        spec.name: spec.conditions_per_attribute()
        for spec in scenario["publishers"]
    }
    total = 0
    for user, attributes in scenario["users"].items():
        assigned = publisher_for_user(scenario, user)
        if publisher is not None and assigned != publisher:
            continue
        counts = per_pub[assigned]
        total += sum(counts.get(name, 0) for name in attributes)
    return total
