"""Fixtures for wire-protocol tests: a small fully-wired world."""

from __future__ import annotations

import random

import pytest

from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.policy.acp import parse_policy
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher
from repro.system.subscriber import Subscriber


def build_wire_world():
    """(idp, idmgr, publisher, subscriber) with tokens held, nothing registered."""
    rng = random.Random(0xA11CE)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    pub = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=16, rng=rng,
    )
    pub.add_policy(parse_policy("role = doc", ["s1"], "d"))
    pub.add_policy(parse_policy("role != doc AND level >= 59", ["s2"], "d"))
    pub.add_policy(parse_policy("level < 30", ["s3"], "d"))
    idp.enroll("wendy", "role", "doc")
    idp.enroll("wendy", "level", 61)
    nym = idmgr.assign_pseudonym()
    sub = Subscriber(nym, pub.params, rng=rng)
    for attr in ("role", "level"):
        token, x, r = idmgr.issue_token(
            nym, idp.assert_attribute("wendy", attr), rng=rng
        )
        sub.hold_token(token, x, r)
    return idp, idmgr, pub, sub


@pytest.fixture(scope="module")
def wire_world():
    return build_wire_world()
