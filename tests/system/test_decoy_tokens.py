"""Tests for the Section VI-A extension: decoy identity tokens.

A Sub can register for attributes it does not hold using IdMgr-issued
tokens whose committed value lies outside every honest domain -- so the
publisher cannot even tell which attributes a Sub possesses.
"""

import random

import pytest

from repro.crypto.schnorr_sig import verify
from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.policy.acp import parse_policy
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher
from repro.system.registration import register_all_attributes
from repro.system.subscriber import Subscriber
from repro.system.transport import InMemoryTransport


@pytest.fixture
def world(rng):
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    pub = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=16, rng=rng,
    )
    pub.add_policy(parse_policy("role = doc", ["s1"], "d"))
    pub.add_policy(parse_policy("level >= 59", ["s2"], "d"))
    pub.add_policy(parse_policy("level < 30", ["s3"], "d"))
    return idp, idmgr, pub


class TestDecoyTokens:
    def test_decoy_token_verifies(self, world, rng):
        _, idmgr, pub = world
        token, x, r = idmgr.issue_decoy_token("pn-0077", "level", rng=rng)
        pk = idmgr.public_key
        assert verify(pk.group, pk, token.signing_bytes(), token.signature)
        assert x >= (1 << 200)
        assert idmgr.params.verify_open(token.commitment, x, r)

    def test_decoy_registers_but_never_satisfies(self, world, rng):
        """A Sub with only a 'role' attribute also registers a decoy
        'level' token: the table fills, but no level CSS ever opens."""
        idp, idmgr, pub = world
        idp.enroll("dee", "role", "doc")
        nym = idmgr.assign_pseudonym()
        sub = Subscriber(nym, pub.params, rng=rng)
        token, x, r = idmgr.issue_token(
            nym, idp.assert_attribute("dee", "role"), rng=rng
        )
        sub.hold_token(token, x, r)
        decoy, dx, dr = idmgr.issue_decoy_token(nym, "level", rng=rng)
        sub.hold_token(decoy, dx, dr)

        results = register_all_attributes(pub, sub)
        assert results["role"]["role = doc"] is True
        assert results["level"] == {"level >= 59": False, "level < 30": False}
        # Publisher's table looks exactly like a real level-holder's.
        assert pub.table.has(nym, "level >= 59")
        assert pub.table.has(nym, "level < 30")

    def test_publisher_view_indistinguishable_from_real_attribute(self, rng):
        """Transcript kinds/sizes match between a decoy registrant and a
        genuine one."""

        def run(use_decoy, seed):
            local = random.Random(seed)
            group = get_group("nist-p192")
            idp = IdentityProvider("hr", group, rng=local)
            idmgr = IdentityManager(group, rng=local)
            idmgr.trust_idp(idp)
            pub = Publisher(
                "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
                attribute_bits=16, rng=local,
            )
            pub.add_policy(parse_policy("level >= 59", ["s"], "d"))
            nym = idmgr.assign_pseudonym()
            sub = Subscriber(nym, pub.params, rng=local)
            if use_decoy:
                token, x, r = idmgr.issue_decoy_token(nym, "level", rng=local)
            else:
                idp.enroll("u", "level", 80)
                token, x, r = idmgr.issue_token(
                    nym, idp.assert_attribute("u", "level"), rng=local
                )
            sub.hold_token(token, x, r)
            transport = InMemoryTransport()
            register_all_attributes(pub, sub, transport)
            return [(m.kind, m.size) for m in transport.messages]

        assert run(True, seed=7) == run(False, seed=7)

    def test_decoy_cannot_decrypt_anything(self, world, rng):
        from repro.documents.model import Document

        idp, idmgr, pub = world
        nym = idmgr.assign_pseudonym()
        sub = Subscriber(nym, pub.params, rng=rng)
        for tag in ("role", "level"):
            token, x, r = idmgr.issue_decoy_token(nym, tag, rng=rng)
            sub.hold_token(token, x, r)
        register_all_attributes(pub, sub)
        doc = Document.of("d", {"s1": b"1", "s2": b"2", "s3": b"3"})
        package = pub.publish(doc)
        assert sub.receive(package) == {}
