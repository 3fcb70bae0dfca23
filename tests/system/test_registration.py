"""Tests for the registration phase (Section V-B)."""

from dataclasses import replace

import pytest

from repro.errors import RegistrationError, SignatureError
from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.system.identity import IdentityToken
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher
from repro.system.registration import register_all_attributes, register_for_attribute
from repro.system.subscriber import Subscriber
from repro.system.transport import InMemoryTransport
from repro.policy.acp import parse_policy


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
    pub.add_policy(parse_policy("role = nur AND level >= 59", ["s2"], "d"))
    pub.add_policy(parse_policy("level < 30", ["s3"], "d"))
    return idp, idmgr, pub


def make_sub(idp, idmgr, pub, name, attributes, rng):
    for attr, value in attributes.items():
        idp.enroll(name, attr, value)
    nym = idmgr.assign_pseudonym()
    sub = Subscriber(nym, pub.params, rng=rng)
    for attr in attributes:
        token, x, r = idmgr.issue_token(nym, idp.assert_attribute(name, attr), rng=rng)
        sub.hold_token(token, x, r)
    return sub


class TestConditionDiscovery:
    def test_conditions_deduplicated(self, world):
        _, _, pub = world
        keys = [c.key() for c in pub.conditions()]
        assert keys == sorted(set(keys))
        assert "role = doc" in keys and "level >= 59" in keys

    def test_conditions_for_attribute(self, world):
        _, _, pub = world
        level_conds = pub.conditions_for_attribute("level")
        assert {c.key() for c in level_conds} == {"level >= 59", "level < 30"}


class TestRegistration:
    def test_css_extracted_iff_satisfied(self, world, rng):
        idp, idmgr, pub = world
        nurse = make_sub(idp, idmgr, pub, "nan", {"role": "nur", "level": 61}, rng)
        results = register_all_attributes(pub, nurse)
        assert results["role"] == {"role = doc": False, "role = nur": True}
        assert results["level"] == {"level >= 59": True, "level < 30": False}
        assert set(nurse.css_store) == {"role = nur", "level >= 59"}

    def test_publisher_table_filled_regardless(self, world, rng):
        """Table T records a CSS for every registered condition -- even the
        ones the Sub cannot open (Table I's mutually exclusive columns)."""
        idp, idmgr, pub = world
        nurse = make_sub(idp, idmgr, pub, "nan", {"role": "nur", "level": 61}, rng)
        register_all_attributes(pub, nurse)
        for key in ("role = doc", "role = nur", "level >= 59", "level < 30"):
            assert pub.table.has(nurse.nym, key)

    def test_mutually_exclusive_conditions_registered(self, world, rng):
        """The pn-0829 behaviour from Example 3."""
        idp, idmgr, pub = world
        young = make_sub(idp, idmgr, pub, "kid", {"level": 20}, rng)
        results = register_for_attribute(pub, young, "level")
        assert results == {"level >= 59": False, "level < 30": True}
        assert pub.table.has(young.nym, "level >= 59")
        assert pub.table.has(young.nym, "level < 30")

    def test_tag_mismatch_rejected(self, world, rng):
        idp, idmgr, pub = world
        sub = make_sub(idp, idmgr, pub, "dd", {"role": "doc"}, rng)
        level_cond = pub.conditions_for_attribute("level")[0]
        with pytest.raises(RegistrationError):
            pub.open_registration(sub.wallet_for("role").token, level_cond)

    def test_forged_token_rejected(self, world, rng):
        idp, idmgr, pub = world
        sub = make_sub(idp, idmgr, pub, "dd", {"role": "doc"}, rng)
        genuine = sub.wallet_for("role").token
        forged = IdentityToken(
            nym="pn-9999",
            tag=genuine.tag,
            commitment=genuine.commitment,
            signature=genuine.signature,
        )
        condition = pub.conditions_for_attribute("role")[0]
        with pytest.raises(SignatureError):
            pub.open_registration(forged, condition)

    def test_a_token_is_verified_once_for_all_its_conditions(
        self, world, rng, monkeypatch
    ):
        """A two-condition grant costs one signature verification."""
        import repro.crypto.schnorr_sig as schnorr_sig

        idp, idmgr, pub = world
        sub = make_sub(idp, idmgr, pub, "kid", {"level": 20}, rng)
        calls = []
        real = schnorr_sig.verify
        monkeypatch.setattr(
            schnorr_sig, "verify", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        token = sub.wallet_for("level").token
        for condition in pub.conditions_for_attribute("level"):
            pub.open_registration(token, condition)
        assert len(pub.conditions_for_attribute("level")) == 2
        assert len(calls) == 1

    def test_a_verified_token_tampered_in_any_signed_field_is_refused(
        self, world, rng
    ):
        """Once a token has verified, a copy changed in its nym, tag,
        commitment or either signature scalar is verified afresh and
        refused."""
        idp, idmgr, pub = world
        sub = make_sub(idp, idmgr, pub, "dd", {"role": "doc", "level": 61}, rng)
        token = sub.wallet_for("role").token
        other = sub.wallet_for("level").token
        role = pub.conditions_for_attribute("role")[0]
        level = pub.conditions_for_attribute("level")[0]
        pub.open_registration(token, role)
        signature = token.signature
        tampered = [
            (replace(token, nym="pn-9999"), role),
            (replace(token, tag="level"), level),
            (replace(token, commitment=other.commitment), role),
            (replace(token, signature=replace(signature, e=signature.e ^ 1)), role),
            (replace(token, signature=replace(signature, s=signature.s ^ 1)), role),
        ]
        for forged, condition in tampered:
            with pytest.raises(SignatureError):
                pub.open_registration(forged, condition)
        pub.open_registration(token, role)  # the genuine one still passes

    def test_missing_token(self, world, rng):
        idp, idmgr, pub = world
        sub = make_sub(idp, idmgr, pub, "dd", {"role": "doc"}, rng)
        with pytest.raises(RegistrationError):
            sub.wallet_for("level").token

    def test_wrong_nym_token_rejected_by_subscriber(self, world, rng):
        idp, idmgr, pub = world
        sub = make_sub(idp, idmgr, pub, "dd", {"role": "doc"}, rng)
        idp.enroll("other", "role", "doc")
        token, x, r = idmgr.issue_token(
            "pn-7777", idp.assert_attribute("other", "role"), rng=rng
        )
        with pytest.raises(RegistrationError):
            sub.hold_token(token, x, r)

    def test_reregistration_overwrites_css(self, world, rng):
        """Credential update: a new token for the same attribute replaces
        the CSS (Section V-C 'Credential Update')."""
        idp, idmgr, pub = world
        sub = make_sub(idp, idmgr, pub, "dd", {"role": "doc"}, rng)
        register_for_attribute(pub, sub, "role")
        old_css = pub.table.get(sub.nym, "role = doc")
        register_for_attribute(pub, sub, "role")
        new_css = pub.table.get(sub.nym, "role = doc")
        assert old_css != new_css

    def test_transport_accounting(self, world, rng):
        idp, idmgr, pub = world
        sub = make_sub(idp, idmgr, pub, "dd", {"role": "doc", "level": 40}, rng)
        transport = InMemoryTransport()
        register_all_attributes(pub, sub, transport)
        assert transport.bytes_between(sub.nym, "pub") > 0
        assert transport.bytes_between("pub", sub.nym) > 0
        kinds = transport.kinds_count()
        assert kinds["token+condition-request"] == 4  # 2 role + 2 level conds
        assert kinds["ocbe-envelope"] == 4
