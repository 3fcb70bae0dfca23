"""Tests for identity tokens, IdPs and the IdMgr."""

import dataclasses

import pytest

from repro.errors import SignatureError, SystemError_
from repro.groups import get_group
from repro.policy.encoding import encode_value
from repro.system.identity import IdentityToken, token_signing_bytes
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider


@pytest.fixture
def world(rng):
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    idp.enroll("bob", "age", 28)
    idp.enroll("bob", "role", "nurse")
    return idp, idmgr


class TestIdp:
    def test_assertion_roundtrip(self, world):
        idp, _ = world
        assertion = idp.assert_attribute("bob", "age")
        assert assertion.value == 28
        assert idp.verify(assertion)

    def test_unknown_subject(self, world):
        idp, _ = world
        with pytest.raises(SystemError_):
            idp.assert_attribute("mallory", "age")

    def test_unknown_attribute(self, world):
        idp, _ = world
        with pytest.raises(SystemError_):
            idp.assert_attribute("bob", "height")

    def test_tampered_assertion_rejected(self, world):
        idp, _ = world
        assertion = idp.assert_attribute("bob", "age")
        forged = type(assertion)(
            subject=assertion.subject,
            name=assertion.name,
            value=99,
            issuer=assertion.issuer,
            signature=assertion.signature,
        )
        assert not idp.verify(forged)


class TestAssertionSignatureBindsEveryField:
    """The issuer signs each field length-prefixed or tagged, so neither a
    value's type nor a boundary between fields can move under it."""

    def test_retyped_value_rejected(self, world, rng):
        idp, idmgr = world
        idp.enroll("bob", "level", 5)
        assertion = idp.assert_attribute("bob", "level")
        retyped = dataclasses.replace(assertion, value="5")
        assert not idp.verify(retyped)
        with pytest.raises(SignatureError):
            idmgr.issue_token("pn-5", retyped, rng=rng)

    def test_resplit_fields_rejected(self, world, rng):
        idp, idmgr = world
        idp.enroll("bob", "role", "doc|idp")
        assertion = idp.assert_attribute("bob", "role")
        resplit = dataclasses.replace(assertion, name="role|doc", value="idp")
        assert not idp.verify(resplit)
        with pytest.raises(SignatureError):
            idmgr.issue_token("pn-6", resplit, rng=rng)


class TestIdMgr:
    def test_token_issuance_example_1(self, world, rng):
        """Example 1: Bob gets a token for his age; the committed value is
        hidden but opens correctly with (x, r)."""
        idp, idmgr = world
        assertion = idp.assert_attribute("bob", "age")
        token, x, r = idmgr.issue_token("pn-1492", assertion, rng=rng)
        assert token.nym == "pn-1492"
        assert token.tag == "age"
        assert x == encode_value(28)
        assert idmgr.params.verify_open(token.commitment, x, r)
        assert idmgr.verify_token(token)

    def test_untrusted_idp_rejected(self, rng):
        group = get_group("nist-p192")
        rogue = IdentityProvider("rogue", group, rng=rng)
        rogue.enroll("eve", "age", 99)
        idmgr = IdentityManager(group, rng=rng)
        with pytest.raises(SystemError_):
            idmgr.issue_token("pn-1", rogue.assert_attribute("eve", "age"), rng=rng)

    def test_bad_idp_signature_rejected(self, world, rng):
        idp, idmgr = world
        assertion = idp.assert_attribute("bob", "age")
        forged = type(assertion)(
            subject="bob",
            name="age",
            value=99,  # changed after signing
            issuer="hr",
            signature=assertion.signature,
        )
        with pytest.raises(SignatureError):
            idmgr.issue_token("pn-1", forged, rng=rng)

    def test_token_tamper_detected(self, world, rng):
        idp, idmgr = world
        assertion = idp.assert_attribute("bob", "role")
        token, _, _ = idmgr.issue_token("pn-2", assertion, rng=rng)
        forged = IdentityToken(
            nym="pn-9",  # different pseudonym
            tag=token.tag,
            commitment=token.commitment,
            signature=token.signature,
        )
        assert not idmgr.verify_token(forged)

    def test_pseudonyms_unique(self, world):
        _, idmgr = world
        nyms = {idmgr.assign_pseudonym() for _ in range(10)}
        assert len(nyms) == 10

    def test_signing_bytes_canonical(self, world, rng):
        idp, idmgr = world
        assertion = idp.assert_attribute("bob", "age")
        token, _, _ = idmgr.issue_token("pn-3", assertion, rng=rng)
        assert token.signing_bytes() == token_signing_bytes(
            token.nym, token.tag, token.commitment
        )
        assert token.byte_size() > 0

    def test_string_attribute_committed(self, world, rng):
        idp, idmgr = world
        assertion = idp.assert_attribute("bob", "role")
        token, x, r = idmgr.issue_token("pn-4", assertion, rng=rng)
        assert x == encode_value("nurse")
        assert idmgr.params.verify_open(token.commitment, x, r)
