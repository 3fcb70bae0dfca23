"""Round-trip tests for every typed wire message.

For each message: encode -> decode -> re-encode must be byte-identical,
and truncating or corrupting the frame must raise a :mod:`repro.errors`
type (never ``struct.error`` / ``IndexError`` / ``UnicodeDecodeError``).
"""

import pytest

from repro.documents.model import Document
from repro.errors import ReproError, SerializationError
from repro.ocbe.base import receiver_for, sender_for
from repro.policy.condition import parse_condition
from repro.wire.messages import (
    MESSAGE_TYPES,
    AuxCommitments,
    BroadcastMessage,
    ConditionList,
    ConditionQuery,
    OCBEEnvelope,
    RegistrationAck,
    RegistrationRequest,
    TokenGrant,
    TokenRequest,
    decode_message,
)


def _ocbe_exchange(pub, sub, condition_text):
    """Run one OCBE exchange in-process; returns (aux, envelope)."""
    condition = parse_condition(condition_text)
    wallet = sub.wallet_for(condition.name)
    predicate = condition.predicate(pub.params.attribute_bits)
    sender = sender_for(pub._ocbe, predicate, pub._rng)
    receiver = receiver_for(
        sub.ocbe_setup, predicate, wallet.x, wallet.r,
        wallet.token.commitment, sub.rng,
    )
    aux = receiver.commitment_message()
    envelope = sender.compose(wallet.token.commitment, aux, b"css-0123456789ab")
    return aux, envelope


def _sample_messages(wire_world):
    idp, idmgr, pub, sub = wire_world
    token = sub.wallet_for("role").token
    level_aux, level_env = _ocbe_exchange(pub, sub, "level >= 59")
    ne_aux, ne_env = _ocbe_exchange(pub, sub, "role != doc")
    eq_aux, eq_env = _ocbe_exchange(pub, sub, "role = doc")
    assertion = idp.assert_attribute("wendy", "level")
    decoy_token, dx, dr = idmgr.issue_decoy_token(sub.nym, "clearance")
    document = Document.of("doc", {"s1": b"alpha", "s2": b"beta", "s3": b"gamma"})
    package = pub.publish(document)
    return [
        ConditionQuery(attribute="level"),
        ConditionList(
            attribute="level",
            conditions=tuple(pub.conditions_for_attribute("level")),
        ),
        RegistrationRequest(nym=sub.nym, condition_key="role = doc", token=token),
        RegistrationAck(nym=sub.nym, condition_key="role = doc", ok=True),
        RegistrationAck(
            nym=sub.nym, condition_key="role = doc", ok=False, reason="bad token"
        ),
        AuxCommitments(nym=sub.nym, condition_key="level >= 59", aux=level_aux),
        AuxCommitments(nym=sub.nym, condition_key="role != doc", aux=ne_aux),
        AuxCommitments(nym=sub.nym, condition_key="role = doc", aux=eq_aux),
        OCBEEnvelope(nym=sub.nym, condition_key="level >= 59", envelope=level_env),
        OCBEEnvelope(nym=sub.nym, condition_key="role != doc", envelope=ne_env),
        OCBEEnvelope(nym=sub.nym, condition_key="role = doc", envelope=eq_env),
        TokenRequest(nym=sub.nym, attribute="level", assertion=assertion),
        TokenRequest(nym=sub.nym, attribute="clearance", assertion=None, decoy=True),
        TokenGrant(token=decoy_token, x=dx, r=dr),
        BroadcastMessage(package=package),
    ]


@pytest.fixture(scope="module")
def samples(wire_world):
    return _sample_messages(wire_world)


@pytest.fixture(scope="module")
def group(wire_world):
    return wire_world[2].params.pedersen.group


class TestRoundTrips:
    def test_every_message_type_is_sampled(self, samples):
        assert {type(m).TYPE_ID for m in samples} == set(MESSAGE_TYPES)

    def test_encode_decode_reencode_identical(self, samples, group):
        for message in samples:
            frame = message.encode()
            decoded = decode_message(frame, group)
            assert type(decoded) is type(message)
            assert decoded.encode() == frame, type(message).__name__

    def test_decoded_equals_original(self, samples, group):
        for message in samples:
            decoded = decode_message(message.encode(), group)
            assert decoded == message, type(message).__name__

    def test_kind_strings_unique(self):
        kinds = [cls.KIND for cls in MESSAGE_TYPES.values()]
        assert len(kinds) == len(set(kinds))


class TestRobustness:
    def test_unknown_type_id(self, group):
        from repro.wire.codec import encode_frame

        with pytest.raises(SerializationError):
            decode_message(encode_frame(200, b""), group)

    def test_every_truncation_raises_library_error(self, samples, group):
        # Cutting a frame anywhere must be detected, for every message type.
        for message in samples:
            frame = message.encode()
            step = max(1, len(frame) // 23)  # sample cut points, keep it fast
            for cut in list(range(0, len(frame), step)) + [len(frame) - 1]:
                with pytest.raises(ReproError):
                    decode_message(frame[:cut], group)

    def test_trailing_garbage_raises(self, samples, group):
        for message in samples:
            with pytest.raises(ReproError):
                decode_message(message.encode() + b"\x00", group)

    def test_corrupted_interior_never_raises_raw_errors(self, samples, group):
        # Flip bytes across each frame; decoding may succeed (e.g. flips in
        # ciphertext bodies) but must never raise a non-library error.
        for message in samples:
            frame = bytearray(message.encode())
            step = max(1, len(frame) // 17)
            for position in range(8, len(frame), step):
                corrupted = bytearray(frame)
                corrupted[position] ^= 0xFF
                try:
                    decode_message(bytes(corrupted), group)
                except ReproError:
                    pass  # detected -- the required behaviour
