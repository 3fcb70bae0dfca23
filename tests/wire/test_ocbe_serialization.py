"""Serialization tests for the OCBE aux/envelope classes themselves."""

import pytest

from repro.errors import ProtocolStateError, ReproError
from repro.ocbe.base import receiver_for, sender_for
from repro.ocbe.predicates import (
    EqPredicate,
    GePredicate,
    LePredicate,
    NePredicate,
)
from repro.ocbe.serial import AUX_MESSAGE, OCBE_ENVELOPE
from repro.wire.codec import decode_value

MESSAGE = b"sixteen-byte-css"


def _run(setup, predicate, x, rng):
    commitment, r = setup.pedersen.commit(x, rng=rng)
    sender = sender_for(setup, predicate, rng)
    receiver = receiver_for(setup, predicate, x, r, commitment, rng)
    aux = receiver.commitment_message()
    envelope = sender.compose(commitment, aux, MESSAGE)
    return aux, envelope, receiver


@pytest.fixture(scope="module")
def exchanges(ec_setup):
    import random

    rng = random.Random(0xC0DEC)
    return {
        "eq": _run(ec_setup, EqPredicate(5), 5, rng),
        "ge": _run(ec_setup, GePredicate(10, 8), 12, rng),
        "le": _run(ec_setup, LePredicate(10, 8), 3, rng),
        "ne": _run(ec_setup, NePredicate(10, 8), 12, rng),
    }


class TestByteSizeIsExact:
    def test_aux_byte_size_equals_len_to_bytes(self, exchanges):
        for name, (aux, _, _) in exchanges.items():
            if aux is None:  # EQ has no first message
                continue
            assert aux.byte_size() == len(aux.to_bytes()), name

    def test_envelope_byte_size_equals_len_to_bytes(self, exchanges):
        for name, (_, envelope, _) in exchanges.items():
            assert envelope.byte_size() == len(envelope.to_bytes()), name


class TestClassRoundTrips:
    def test_aux_round_trip(self, exchanges, ec_setup):
        group = ec_setup.pedersen.group
        for name, (aux, _, _) in exchanges.items():
            if aux is None:
                continue
            decoded = type(aux).from_bytes(aux.to_bytes(), group)
            assert decoded == aux, name
            assert decoded.to_bytes() == aux.to_bytes(), name

    def test_envelope_round_trip(self, exchanges, ec_setup):
        group = ec_setup.pedersen.group
        for name, (_, envelope, _) in exchanges.items():
            decoded = type(envelope).from_bytes(envelope.to_bytes(), group)
            assert decoded == envelope, name
            assert decoded.to_bytes() == envelope.to_bytes(), name

    def test_decoded_envelope_still_opens(self, exchanges, ec_setup):
        """Deserialized envelopes are protocol-equivalent to the originals."""
        group = ec_setup.pedersen.group
        for name, (_, envelope, receiver) in exchanges.items():
            rewired = type(envelope).from_bytes(envelope.to_bytes(), group)
            assert receiver.open(rewired) == MESSAGE, name


class TestTaggedDispatch:
    def test_aux_dispatch_round_trip(self, exchanges, ec_setup):
        group = ec_setup.pedersen.group
        for name, (aux, _, _) in exchanges.items():
            blob = AUX_MESSAGE.pack(aux)
            decoded = decode_value(AUX_MESSAGE, blob, group)
            assert decoded == aux, name
            assert AUX_MESSAGE.pack(decoded) == blob, name

    def test_envelope_dispatch_round_trip(self, exchanges, ec_setup):
        group = ec_setup.pedersen.group
        for name, (_, envelope, _) in exchanges.items():
            blob = OCBE_ENVELOPE.pack(envelope)
            decoded = decode_value(OCBE_ENVELOPE, blob, group)
            assert decoded == envelope, name
            assert OCBE_ENVELOPE.pack(decoded) == blob, name

    def test_none_aux_round_trips(self, ec_setup):
        group = ec_setup.pedersen.group
        assert decode_value(AUX_MESSAGE, AUX_MESSAGE.pack(None), group) is None

    def test_unknown_tags_rejected(self, ec_setup):
        from repro.errors import SerializationError

        group = ec_setup.pedersen.group
        with pytest.raises(SerializationError):
            decode_value(AUX_MESSAGE, b"\x09", group)
        with pytest.raises(SerializationError):
            decode_value(OCBE_ENVELOPE, b"\x09", group)


class TestRobustness:
    def test_truncations_raise_library_errors(self, exchanges, ec_setup):
        group = ec_setup.pedersen.group
        for name, (aux, envelope, _) in exchanges.items():
            blobs = [OCBE_ENVELOPE.pack(envelope)]
            if aux is not None:
                blobs.append(AUX_MESSAGE.pack(aux))
            for blob in blobs:
                step = max(1, len(blob) // 19)
                for cut in range(0, len(blob), step):
                    with pytest.raises(ReproError):
                        decode_value(OCBE_ENVELOPE, blob[:cut], group) if blob is blobs[
                            0
                        ] else decode_value(AUX_MESSAGE, blob[:cut], group)

    def test_corrupted_elements_raise_library_errors(self, exchanges, ec_setup):
        """Bit-flips inside group-element encodings must surface as library
        errors (membership validation), never raw ValueErrors."""
        group = ec_setup.pedersen.group
        _, envelope, _ = exchanges["ge"]
        blob = bytearray(OCBE_ENVELOPE.pack(envelope))
        for position in range(1, 40):
            corrupted = bytearray(blob)
            corrupted[position] ^= 0xFF
            try:
                decode_value(OCBE_ENVELOPE, bytes(corrupted), group)
            except ReproError:
                pass


class TestReceiversCheckTheirVariant:
    def test_open_refuses_another_variants_envelope(self, exchanges):
        for _, own, receiver in exchanges.values():
            for _, envelope, _ in exchanges.values():
                if type(envelope) is not type(own):
                    with pytest.raises(ProtocolStateError):
                        receiver.open(envelope)

    def test_mismatched_envelope_records_a_failure_reason(self, exchanges):
        """Every wrong-variant envelope fails its session with a reason,
        never as "the value does not satisfy the condition"."""
        from repro.wire.messages import OCBEEnvelope, RegistrationAck
        from repro.wire.sessions import SubscriberRegistrationSession
        from tests.wire.conftest import build_wire_world

        _, _, pub, sub = build_wire_world()
        envelopes = {type(e): e for _, e, _ in exchanges.values()}
        conditions = {
            c.key(): c
            for c in pub.conditions_for_attribute("role")
            + pub.conditions_for_attribute("level")
        }
        owns = {"role = doc": "eq", "level >= 59": "ge", "role != doc": "ne"}
        mismatched = 0
        for key, own in owns.items():
            for cls, envelope in envelopes.items():
                if cls is type(exchanges[own][1]):
                    continue
                session = SubscriberRegistrationSession(sub, conditions[key])
                session.start()
                session.handle(
                    RegistrationAck(nym=sub.nym, condition_key=key, ok=True).encode()
                )
                session.handle(
                    OCBEEnvelope(
                        nym=sub.nym, condition_key=key, envelope=envelope
                    ).encode()
                )
                assert session.done and session.succeeded is False, (key, cls)
                assert "malformed envelope" in session.failure_reason, (key, cls)
                mismatched += 1
        assert mismatched == 3 * 2
