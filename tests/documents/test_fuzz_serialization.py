"""Fuzz the deserializers: random/mutated bytes must never crash with
anything other than SerializationError (robustness against malformed
broadcasts)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.documents.package import BroadcastPackage
from repro.errors import SerializationError
from repro.gkm.acv import FAST_FIELD, AcvBgkm, AcvHeader
from repro.gkm.buckets import BucketedHeader
from tests.gkm.baselines.marker import MarkerHeader


@given(st.binary(max_size=200))
def test_package_fuzz_random(data):
    try:
        BroadcastPackage.from_bytes(data)
    except SerializationError:
        pass


@given(st.binary(max_size=120))
def test_acv_header_fuzz_random(data):
    try:
        AcvHeader.from_bytes(data)
    except SerializationError:
        pass


@given(st.binary(max_size=120))
def test_bucketed_header_fuzz_random(data):
    try:
        BucketedHeader.from_bytes(data)
    except SerializationError:
        pass


@given(st.binary(max_size=120))
def test_marker_header_fuzz_random(data):
    try:
        MarkerHeader.from_bytes(data)
    except SerializationError:
        pass


class TestResourceExhaustion:
    """Regression tests: attacker-controlled counts must never allocate
    unbounded memory (originally found by the random fuzzers above as an
    OOM when a mutated header claimed a 2^32-entry zero run)."""

    def test_acv_huge_zero_run_rejected(self):
        rng = random.Random(0)
        gkm = AcvBgkm(FAST_FIELD)
        _, header = gkm.generate([(b"css",)], n_max=3, rng=rng)
        raw = bytearray(header.to_bytes())
        # Forge the X arity and a matching giant zero-run claim.
        import struct

        q_len = (FAST_FIELD.p.bit_length() + 7) // 8
        forged = raw[: 4 + 2 + q_len]  # magic + q_len + q
        forged += struct.pack(">IH", 0, 0)          # no nonces
        forged += struct.pack(">I", 0xFFFFFFFF)     # absurd X arity
        forged += b"\x00" + struct.pack(">I", 0xFFFFFFFF)  # giant zero run
        with pytest.raises(SerializationError):
            AcvHeader.from_bytes(bytes(forged))

    def test_marker_huge_count_rejected(self):
        import struct

        forged = b"MRK1" + struct.pack(">H", 0) + struct.pack(">I", 0xFFFFFFFF)
        with pytest.raises(SerializationError):
            MarkerHeader.from_bytes(forged)

    def test_bucketed_huge_count_rejected(self):
        import struct

        forged = b"BKT1" + struct.pack(">I", 0xFFFFFFFF)
        with pytest.raises(SerializationError):
            BucketedHeader.from_bytes(forged)


@settings(max_examples=40)
@given(position=st.integers(0, 10_000), delta=st.integers(1, 255))
def test_acv_header_fuzz_mutated(position, delta):
    """Bit-flip a *valid* header: parse must either fail cleanly or produce
    a structurally valid (if semantically wrong) header."""
    rng = random.Random(1)
    gkm = AcvBgkm(FAST_FIELD)
    _, header = gkm.generate([(b"css",)], n_max=3, rng=rng)
    raw = bytearray(header.to_bytes())
    raw[position % len(raw)] = (raw[position % len(raw)] + delta) % 256
    try:
        parsed = AcvHeader.from_bytes(bytes(raw))
    except SerializationError:
        return
    assert len(parsed.x) == parsed.capacity + 1 or parsed.capacity >= 0
