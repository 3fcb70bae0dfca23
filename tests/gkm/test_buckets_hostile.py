"""Hostile-input suite for ``BucketedHeader.from_bytes``.

The bucketed header now rides inside every bucketed broadcast package,
so its parser faces the same adversary as the wire codec: every declared
count/length is attacker-controlled and must be validated against the
actual payload *before* allocation, every malformed input must raise the
typed :class:`~repro.errors.SerializationError` -- never
``struct.error``/``IndexError`` -- and non-canonical encodings
(duplicate buckets, trailing bytes) are refused outright.
"""

import random
import struct

import pytest

from repro.errors import ReproError, SerializationError
from repro.gkm.acv import FAST_FIELD, AcvBgkm, AcvHeader
from repro.gkm.buckets import MAX_BUCKETS, BucketedHeader
from repro.gkm.strategy import AcvBuildCache, BucketedGkmStrategy


def _make_header(rows=9, bucket_size=4, seed=0x5EED):
    rng = random.Random(seed)
    scheme = BucketedGkmStrategy(
        AcvBgkm(FAST_FIELD), AcvBuildCache(), bucket_size=bucket_size
    )
    row_data = [
        (bytes(rng.randrange(256) for _ in range(8)),) for _ in range(rows)
    ]
    _, header = scheme.build(row_data, capacity=None, slack=0, rng=rng)
    return header


HEADER = _make_header()
RAW = HEADER.to_bytes()


def test_round_trip_is_canonical():
    assert BucketedHeader.from_bytes(RAW) == HEADER
    assert HEADER.byte_size() == len(RAW)


def test_every_truncation_is_typed():
    for cut in range(len(RAW)):
        with pytest.raises(SerializationError):
            BucketedHeader.from_bytes(RAW[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(SerializationError, match="trailing"):
        BucketedHeader.from_bytes(RAW + b"\x00")


def test_inflated_count_vs_payload():
    # Keep the real bucket bytes but claim one more bucket than present.
    mangled = RAW[:4] + struct.pack(">I", len(HEADER.buckets) + 1) + RAW[8:]
    with pytest.raises(SerializationError):
        BucketedHeader.from_bytes(mangled)


def test_deflated_count_leaves_trailing_bytes():
    mangled = RAW[:4] + struct.pack(">I", len(HEADER.buckets) - 1) + RAW[8:]
    with pytest.raises(SerializationError, match="trailing"):
        BucketedHeader.from_bytes(mangled)


def test_zero_buckets_rejected():
    with pytest.raises(SerializationError, match="empty bucket list"):
        BucketedHeader.from_bytes(b"BKT1" + struct.pack(">I", 0))


def test_absurd_count_rejected_before_allocation():
    # A ~4-billion declaration must fail on the cap/payload check, not
    # by allocating or looping billions of times.
    for count in (MAX_BUCKETS + 1, 0xFFFFFFFF):
        raw = b"BKT1" + struct.pack(">I", count) + b"\x00" * 64
        with pytest.raises(SerializationError):
            BucketedHeader.from_bytes(raw)


def test_inflated_bucket_length_rejected():
    # First bucket claims to extend past the end of the payload.
    out = bytearray(b"BKT1" + struct.pack(">I", 1))
    out += struct.pack(">I", 1 << 30)
    out += b"\x01" * 16
    with pytest.raises(SerializationError, match="truncated bucket"):
        BucketedHeader.from_bytes(bytes(out))


def _wrap(bucket_blobs):
    out = bytearray(b"BKT1" + struct.pack(">I", len(bucket_blobs)))
    for blob in bucket_blobs:
        out += struct.pack(">I", len(blob)) + blob
    return bytes(out)


def test_duplicate_buckets_rejected():
    blob = HEADER.buckets[0].to_bytes()
    with pytest.raises(SerializationError, match="duplicate"):
        BucketedHeader.from_bytes(_wrap([blob, blob]))


def test_empty_bucket_rejected():
    # An ACV header with zero nonces (capacity 0) can only be forged; a
    # real bucket always covers at least one column.  Since the hostile
    # header hardening it is refused one layer down, at ACV parse time.
    empty = AcvHeader(q=FAST_FIELD.p, x=(1,), zs=())
    with pytest.raises(SerializationError, match="nonce"):
        BucketedHeader.from_bytes(_wrap([empty.to_bytes()]))


def test_garbage_bucket_bytes_rejected():
    with pytest.raises(SerializationError):
        BucketedHeader.from_bytes(_wrap([b"not an acv header"]))


def test_bad_magic_rejected():
    with pytest.raises(SerializationError, match="magic"):
        BucketedHeader.from_bytes(b"XKT1" + RAW[4:])


def test_every_single_byte_flip_is_typed():
    """Flips either parse to a different header or raise a library error --
    never an uncaught struct.error/IndexError/MemoryError."""
    for i in range(len(RAW)):
        mangled = RAW[:i] + bytes([RAW[i] ^ 0xFF]) + RAW[i + 1 :]
        try:
            BucketedHeader.from_bytes(mangled)
        except ReproError:
            pass


def test_random_fuzz_is_typed():
    rng = random.Random(0xF022)
    for _ in range(300):
        blob = b"BKT1" + bytes(
            rng.randrange(256) for _ in range(rng.randrange(0, 64))
        )
        try:
            BucketedHeader.from_bytes(blob)
        except ReproError:
            pass
