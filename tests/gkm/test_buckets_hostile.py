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
from repro.gkm.acv import FAST_FIELD, PAPER_FIELD, AcvBgkm, AcvHeader
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
    empty = AcvHeader(q=FAST_FIELD.p, x=(1,), seed=bytes(20), capacity=0)
    with pytest.raises(SerializationError, match="nonce"):
        BucketedHeader.from_bytes(_wrap([empty.to_bytes()]))


def _acv_blob(header, runs, q_raw=None, tail=b""):
    """``header``'s wire bytes with X written as the given RLE ``runs``:
    ``("zero", n)`` or ``("literal", [values])``, canonical or not."""
    if q_raw is None:
        q_raw = header.q.to_bytes((header.q.bit_length() + 7) // 8, "big")
    out = bytearray(b"ACV1" + struct.pack(">H", len(q_raw)) + q_raw)
    out += struct.pack(">B", len(header.seed)) + header.seed
    out += struct.pack(">I", header.capacity)
    out += struct.pack(">I", sum(
        n if kind == "zero" else len(n) for kind, n in runs
    ))
    for kind, n in runs:
        if kind == "zero":
            out += b"\x00" + struct.pack(">I", n)
        else:
            out += b"\x01" + struct.pack(">H", len(n))
            out += b"".join(v.to_bytes(len(q_raw), "big") for v in n)
    return bytes(out + tail)


def _canonical_runs(x):
    """The runs :meth:`AcvHeader.to_bytes` writes for ``x``."""
    runs = []
    for value in x:
        if value == 0:
            if runs and runs[-1][0] == "zero":
                runs[-1] = ("zero", runs[-1][1] + 1)
            else:
                runs.append(("zero", 1))
        elif runs and runs[-1][0] == "literal" and len(runs[-1][1]) < 0xFFFF:
            runs[-1][1].append(value)
        else:
            runs.append(("literal", [value]))
    return runs


def test_canonical_blob_helper_matches_to_bytes():
    for bucket in HEADER.buckets:
        assert _acv_blob(bucket, _canonical_runs(bucket.x)) == bucket.to_bytes()


@pytest.mark.parametrize(
    "runs,reason",
    [
        ([("literal", [5]), ("zero", 0), ("literal", [7])], "empty zero run"),
        ([("literal", []), ("zero", 1), ("literal", [7])], "empty literal run"),
        ([("literal", [5]), ("zero", 1), ("zero", 1)], "two zero runs"),
        ([("literal", [5, 0, 7])], "zero inside a literal run"),
        ([("literal", [5]), ("literal", [7, 9])], "split in two"),
    ],
)
@pytest.mark.parametrize("field", [FAST_FIELD, PAPER_FIELD], ids=["fast", "paper"])
def test_non_canonical_runs_rejected(runs, reason, field):
    # Each decodes (at the parent) to the same X as some canonical
    # encoding; the literal check covers the one-call widths and the
    # per-element path (PAPER_FIELD's 10-byte elements) alike.
    header = AcvHeader(q=field.p, x=(), seed=bytes(range(20)), capacity=2)
    with pytest.raises(SerializationError, match=reason):
        AcvHeader.from_bytes(_acv_blob(header, runs))
    with pytest.raises(SerializationError, match=reason):
        AcvHeader.validate(_acv_blob(header, runs))


def test_modulus_with_a_leading_zero_and_trailing_bytes_rejected():
    bucket = HEADER.buckets[0]
    runs = _canonical_runs(bucket.x)
    q_raw = b"\x00" + bucket.q.to_bytes(4, "big")
    with pytest.raises(SerializationError, match="leading zero"):
        AcvHeader.from_bytes(_acv_blob(bucket, runs, q_raw=q_raw))
    with pytest.raises(SerializationError, match="trailing"):
        AcvHeader.from_bytes(_acv_blob(bucket, runs, tail=b"\x00"))


def test_full_literal_run_may_continue():
    # to_bytes splits a literal run at 0xFFFF elements: the continuation
    # is canonical and round-trips byte for byte.
    header = AcvHeader(
        q=FAST_FIELD.p, x=tuple(range(1, 0x10003)), seed=b"z" * 20, capacity=0x10001
    )
    raw = header.to_bytes()
    assert [kind for kind, _ in _canonical_runs(header.x)] == ["literal"] * 2
    assert AcvHeader.from_bytes(raw) == header
    assert AcvHeader.from_bytes(raw).to_bytes() == raw


def test_two_content_equal_buckets_rejected():
    # A second copy of a bucket with an empty zero run spliced in decoded
    # to an equal header under different bytes, so the duplicate check
    # (on bytes) let the pair through.  The walker now refuses the copy.
    bucket = HEADER.buckets[0]
    twin = _acv_blob(bucket, [("zero", 0)] + _canonical_runs(bucket.x))
    assert twin != bucket.to_bytes()
    with pytest.raises(SerializationError, match="empty zero run"):
        BucketedHeader.from_bytes(_wrap([bucket.to_bytes(), twin]))
    with pytest.raises(SerializationError, match="duplicate"):
        BucketedHeader.from_bytes(_wrap([bucket.to_bytes(), bucket.to_bytes()]))


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
