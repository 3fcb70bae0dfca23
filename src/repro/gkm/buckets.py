"""Bucketized ACV-BGKM headers (the Section VIII-C scalability strategy).

Solving ``A Y = 0`` is cubic in the capacity ``N``, so for very large
subscriber populations the paper proposes splitting subscribers into
buckets of a manageable size, computing an independent ACV per bucket for
the *same* key ``K``, and broadcasting all bucket headers.  Subscribers
derive from the header of their bucket; bucket assignment can follow any
criterion (the paper mentions policies or physical locations -- here it is
simply row order, which is what the cost model depends on).

This module holds the wire form and the bucket-size policy; the build is
:class:`~repro.gkm.strategy.BucketedGkmStrategy`.  Generation across
buckets is embarrassingly parallel in the paper's C++ system; this
implementation keeps it sequential but the per-bucket cubic cost, which
the ablation benchmark measures, is the point being reproduced:  ``B``
buckets of size ``N/B`` cost ``B * (N/B)^3 = N^3/B^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.errors import SerializationError
from repro.gkm.acv import AcvHeader
from repro.wire.codec import Cursor, Field, Record, magic, pack_bytes, seq

__all__ = [
    "BucketedHeader",
    "MAX_BUCKETS",
    "auto_bucket_size",
]

#: The format tag every bucketed keying header starts with.
BKT_MAGIC = b"BKT1"

#: Hard cap on buckets per header.  Far above any sane layout (the auto
#: policy yields ~sqrt(m) buckets) but small enough that a forged count
#: can never drive parse loops or per-bucket allocations to absurdity.
MAX_BUCKETS = 65535


def _bucket_bytes(cursor: Cursor, group) -> bytes:
    length = cursor.read_u32()
    if length > cursor.remaining():
        raise SerializationError("truncated bucket header")
    return cursor.take(length)


def _bucket_list(bucket: Callable) -> Callable:
    """A reader of the bucket list that runs ``bucket(raw, group)`` on
    each bucket's bytes, in order.

    The ACV codec under ``bucket`` refuses non-canonical encodings, so
    comparing bytes refuses every pair of equal buckets, and its count
    check refuses an empty bucket (capacity 0).  Every bucket is solved
    under its own freshly drawn seed, so honest buckets never share one.
    """

    def read(cursor: Cursor, group) -> tuple:
        raws = _BUCKET_BYTES.read(cursor, group)
        if not raws:
            raise SerializationError("empty bucket list")
        if len(set(raws)) != len(raws):
            raise SerializationError("duplicate bucket header")
        return tuple([bucket(raw, group) for raw in raws])

    return read


#: Each bucket's bytes behind a ``u32`` length; a forged count is capped
#: before a single bucket is read.
_BUCKET_BYTES = seq(Field(pack_bytes, _bucket_bytes), bound=MAX_BUCKETS)
_BUCKETS = Field(
    lambda buckets: _BUCKET_BYTES.pack([header.to_bytes() for header in buckets]),
    _bucket_list(AcvHeader.from_bytes),
    _bucket_list(AcvHeader.validate),
)


@dataclass(frozen=True)
class BucketedHeader(Record):
    """One :class:`AcvHeader` per bucket, all carrying the same key.

    Counts and lengths are attacker-controlled (this rides inside every
    bucketed broadcast): every declared size is checked against the
    payload before anything is allocated, and an empty list, a duplicate
    bucket or a truncated one is refused.
    """

    buckets: Tuple[AcvHeader, ...]

    FIELDS = (((), magic(BKT_MAGIC)), ("buckets", _BUCKETS))


def auto_bucket_size(row_count: int) -> int:
    """The no-configuration bucket-size policy: ``ceil(sqrt(m))`` rows per
    bucket, balancing the per-bucket cubic cost against header fan-out.
    :class:`~repro.gkm.strategy.BucketedGkmStrategy` applies it for a
    configured bucket size of ``0``."""
    return max(1, math.isqrt(max(row_count - 1, 0)) + 1)
