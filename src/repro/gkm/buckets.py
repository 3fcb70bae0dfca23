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
import struct
from dataclasses import dataclass
from typing import Callable, List, Tuple, TypeVar

from repro.errors import SerializationError
from repro.gkm.acv import AcvHeader

T = TypeVar("T")

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


@dataclass(frozen=True)
class BucketedHeader:
    """One :class:`AcvHeader` per bucket, all carrying the same key."""

    buckets: Tuple[AcvHeader, ...]

    def to_bytes(self) -> bytes:
        out = bytearray(BKT_MAGIC)
        out += struct.pack(">I", len(self.buckets))
        for header in self.buckets:
            raw = header.to_bytes()
            out += struct.pack(">I", len(raw))
            out += raw
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BucketedHeader":
        """Parse :meth:`to_bytes` output; canonical encodings only.

        Counts and lengths are attacker-controlled (this rides inside
        every bucketed broadcast): every declared size is checked against
        the actual payload *before* any allocation, inflated or duplicate
        or empty buckets are refused, and every failure is a typed
        :class:`SerializationError` -- never ``struct.error``.
        """
        return cls(buckets=tuple(_walk(data, AcvHeader.from_bytes)))

    @staticmethod
    def validate(data: bytes) -> None:
        """Every refusal :meth:`from_bytes` makes, without building a
        bucket: the same walk with :meth:`AcvHeader.validate` per bucket."""
        _walk(data, AcvHeader.validate)

    def byte_size(self) -> int:
        return len(self.to_bytes())


def _walk(data: bytes, bucket: Callable[[bytes], T]) -> List[T]:
    """The bucket list format, checked in one pass; ``bucket`` runs on
    each bucket's bytes in order and its results are returned.

    The ACV walk under ``bucket`` refuses non-canonical encodings, so
    the byte comparison here refuses every pair of equal buckets, and
    its nonce check refuses an empty bucket (capacity 0).
    """
    try:
        if data[:4] != BKT_MAGIC:
            raise SerializationError("bad magic")
        offset = 4
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if count == 0:
            raise SerializationError("empty bucket list")
        if count > MAX_BUCKETS:
            raise SerializationError(
                "bucket count %d exceeds the cap of %d" % (count, MAX_BUCKETS)
            )
        if count * 4 > len(data):
            raise SerializationError("bucket count exceeds payload")
        out: List[T] = []
        seen = set()
        for _ in range(count):
            (h_len,) = struct.unpack_from(">I", data, offset)
            offset += 4
            if offset + h_len > len(data):
                raise SerializationError("truncated bucket header")
            raw = data[offset : offset + h_len]
            if raw in seen:
                raise SerializationError("duplicate bucket header")
            seen.add(raw)
            out.append(bucket(raw))
            offset += h_len
        if offset != len(data):
            raise SerializationError("trailing bytes after bucket list")
        return out
    except (IndexError, struct.error) as exc:
        raise SerializationError("truncated bucketed header") from exc


def auto_bucket_size(row_count: int) -> int:
    """The no-configuration bucket-size policy: ``ceil(sqrt(m))`` rows per
    bucket, balancing the per-bucket cubic cost against header fan-out.
    :class:`~repro.gkm.strategy.BucketedGkmStrategy` applies it for a
    configured bucket size of ``0``."""
    return max(1, math.isqrt(max(row_count - 1, 0)) + 1)
