"""The broadcast package: what the Pub actually transmits (Section V-C).

For every policy configuration the package carries a :class:`ConfigHeader`
with

* the ordered condition-key lists of the member policies (public -- the
  paper's ACPs are known to subscribers so they can pick "an access control
  policy acp_k it satisfies"), and
* the ACV-BGKM header ``(X, z_1..z_N)``; the empty configuration carries no
  header at all ("the Pub can just encrypt ... without the need of
  publishing X or z_i", Example 4).

plus each subdocument encrypted (authenticated) under its configuration's
key.  The whole package serializes to a single byte string; subscribers
need nothing else besides their CSSs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import SerializationError
from repro.gkm.strategy import KEYING_HEADER, KeyingHeader, decode_keying_header
from repro.wire.codec import (
    BYTES,
    STR,
    U16,
    Cursor,
    Field,
    Record,
    lazy,
    magic,
    seq,
    sized,
    struct_of,
)

__all__ = ["ConfigHeader", "EncryptedSubdocument", "BroadcastPackage"]


def _read_keying(cursor: Cursor, group) -> Optional[KeyingHeader]:
    raw = cursor.take(cursor.remaining())
    return decode_keying_header(raw) if raw else None


def _check_keying(cursor: Cursor, group) -> None:
    if cursor.remaining():
        KEYING_HEADER.check(cursor, group)


#: A configuration's keying header behind a ``u32`` length, dispatched on
#: its magic tag (dense and bucketed publishers interoperate); the empty
#: configuration's is empty, since it carries none.
KEYING = sized(Field(
    lambda acv: b"" if acv is None else acv.to_bytes(), _read_keying, _check_keying
))


def _distinct(items: Field, key: str, what: str) -> Field:
    """``items`` with no two alike in ``key``.  The publisher never
    repeats a configuration or a subdocument; a repeat would make a
    lookup by id (first wins) and a receiver keyed by id (last wins)
    disagree about which one a package carries."""

    def read(cursor, group) -> tuple:
        values = items.read(cursor, group)
        if len({getattr(value, key) for value in values}) != len(values):
            raise SerializationError("repeated %s" % what)
        return values

    return Field(items.pack, read)


@dataclass(frozen=True)
class ConfigHeader(Record):
    """Public keying material for one policy configuration.

    ``acv`` is either a dense :class:`~repro.gkm.acv.AcvHeader` or a
    :class:`~repro.gkm.buckets.BucketedHeader` (one ACV per row-order
    bucket, shared key), or ``None`` for the empty configuration.  A
    decoded header has its keying bytes validated at once and decoded on
    first access to ``acv`` (a :func:`~repro.wire.codec.lazy` field): a
    subscriber builds only the headers it derives from.
    """

    config_id: str
    policies: Tuple[Tuple[str, ...], ...]  # ordered condition keys per policy
    acv: Optional[KeyingHeader] = lazy(KEYING)

    FIELDS = (
        ("config_id", STR),
        ("policies", seq(seq(STR, U16), U16)),
        ("acv", acv),
    )


@dataclass(frozen=True)
class EncryptedSubdocument(Record):
    """One subdocument ciphertext, tagged with its configuration."""

    name: str
    config_id: str
    ciphertext: bytes

    FIELDS = (("name", STR), ("config_id", STR), ("ciphertext", BYTES))


@dataclass(frozen=True)
class BroadcastPackage(Record):
    """A complete encrypted document broadcast."""

    document: str
    headers: Tuple[ConfigHeader, ...]
    subdocuments: Tuple[EncryptedSubdocument, ...]

    FIELDS = (
        ((), magic(b"BPK1")),
        ("document", STR),
        ("headers", _distinct(
            seq(sized(struct_of(ConfigHeader)), U16), "config_id", "configuration id"
        )),
        ("subdocuments", _distinct(
            seq(struct_of(EncryptedSubdocument), U16), "name", "subdocument name"
        )),
    )

    def header_overhead(self) -> int:
        """Bytes spent on keying headers (the paper's bandwidth overhead)."""
        return sum(h.byte_size() for h in self.headers)
