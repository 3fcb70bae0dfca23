"""Typed on-disk encodings for each entity's durable state.

Two families share one numeric type-id space (the record framing in
:mod:`repro.store.wal` carries the id):

* **snapshots** -- a full copy of one entity's long-lived secret state:
  the IdMgr's signing key, pseudonym counter and issued-token registry;
  the publisher's policy configuration, CSS table ``T`` and GKM epoch;
  a subscriber's token wallet (with private openings) and extracted
  CSSs.
* **WAL records** -- the individual state *transitions* journaled
  between snapshots: a token issued, a CSS installed in ``T``, a
  credential or subscription revoked, an epoch advanced, a token held or
  a CSS extracted on the subscriber side.

Every class mirrors the :mod:`repro.wire.messages` discipline: a stable
``TYPE_ID`` and its ``FIELDS`` in wire order, from which the record codec
(:mod:`repro.wire.codec`) derives an exact ``to_bytes``
(``byte_size() == len(to_bytes())``) and a bounds-checked
``from_payload`` that raises :class:`~repro.errors.SerializationError`
on any malformed input -- recovery must be as hostile-input-proof as the
sockets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Type

from repro.errors import SerializationError
from repro.gkm.strategy import GKM_STRATEGIES
from repro.groups.base import CyclicGroup
from repro.policy.acp import AccessControlPolicy
from repro.system.identity import IdentityToken
from repro.wire.codec import (
    BOOL,
    BYTES,
    SCALAR,
    STR,
    U16,
    U32,
    Record,
    fixed,
    member_of,
    seq,
    sorted_set,
    struct_of,
)
from repro.wire.messages import CONDITION, TOKEN

__all__ = [
    "StateRecord",
    "IdMgrSnapshot",
    "PublisherSnapshot",
    "SubscriberSnapshot",
    "TokenIssuedRecord",
    "CssInstalledRecord",
    "CredentialRevokedRecord",
    "SubscriptionRevokedRecord",
    "EpochAdvancedRecord",
    "TokenHeldRecord",
    "CssExtractedRecord",
    "GkmStrategyChangedRecord",
    "STORE_RECORD_TYPES",
    "decode_state",
]


class StateRecord(Record):
    """Base class: subclasses define ``TYPE_ID`` and their ``FIELDS`` in
    wire order (:mod:`repro.wire.codec`)."""

    TYPE_ID: int = -1

    @classmethod
    def from_payload(cls, payload: bytes, group: CyclicGroup) -> "StateRecord":
        return cls.from_bytes(payload, group)


POLICY = struct_of(
    AccessControlPolicy,
    (
        ("conditions", seq(CONDITION, U16)),
        ("objects", sorted_set(STR)),
        ("document", STR),
    ),
)
GKM = member_of(STR, GKM_STRATEGIES, "GKM strategy")
#: ``(key, secret)`` cells: a CSS-table row's, or a subscriber's cache.
CSS_CELLS = seq(fixed(STR, BYTES), U16)


# -- snapshots ---------------------------------------------------------------


@dataclass(frozen=True)
class IdMgrSnapshot(StateRecord):
    """The IdMgr's secret state: signing key, pseudonym counter, and the
    registry of issued tokens ``(nym, tag, decoy?)``."""

    group_name: str
    signing_key: int
    nym_counter: int
    issued: Tuple[Tuple[str, str, bool], ...]

    TYPE_ID = 1
    FIELDS = (
        ("group_name", STR),
        ("signing_key", SCALAR),
        ("nym_counter", U32),
        ("issued", seq(fixed(STR, STR, BOOL))),
    )


@dataclass(frozen=True)
class PublisherSnapshot(StateRecord):
    """The publisher's durable state: the policy configuration it was
    serving (recorded so recovery can refuse a drifted deployment), the
    CSS table ``T``, the GKM epoch (how many ACV rekeys this table has
    been broadcast under), and the publish-path GKM strategy + bucket
    layout, so a crash-recovered publisher rekeys with the exact
    configuration its subscribers were dispatched under.

    ``gkm_bucket_size`` 0 encodes "unset" (dense) or the bucketed auto
    ``ceil(sqrt(m))`` policy -- both mean "no fixed rows-per-bucket"."""

    name: str
    epoch: int
    policies: Tuple[AccessControlPolicy, ...]
    table: Tuple[Tuple[str, Tuple[Tuple[str, bytes], ...]], ...]
    gkm: str = "dense"
    gkm_bucket_size: int = 0

    TYPE_ID = 2
    FIELDS = (
        ("name", STR),
        ("epoch", U32),
        ("policies", seq(POLICY, U16)),
        ("table", seq(fixed(STR, CSS_CELLS))),
        ("gkm", GKM),
        ("gkm_bucket_size", U32),
    )


@dataclass(frozen=True)
class SubscriberSnapshot(StateRecord):
    """A subscriber's secret state: the token wallet *with private
    openings* ``(x, r)`` and the CSS cache extracted over past
    registrations.  This file is as sensitive as the wallet itself."""

    nym: str
    wallet: Tuple[Tuple[IdentityToken, int, int], ...]  # (token, x, r)
    css: Tuple[Tuple[str, bytes], ...]

    TYPE_ID = 3
    FIELDS = (
        ("nym", STR),
        ("wallet", seq(fixed(TOKEN, SCALAR, SCALAR), U16)),
        ("css", CSS_CELLS),
    )


# -- WAL records -------------------------------------------------------------


@dataclass(frozen=True)
class TokenIssuedRecord(StateRecord):
    """IdMgr: one token left the building (registry entry, not the token)."""

    nym: str
    tag: str
    decoy: bool

    TYPE_ID = 16
    FIELDS = (("nym", STR), ("tag", STR), ("decoy", BOOL))


@dataclass(frozen=True)
class CssInstalledRecord(StateRecord):
    """Publisher: a CSS was minted into table cell ``(nym, condition)``.

    Journaled *before* the registration ack leaves, so an acked
    registration is always recoverable (the write-ahead contract)."""

    nym: str
    condition_key: str
    css: bytes

    TYPE_ID = 17
    FIELDS = (("nym", STR), ("condition_key", STR), ("css", BYTES))


@dataclass(frozen=True)
class CredentialRevokedRecord(StateRecord):
    """Publisher: one CSS cell dropped (credential revocation)."""

    nym: str
    condition_key: str

    TYPE_ID = 18
    FIELDS = (("nym", STR), ("condition_key", STR))


@dataclass(frozen=True)
class SubscriptionRevokedRecord(StateRecord):
    """Publisher: a pseudonym's whole row dropped (subscription ends)."""

    nym: str

    TYPE_ID = 19
    FIELDS = (("nym", STR),)


@dataclass(frozen=True)
class EpochAdvancedRecord(StateRecord):
    """Publisher: one ACV rekey broadcast went out under this epoch."""

    epoch: int

    TYPE_ID = 20
    FIELDS = (("epoch", U32),)


@dataclass(frozen=True)
class TokenHeldRecord(StateRecord):
    """Subscriber: a token plus its private opening entered the wallet."""

    token: IdentityToken
    x: int
    r: int

    TYPE_ID = 21
    FIELDS = (("token", TOKEN), ("x", SCALAR), ("r", SCALAR))


@dataclass(frozen=True)
class CssExtractedRecord(StateRecord):
    """Subscriber: an OCBE transfer opened; the CSS is now held locally."""

    condition_key: str
    css: bytes

    TYPE_ID = 22
    FIELDS = (("condition_key", STR), ("css", BYTES))


@dataclass(frozen=True)
class GkmStrategyChangedRecord(StateRecord):
    """Publisher: the publish-path GKM strategy was switched at runtime.

    Journaled by :meth:`~repro.system.publisher.Publisher.set_gkm_strategy`
    so a switch survives a crash before the next compaction snapshot --
    recovery must rekey under the layout the subscribers last saw."""

    gkm: str
    gkm_bucket_size: int

    TYPE_ID = 23
    FIELDS = (("gkm", GKM), ("gkm_bucket_size", U32))


STORE_RECORD_TYPES: Dict[int, Type[StateRecord]] = {
    cls.TYPE_ID: cls
    for cls in (
        IdMgrSnapshot,
        PublisherSnapshot,
        SubscriberSnapshot,
        TokenIssuedRecord,
        CssInstalledRecord,
        CredentialRevokedRecord,
        SubscriptionRevokedRecord,
        EpochAdvancedRecord,
        TokenHeldRecord,
        CssExtractedRecord,
        GkmStrategyChangedRecord,
    )
}


def decode_state(type_id: int, payload: bytes, group: CyclicGroup) -> StateRecord:
    """Decode one store record payload back into its typed form."""
    cls = STORE_RECORD_TYPES.get(type_id)
    if cls is None:
        raise SerializationError("unknown store record type %d" % type_id)
    return cls.from_payload(payload, group)
