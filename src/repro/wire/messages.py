"""Typed, versioned wire messages for the whole dissemination protocol.

Every inter-entity interaction in the system is one of the frozen message
classes below, each with a stable numeric ``TYPE_ID``, a transport
accounting ``KIND`` string, and an exact byte encoding.
:meth:`WireMessage.encode` wraps a message in the versioned frame from
:mod:`repro.wire.codec`; :func:`decode_message` is its inverse (it needs the commitment group to
validate embedded group elements).

Message flow (also in ``DESIGN.md``)::

    Sub -> IdMgr   TokenRequest        (assertion, or decoy flag)
    IdMgr -> Sub   TokenGrant          (token + private opening (x, r))
    Sub -> Pub     ConditionQuery      (attribute name)
    Pub -> Sub     ConditionList       (matching policy conditions)
    Sub -> Pub     RegistrationRequest (token + condition key)
    Pub -> Sub     RegistrationAck     (token verified, CSS minted)
    Sub -> Pub     AuxCommitments      (OCBE receiver commitments)
    Pub -> Sub     OCBEEnvelope        (OCBE sender envelope)
    Pub -> *       BroadcastMessage    (the encrypted document package)

All of a registration's per-condition messages carry ``(nym,
condition_key)`` so the publisher can interleave any number of concurrent
registrations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from repro.documents.package import BroadcastPackage
from repro.errors import SerializationError
from repro.groups.base import CyclicGroup
from repro.ocbe.serial import AUX_MESSAGE, OCBE_ENVELOPE, AuxMessage, OcbeEnvelope
from repro.policy.condition import AttributeCondition
from repro.system.identity import ATTRIBUTE_VALUE, AttributeAssertion, IdentityToken
from repro.wire.codec import (
    BOOL,
    DEFAULT_MAX_FRAME_PAYLOAD,
    SCALAR,
    STR,
    U16,
    decode_fields,
    decode_frame,
    encode_frame,
    optional,
    pack_fields,
    seq,
    sized,
    struct_of,
)

__all__ = [
    "WireMessage",
    "ConditionQuery",
    "ConditionList",
    "RegistrationRequest",
    "RegistrationAck",
    "AuxCommitments",
    "OCBEEnvelope",
    "TokenRequest",
    "TokenGrant",
    "BroadcastMessage",
    "decode_message",
    "MESSAGE_TYPES",
]


CONDITION = struct_of(
    AttributeCondition, (("name", STR), ("op", STR), ("value", ATTRIBUTE_VALUE))
)
#: Values that travel length-prefixed, each a record of its own.
TOKEN = sized(struct_of(IdentityToken))
ASSERTION = sized(struct_of(AttributeAssertion))
AUX = sized(AUX_MESSAGE)
ENVELOPE = sized(OCBE_ENVELOPE)
#: A broadcast package fills the whole payload, unprefixed.
PACKAGE = struct_of(BroadcastPackage)


class WireMessage:
    """Base class: subclasses define ``TYPE_ID``, ``KIND`` and their
    ``FIELDS`` in wire order (:mod:`repro.wire.codec`)."""

    TYPE_ID: int = -1
    KIND: str = "?"
    FIELDS: tuple = ()

    def payload_bytes(self) -> bytes:
        return pack_fields(self.FIELDS, self)

    @classmethod
    def from_payload(cls, payload: bytes, group: CyclicGroup) -> "WireMessage":
        return decode_fields(cls.FIELDS, payload, group, cls)

    def encode(self, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD) -> bytes:
        """The complete frame for this message.

        The default frame-size cap (16 MiB) bounds what any peer can be
        made to buffer.  The endpoint/session layer always uses this
        default, so in practice a single message cannot exceed it --
        documents larger than the cap must be segmented
        (:mod:`repro.documents.segmentation`), which is also what the
        ACP model wants.  The parameter exists for direct codec users
        (tools, tests) working with raw frames.
        """
        return encode_frame(self.TYPE_ID, self.payload_bytes(), max_payload)


@dataclass(frozen=True)
class ConditionQuery(WireMessage):
    """Sub -> Pub: which conditions mention this attribute?"""

    attribute: str

    TYPE_ID = 1
    KIND = "condition-query"
    FIELDS = (("attribute", STR),)


@dataclass(frozen=True)
class ConditionList(WireMessage):
    """Pub -> Sub: the (public) conditions for a queried attribute."""

    attribute: str
    conditions: Tuple[AttributeCondition, ...]

    TYPE_ID = 2
    KIND = "condition-list"
    FIELDS = (("attribute", STR), ("conditions", seq(CONDITION, U16)))


@dataclass(frozen=True)
class RegistrationRequest(WireMessage):
    """Sub -> Pub: register ``token`` for the condition named by its key."""

    nym: str
    condition_key: str
    token: IdentityToken

    TYPE_ID = 3
    KIND = "token+condition-request"
    FIELDS = (("nym", STR), ("condition_key", STR), ("token", TOKEN))


@dataclass(frozen=True)
class RegistrationAck(WireMessage):
    """Pub -> Sub: request outcome.  ``ok`` means the token verified and a
    CSS was minted; it never reveals whether the OCBE transfer will open."""

    nym: str
    condition_key: str
    ok: bool
    reason: str = ""

    TYPE_ID = 4
    KIND = "registration-ack"
    FIELDS = (
        ("nym", STR),
        ("condition_key", STR),
        ("ok", BOOL),
        ("reason", STR),
    )


@dataclass(frozen=True)
class AuxCommitments(WireMessage):
    """Sub -> Pub: the OCBE receiver's auxiliary commitments (``None``
    payload for EQ-OCBE, which needs no first message)."""

    nym: str
    condition_key: str
    aux: AuxMessage

    TYPE_ID = 5
    KIND = "ocbe-bit-commitments"
    FIELDS = (("nym", STR), ("condition_key", STR), ("aux", AUX))


@dataclass(frozen=True)
class OCBEEnvelope(WireMessage):
    """Pub -> Sub: the OCBE sender's envelope carrying the encrypted CSS."""

    nym: str
    condition_key: str
    envelope: OcbeEnvelope

    TYPE_ID = 6
    KIND = "ocbe-envelope"
    FIELDS = (("nym", STR), ("condition_key", STR), ("envelope", ENVELOPE))


@dataclass(frozen=True)
class TokenRequest(WireMessage):
    """Sub -> IdMgr: issue a token for an asserted (or decoy) attribute."""

    nym: str
    attribute: str
    assertion: Optional[AttributeAssertion]  # None for decoy requests
    decoy: bool = False

    TYPE_ID = 7
    KIND = "token-request"
    FIELDS = (
        ("nym", STR),
        ("attribute", STR),
        ("decoy", BOOL),
        ("assertion", optional(ASSERTION)),
    )


@dataclass(frozen=True)
class TokenGrant(WireMessage):
    """IdMgr -> Sub (private channel): the token and its opening."""

    token: IdentityToken
    x: int
    r: int

    TYPE_ID = 8
    KIND = "token-grant"
    FIELDS = (("token", TOKEN), ("x", SCALAR), ("r", SCALAR))


@dataclass(frozen=True)
class BroadcastMessage(WireMessage):
    """Pub -> everyone: one encrypted document broadcast."""

    package: BroadcastPackage

    TYPE_ID = 9
    KIND = "broadcast-package"
    FIELDS = (("package", PACKAGE),)


MESSAGE_TYPES: Dict[int, Type[WireMessage]] = {
    cls.TYPE_ID: cls
    for cls in (
        ConditionQuery,
        ConditionList,
        RegistrationRequest,
        RegistrationAck,
        AuxCommitments,
        OCBEEnvelope,
        TokenRequest,
        TokenGrant,
        BroadcastMessage,
    )
}


def decode_message(
    data: bytes, group: CyclicGroup, max_payload: int = DEFAULT_MAX_FRAME_PAYLOAD
) -> WireMessage:
    """Parse one frame back into its typed message.

    ``max_payload`` mirrors :meth:`WireMessage.encode` (and its caveat:
    the endpoint layer always decodes at the default cap).
    """
    type_id, payload = decode_frame(data, max_payload)
    cls = MESSAGE_TYPES.get(type_id)
    if cls is None:
        raise SerializationError("unknown message type %d" % type_id)
    return cls.from_payload(payload, group)
