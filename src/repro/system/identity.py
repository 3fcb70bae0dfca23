"""Identity tokens and attribute assertions.

An identity token (Section V-A) is ``IT = (nym, id-tag, c, sigma)``: a
pseudonym, an attribute tag, a Pedersen commitment to the attribute value
and the IdMgr's signature over the triple.  The value itself never appears
in the token -- that is the privacy core of the system.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.pedersen import PedersenCommitment
from repro.crypto.schnorr_sig import SchnorrSignature
from repro.errors import SerializationError
from repro.policy.encoding import AttributeValue
from repro.wire.codec import (
    SCALAR,
    STR,
    Cursor,
    Field,
    Record,
    pack_element,
    pack_fields,
    pack_scalar,
    pack_str,
    pack_u8,
    read_element,
    struct_of,
)

__all__ = [
    "AttributeAssertion",
    "IdentityToken",
    "token_signing_bytes",
    "ATTRIBUTE_VALUE",
]


def _pack_value(value: AttributeValue) -> bytes:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SerializationError("attribute value must be int or str")
    if isinstance(value, int):
        return pack_u8(0) + pack_u8(1 if value < 0 else 0) + pack_scalar(abs(value))
    return pack_u8(1) + pack_str(value)


def _read_value(cursor: Cursor, group) -> AttributeValue:
    tag = cursor.read_u8()
    if tag == 0:
        negative = cursor.read_bool()  # rejects non-canonical sign bytes
        magnitude = cursor.read_scalar()
        if negative and magnitude == 0:
            raise SerializationError("non-canonical negative zero")
        return -magnitude if negative else magnitude
    if tag == 1:
        return cursor.read_str()
    raise SerializationError("unknown attribute value tag %d" % tag)


#: An attribute value: tag 0 = signed int (sign byte, magnitude), tag 1 =
#: string.
ATTRIBUTE_VALUE = Field(_pack_value, _read_value)

#: Length-delimited signature scalars.  Only used where transcript sizes
#: are *not* privacy-relevant (IdP assertions travel on the trusted
#: Sub--IdMgr channel); identity tokens use the fixed-width group
#: encoding so registration transcripts have value-independent sizes.
SIGNATURE = struct_of(SchnorrSignature, (("e", SCALAR), ("s", SCALAR)))


def _pack_commitment_and_signature(pair) -> bytes:
    commitment, signature = pair
    width = commitment.value.group.scalar_byte_length()
    return pack_element(commitment.value) + signature.to_bytes(width)


def _read_commitment_and_signature(cursor: Cursor, group):
    commitment = PedersenCommitment(read_element(cursor, group))
    width = group.scalar_byte_length()
    return commitment, SchnorrSignature.from_bytes(cursor.take(2 * width), width)


#: A token's commitment, then its signature scalars at the *fixed* width
#: of the commitment's group, so every token for the same (nym, tag,
#: group) has the same size -- the registration transcript must not leak
#: through length variation.
COMMITMENT_AND_SIGNATURE = Field(
    _pack_commitment_and_signature, _read_commitment_and_signature
)


@dataclass(frozen=True)
class AttributeAssertion(Record):
    """An IdP's certified statement "subject's <name> is <value>".

    This models the driver's license of Example 1: the Sub shows it to the
    IdMgr, who checks the issuer signature and derives the committed value.
    """

    subject: str
    name: str
    value: AttributeValue
    issuer: str
    signature: SchnorrSignature

    FIELDS = (
        ("subject", STR),
        ("name", STR),
        ("value", ATTRIBUTE_VALUE),
        ("issuer", STR),
        ("signature", SIGNATURE),
    )

    def signing_bytes(self) -> bytes:
        """The bytes the issuer signs: a domain tag, then every declared
        field but the (last) signature, each length-prefixed or tagged, so
        neither a value's type nor a field boundary can move under it."""
        return b"repro/attribute-assertion" + pack_fields(self.FIELDS[:-1], self)


def token_signing_bytes(nym: str, tag: str, commitment: PedersenCommitment) -> bytes:
    """Canonical bytes the IdMgr signs for a token."""
    return (
        b"repro/identity-token" + pack_str(nym) + pack_str(tag) + commitment.to_bytes()
    )


@dataclass(frozen=True)
class IdentityToken(Record):
    """``(nym, id-tag, c, sigma)`` -- the Sub's registered identity."""

    nym: str
    tag: str
    commitment: PedersenCommitment
    signature: SchnorrSignature

    FIELDS = (
        ("nym", STR),
        ("tag", STR),
        (("commitment", "signature"), COMMITMENT_AND_SIGNATURE),
    )

    def signing_bytes(self) -> bytes:
        """The bytes the IdMgr's signature covers."""
        return token_signing_bytes(self.nym, self.tag, self.commitment)

    def __repr__(self) -> str:
        return "IdentityToken(nym=%r, tag=%r)" % (self.nym, self.tag)
