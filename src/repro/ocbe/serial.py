"""Tagged serialization of OCBE protocol messages.

The registration wire messages (:mod:`repro.wire.messages`) carry "some
auxiliary commitment message" and "some envelope" without knowing which
OCBE variant produced them.  This module assigns each concrete class a
one-byte tag; the dispatch is two :func:`~repro.wire.codec.tagged`
tables:

=====  =======================  =====================================
tag    auxiliary message        envelope
=====  =======================  =====================================
0      ``None`` (EQ-OCBE)       --
1      ``BitCommitMessage``     ``BitwiseEnvelope`` (GE/LE/GT/LT)
2      ``NeCommitMessage``      ``NeEnvelope``
3      --                       ``EqEnvelope``
=====  =======================  =====================================

Decoding needs the commitment group (to validate element membership), so
both ``decode_*`` functions take the :class:`~repro.groups.base.CyclicGroup`
the system runs over.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.groups.base import CyclicGroup
from repro.ocbe.derived import NeCommitMessage, NeEnvelope
from repro.ocbe.eq import EqEnvelope
from repro.ocbe.ge import BitCommitMessage, BitwiseEnvelope
from repro.wire.codec import decode_value, tagged

__all__ = [
    "AuxMessage",
    "OcbeEnvelope",
    "AUX_MESSAGE",
    "OCBE_ENVELOPE",
    "encode_aux",
    "decode_aux",
    "encode_envelope",
    "decode_envelope",
]

#: Everything a receiver's first message can be.
AuxMessage = Optional[Union[BitCommitMessage, NeCommitMessage]]
#: Everything a sender's envelope can be.
OcbeEnvelope = Union[EqEnvelope, BitwiseEnvelope, NeEnvelope]

AUX_MESSAGE = tagged(
    {0: None, 1: BitCommitMessage, 2: NeCommitMessage}, "auxiliary message"
)
OCBE_ENVELOPE = tagged({1: BitwiseEnvelope, 2: NeEnvelope, 3: EqEnvelope}, "envelope")


def encode_aux(aux: AuxMessage) -> bytes:
    """Serialize a receiver commitment message (or its absence, for EQ)."""
    return AUX_MESSAGE.pack(aux)


def decode_aux(data: bytes, group: CyclicGroup) -> AuxMessage:
    """Inverse of :func:`encode_aux`."""
    return decode_value(AUX_MESSAGE, data, group)


def encode_envelope(envelope: OcbeEnvelope) -> bytes:
    """Serialize any OCBE envelope with its variant tag."""
    return OCBE_ENVELOPE.pack(envelope)


def decode_envelope(data: bytes, group: CyclicGroup) -> OcbeEnvelope:
    """Inverse of :func:`encode_envelope`."""
    return decode_value(OCBE_ENVELOPE, data, group)
