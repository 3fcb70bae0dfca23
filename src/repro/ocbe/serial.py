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

Decoding needs the commitment group (to validate element membership):
:func:`~repro.wire.codec.decode_value` takes the
:class:`~repro.groups.base.CyclicGroup` the system runs over.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.ocbe.derived import NeCommitMessage, NeEnvelope
from repro.ocbe.eq import EqEnvelope
from repro.ocbe.ge import BitCommitMessage, BitwiseEnvelope
from repro.wire.codec import tagged

__all__ = ["AuxMessage", "OcbeEnvelope", "AUX_MESSAGE", "OCBE_ENVELOPE"]

#: Everything a receiver's first message can be.
AuxMessage = Optional[Union[BitCommitMessage, NeCommitMessage]]
#: Everything a sender's envelope can be.
OcbeEnvelope = Union[EqEnvelope, BitwiseEnvelope, NeEnvelope]

AUX_MESSAGE = tagged(
    {0: None, 1: BitCommitMessage, 2: NeCommitMessage}, "auxiliary message"
)
OCBE_ENVELOPE = tagged({1: BitwiseEnvelope, 2: NeEnvelope, 3: EqEnvelope}, "envelope")

