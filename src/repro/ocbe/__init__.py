"""Oblivious Commitment-Based Envelope (OCBE) protocols.

Implements the Li & Li OCBE family exactly as presented in Section IV-C of
the paper: a sender S can deliver a message to a receiver R such that

* R can decrypt **iff** R's Pedersen-committed value satisfies S's
  comparison predicate, and
* S learns nothing about the committed value -- not even whether delivery
  succeeded.

Natively implemented protocols:

* :class:`~repro.ocbe.eq.EqOCBE` for ``=`` predicates,
* :class:`~repro.ocbe.ge.GeOCBE` for ``>=`` (bitwise, parameter ``l``),
* :class:`~repro.ocbe.le.LeOCBE` for ``<=`` (mirror of GE),

and derived ones (Section IV-C: "other OCBE protocols ... can be built on
EQ-OCBE, GE-OCBE and LE-OCBE"):

* ``>`` via ``GE(x0+1)``, ``<`` via ``LE(x0-1)``,
* ``!=`` via a two-envelope GT-or-LT disjunction.

:func:`~repro.ocbe.base.sender_for` and :func:`~repro.ocbe.base.receiver_for`
pick the session classes for a predicate; the registration sessions
(:mod:`repro.wire.sessions`) put the network exchange between them.
"""

from repro.ocbe.base import OCBESetup, sender_for, receiver_for
from repro.ocbe.eq import EqOCBEReceiver, EqOCBESender, EqEnvelope
from repro.ocbe.ge import (
    BitCommitMessage,
    BitwiseEnvelope,
    GeOCBEReceiver,
    GeOCBESender,
)
from repro.ocbe.le import LeOCBEReceiver, LeOCBESender
from repro.ocbe.derived import (
    GtOCBEReceiver,
    GtOCBESender,
    LtOCBEReceiver,
    LtOCBESender,
    NeCommitMessage,
    NeEnvelope,
    NeOCBEReceiver,
    NeOCBESender,
)
from repro.ocbe.predicates import (
    EqPredicate,
    GePredicate,
    GtPredicate,
    LePredicate,
    LtPredicate,
    NePredicate,
    Predicate,
    predicate_from_op,
)

__all__ = [
    "OCBESetup",
    "sender_for",
    "receiver_for",
    "EqOCBESender",
    "EqOCBEReceiver",
    "EqEnvelope",
    "GeOCBESender",
    "GeOCBEReceiver",
    "BitCommitMessage",
    "BitwiseEnvelope",
    "LeOCBESender",
    "LeOCBEReceiver",
    "GtOCBESender",
    "GtOCBEReceiver",
    "LtOCBESender",
    "LtOCBEReceiver",
    "NeOCBESender",
    "NeOCBEReceiver",
    "NeCommitMessage",
    "NeEnvelope",
    "Predicate",
    "EqPredicate",
    "GePredicate",
    "LePredicate",
    "GtPredicate",
    "LtPredicate",
    "NePredicate",
    "predicate_from_op",
]
