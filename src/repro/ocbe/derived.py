"""Derived OCBE protocols: ``>``, ``<`` and ``!=`` (Section IV-C).

* ``GT_{x0}`` is ``GE_{x0+1}`` and ``LT_{x0}`` is ``LE_{x0-1}`` on the
  integer domain ``V``.
* ``NE_{x0}`` is an oblivious disjunction: the sender transmits the *same*
  message in a GT envelope and an LT envelope; a receiver with ``x > x0``
  opens the first, with ``x < x0`` the second, and with ``x == x0`` neither.
  The sender still learns nothing (both sub-protocols are oblivious and are
  always executed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.pedersen import PedersenCommitment
from repro.errors import (
    DecryptionError,
    PredicateError,
    ProtocolStateError,
    SerializationError,
)
from repro.ocbe.base import OCBESetup
from repro.ocbe.ge import BitCommitMessage, BitwiseEnvelope, GeOCBEReceiver, GeOCBESender
from repro.ocbe.le import LeOCBEReceiver, LeOCBESender
from repro.ocbe.predicates import (
    GtPredicate,
    LtPredicate,
    NePredicate,
)
from repro.wire.codec import Cursor, Field, Record, pack_u8, struct_of

__all__ = [
    "GtOCBESender",
    "GtOCBEReceiver",
    "LtOCBESender",
    "LtOCBEReceiver",
    "NeCommitMessage",
    "NeEnvelope",
    "NeOCBESender",
    "NeOCBEReceiver",
]


def _halves(item) -> Field:
    """The two optional halves of a disjunction behind one flags byte
    (bit 0: the ``>`` half, bit 1: the ``<`` half), live halves in order."""

    def pack(halves) -> bytes:
        gt_part, lt_part = halves
        flags = (gt_part is not None) | (lt_part is not None) << 1
        return pack_u8(flags) + b"".join(
            [item.pack(part) for part in halves if part is not None]
        )

    def read(cursor: Cursor, group):
        flags = cursor.read_u8()
        if flags > 3:
            raise SerializationError("invalid disjunction flags byte %#x" % flags)
        return tuple(
            [item.read(cursor, group) if flags & bit else None for bit in (1, 2)]
        )

    return Field(pack, read)


class GtOCBESender(GeOCBESender):
    """``>`` sender: GE-OCBE at threshold ``x0 + 1``."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate: GtPredicate,
        rng: Optional[random.Random] = None,
    ):
        if not isinstance(predicate, GtPredicate):
            raise PredicateError("GtOCBESender requires a GtPredicate")
        super().__init__(setup, predicate.as_ge(), rng)


class GtOCBEReceiver(GeOCBEReceiver):
    """``>`` receiver: GE-OCBE at threshold ``x0 + 1``."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate: GtPredicate,
        x: int,
        r: int,
        commitment: PedersenCommitment,
        rng: Optional[random.Random] = None,
    ):
        if not isinstance(predicate, GtPredicate):
            raise PredicateError("GtOCBEReceiver requires a GtPredicate")
        super().__init__(setup, predicate.as_ge(), x, r, commitment, rng)


class LtOCBESender(LeOCBESender):
    """``<`` sender: LE-OCBE at threshold ``x0 - 1``."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate: LtPredicate,
        rng: Optional[random.Random] = None,
    ):
        if not isinstance(predicate, LtPredicate):
            raise PredicateError("LtOCBESender requires a LtPredicate")
        super().__init__(setup, predicate.as_le(), rng)


class LtOCBEReceiver(LeOCBEReceiver):
    """``<`` receiver: LE-OCBE at threshold ``x0 - 1``."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate: LtPredicate,
        x: int,
        r: int,
        commitment: PedersenCommitment,
        rng: Optional[random.Random] = None,
    ):
        if not isinstance(predicate, LtPredicate):
            raise PredicateError("LtOCBEReceiver requires a LtPredicate")
        super().__init__(setup, predicate.as_le(), x, r, commitment, rng)


@dataclass(frozen=True)
class NeEnvelope(Record):
    """Both halves of the ``!=`` disjunction.

    At a domain boundary one half is unsatisfiable by *every* value (e.g.
    ``< 0`` when ``x0 = 0``) and is omitted -- the threshold is public, so
    skipping it reveals nothing about the receiver's value.
    """

    gt_envelope: Optional[BitwiseEnvelope]
    lt_envelope: Optional[BitwiseEnvelope]

    FIELDS = (
        (
            ("gt_envelope", "lt_envelope"),
            _halves(struct_of(BitwiseEnvelope)),
        ),
    )


@dataclass(frozen=True)
class NeCommitMessage(Record):
    """Receiver commitments for the live halves of the disjunction."""

    gt_message: Optional[BitCommitMessage]
    lt_message: Optional[BitCommitMessage]

    FIELDS = (
        (
            ("gt_message", "lt_message"),
            _halves(struct_of(BitCommitMessage)),
        ),
    )


def _ne_halves(predicate: NePredicate) -> Tuple[bool, bool]:
    """Which halves of the disjunction are satisfiable in V."""
    has_gt = predicate.x0 + 1 < (1 << predicate.ell)
    has_lt = predicate.x0 > 0
    return has_gt, has_lt


class NeOCBESender:
    """``!=`` sender: same message in a GT and an LT envelope."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate: NePredicate,
        rng: Optional[random.Random] = None,
    ):
        if not isinstance(predicate, NePredicate):
            raise PredicateError("NeOCBESender requires a NePredicate")
        self.predicate = predicate
        has_gt, has_lt = _ne_halves(predicate)
        self._gt = (
            GtOCBESender(setup, GtPredicate(predicate.x0, predicate.ell), rng)
            if has_gt
            else None
        )
        self._lt = (
            LtOCBESender(setup, LtPredicate(predicate.x0, predicate.ell), rng)
            if has_lt
            else None
        )

    def draw_randomness(self):
        """Draw both halves' randomness, GT half first."""
        return (
            self._gt.draw_randomness() if self._gt is not None else None,
            self._lt.draw_randomness() if self._lt is not None else None,
        )

    def compose(
        self,
        commitment: PedersenCommitment,
        aux: NeCommitMessage,
        message: bytes,
    ) -> NeEnvelope:
        """Build the envelopes for every live half (always all of them, to
        stay oblivious)."""
        return self.compose_with(commitment, aux, message, self.draw_randomness())

    def compose_with(
        self,
        commitment: PedersenCommitment,
        aux: NeCommitMessage,
        message: bytes,
        drawn,
    ) -> NeEnvelope:
        """Deterministic disjunction build from pre-drawn randomness."""
        if not isinstance(aux, NeCommitMessage):
            raise ProtocolStateError("NE-OCBE expects a NeCommitMessage")
        gt_drawn, lt_drawn = drawn
        return NeEnvelope(
            gt_envelope=(
                self._gt.compose_with(commitment, aux.gt_message, message, gt_drawn)
                if self._gt is not None
                else None
            ),
            lt_envelope=(
                self._lt.compose_with(commitment, aux.lt_message, message, lt_drawn)
                if self._lt is not None
                else None
            ),
        )


class NeOCBEReceiver:
    """``!=`` receiver: opens whichever half its value satisfies."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate: NePredicate,
        x: int,
        r: int,
        commitment: PedersenCommitment,
        rng: Optional[random.Random] = None,
    ):
        if not isinstance(predicate, NePredicate):
            raise PredicateError("NeOCBEReceiver requires a NePredicate")
        self.predicate = predicate
        has_gt, has_lt = _ne_halves(predicate)
        self._gt = (
            GtOCBEReceiver(
                setup, GtPredicate(predicate.x0, predicate.ell), x, r, commitment, rng
            )
            if has_gt
            else None
        )
        self._lt = (
            LtOCBEReceiver(
                setup, LtPredicate(predicate.x0, predicate.ell), x, r, commitment, rng
            )
            if has_lt
            else None
        )

    def commitment_message(self) -> NeCommitMessage:
        """Commitments for the live halves (run regardless of the value)."""
        return NeCommitMessage(
            gt_message=(
                self._gt.commitment_message() if self._gt is not None else None
            ),
            lt_message=(
                self._lt.commitment_message() if self._lt is not None else None
            ),
        )

    def open(self, envelope: NeEnvelope) -> bytes:
        """Try every live half; succeed iff ``x != x0``."""
        if not isinstance(envelope, NeEnvelope):
            raise ProtocolStateError("NE-OCBE expects a NeEnvelope")
        if self._gt is not None and envelope.gt_envelope is not None:
            try:
                return self._gt.open(envelope.gt_envelope)
            except DecryptionError:
                pass
        if self._lt is not None and envelope.lt_envelope is not None:
            return self._lt.open(envelope.lt_envelope)
        raise DecryptionError("no disjunction half opened")
