"""EQ-OCBE: oblivious envelopes for equality predicates (Section IV-C).

Protocol (after the trusted party gave R the opening ``(x, r)`` of
``c = g^x h^r`` and S the commitment ``c``):

* S picks ``y`` uniformly from ``F_p^*``, computes ``sigma = (c g^{-x0})^y``
  and ``eta = h^y``, and sends ``(eta, C = E_{H(sigma)}[M])``.
* R computes ``sigma' = eta^r`` and decrypts with ``H(sigma')``.

If ``x == x0`` then ``c g^{-x0} = h^r``, hence ``sigma = h^{r y} = eta^r``
and R recovers M; otherwise ``sigma`` is a CDH-hidden random element and R
learns nothing.  S never learns which case occurred.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.crypto.pedersen import PedersenCommitment
from repro.crypto.symmetric import NONCE_LEN
from repro.errors import ProtocolStateError
from repro.groups.base import GroupElement
from repro.ocbe.base import OCBESetup
from repro.ocbe.predicates import EqPredicate
from repro.wire.codec import BYTES, ELEMENT, Record

__all__ = ["EqEnvelope", "EqOCBESender", "EqOCBEReceiver"]


@dataclass(frozen=True)
class EqEnvelope(Record):
    """The pair ``(eta, C)`` sent by an EQ-OCBE sender."""

    eta: GroupElement
    ciphertext: bytes

    FIELDS = (("eta", ELEMENT), ("ciphertext", BYTES))


class EqOCBESender:
    """Sender (the Pub in the paper's registration phase)."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate: EqPredicate,
        rng: Optional[random.Random] = None,
    ):
        self.setup = setup
        self.predicate = predicate
        self._rng = rng

    def draw_randomness(self):
        """Draw this envelope's random choices from the sender's RNG.

        Splitting the draw from the (deterministic) arithmetic lets the
        registration path consume the RNG in delivery order whatever
        later happens to the arithmetic (batching, multi-scalar
        multiplication), so a seeded transcript replays byte for byte.
        The cipher nonce is part of the draw for the same reason:
        ``compose_with`` must be a pure function of ``drawn``.
        """
        y = self.setup.random_scalar(self._rng)
        nonce = self.setup.random_bytes(NONCE_LEN, self._rng)
        return (y, nonce)

    def compose(
        self,
        commitment: PedersenCommitment,
        aux: None,
        message: bytes,
    ) -> EqEnvelope:
        """Build the envelope for ``commitment`` (``aux`` unused for EQ)."""
        return self.compose_with(commitment, aux, message, self.draw_randomness())

    def compose_with(
        self,
        commitment: PedersenCommitment,
        aux: None,
        message: bytes,
        drawn,
    ) -> EqEnvelope:
        """Deterministic envelope build from pre-drawn randomness."""
        if aux is not None:
            raise ProtocolStateError("EQ-OCBE takes no auxiliary commitments")
        params = self.setup.pedersen
        y, nonce = drawn
        base = commitment.value * params.pow_g(-self.predicate.x0 % params.order)
        sigma = base ** y
        eta = params.pow_h(y)
        key = self.setup.envelope_key(sigma.to_bytes())
        return EqEnvelope(
            eta=eta, ciphertext=self.setup.cipher.encrypt(key, message, nonce=nonce)
        )


class EqOCBEReceiver:
    """Receiver (the Sub); holds the opening ``(x, r)``."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate: EqPredicate,
        x: int,
        r: int,
        commitment: PedersenCommitment,
        rng: Optional[random.Random] = None,
    ):
        self.setup = setup
        self.predicate = predicate
        self.x = x % setup.pedersen.order
        self.r = r % setup.pedersen.order
        self.commitment = commitment

    def commitment_message(self) -> None:
        """EQ-OCBE needs no extra commitments (returns ``None``)."""
        return None

    def open(self, envelope: EqEnvelope) -> bytes:
        """Derive ``sigma' = eta^r`` and decrypt.

        Raises :class:`~repro.errors.DecryptionError` when the committed
        value does not equal the predicate threshold, and
        :class:`~repro.errors.ProtocolStateError` on another variant's
        envelope.
        """
        if not isinstance(envelope, EqEnvelope):
            raise ProtocolStateError("EQ-OCBE expects an EqEnvelope")
        sigma = envelope.eta ** self.r
        key = self.setup.envelope_key(sigma.to_bytes())
        return self.setup.cipher.decrypt(key, envelope.ciphertext)
