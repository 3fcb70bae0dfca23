"""A complete OCBE exchange, sender and receiver back to back in-process.

The system runs the same three steps with a network between them
(:mod:`repro.wire.sessions`); the OCBE tests use this driver as the
protocol-level oracle.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.crypto.pedersen import PedersenCommitment
from repro.ocbe.base import OCBESetup, receiver_for, sender_for
from repro.ocbe.predicates import Predicate


def run_ocbe(
    setup: OCBESetup,
    predicate: Predicate,
    x: int,
    r: int,
    commitment: PedersenCommitment,
    message: bytes,
    rng: Optional[random.Random] = None,
) -> bytes:
    """Run one exchange and return the receiver's decrypted message.

    Raises :class:`~repro.errors.DecryptionError` when the receiver's
    committed value does not satisfy ``predicate`` -- which is exactly the
    protocol's guarantee.
    """
    sender = sender_for(setup, predicate, rng)
    receiver = receiver_for(setup, predicate, x, r, commitment, rng)
    aux = receiver.commitment_message()
    envelope = sender.compose(commitment, aux, message)
    return receiver.open(envelope)
