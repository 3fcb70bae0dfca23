"""Shared OCBE infrastructure: setup and sender/receiver dispatch.

An OCBE run involves three messages (after the trusted party distributed
the commitment): the receiver's (optional) auxiliary commitments, the
sender's envelope, and the receiver's local opening.  The sender/receiver
session classes in :mod:`repro.ocbe.eq` / :mod:`repro.ocbe.ge` /
:mod:`repro.ocbe.le` model those steps explicitly so the system layer can
put a real network between them (:mod:`repro.wire.sessions`).
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.hashes import HashFunction, default_hash
from repro.crypto.kdf import derive_key
from repro.crypto.pedersen import PedersenCommitment, PedersenParams
from repro.crypto.symmetric import SymmetricCipher, default_cipher
from repro.errors import InvalidParameterError, PredicateError
from repro.ocbe.predicates import (
    EqPredicate,
    GePredicate,
    GtPredicate,
    LePredicate,
    LtPredicate,
    NePredicate,
    Predicate,
)

__all__ = ["OCBESetup", "sender_for", "receiver_for"]


@dataclass(frozen=True)
class OCBESetup:
    """Public parameters shared by every OCBE session.

    ``pedersen`` are the trusted party's commitment parameters; ``key_len``
    is the paper's ``l'/8`` -- the symmetric key length in bytes used for
    the envelope body.
    """

    pedersen: PedersenParams
    hash_fn: HashFunction = field(default_factory=default_hash)
    cipher: SymmetricCipher = field(default_factory=default_cipher)
    key_len: int = 16

    def __post_init__(self) -> None:
        if self.key_len < 8:
            raise InvalidParameterError("key_len below 8 bytes is insecure")

    def envelope_key(self, sigma_bytes: bytes) -> bytes:
        """The paper's ``H(sigma)`` step: key bytes from a group secret."""
        return derive_key(
            sigma_bytes, self.key_len, info=b"repro/ocbe/envelope", h=self.hash_fn
        )

    def random_scalar(self, rng: Optional[random.Random]) -> int:
        """Uniform scalar in ``[1, p)`` from ``rng`` or the system CSPRNG."""
        p = self.pedersen.order
        if rng is not None:
            return rng.randrange(1, p)
        return secrets.randbelow(p - 1) + 1

    def random_bytes(self, n: int, rng: Optional[random.Random]) -> bytes:
        """``n`` uniform bytes from ``rng`` or the system CSPRNG."""
        if rng is not None:
            return bytes(rng.randrange(256) for _ in range(n))
        return secrets.token_bytes(n)


def sender_for(
    setup: OCBESetup, predicate: Predicate, rng: Optional[random.Random] = None
):
    """Instantiate the sender session matching ``predicate``."""
    from repro.ocbe.derived import GtOCBESender, LtOCBESender, NeOCBESender
    from repro.ocbe.eq import EqOCBESender
    from repro.ocbe.ge import GeOCBESender
    from repro.ocbe.le import LeOCBESender

    if isinstance(predicate, EqPredicate):
        return EqOCBESender(setup, predicate, rng)
    if isinstance(predicate, GtPredicate):
        return GtOCBESender(setup, predicate, rng)
    if isinstance(predicate, LtPredicate):
        return LtOCBESender(setup, predicate, rng)
    if isinstance(predicate, NePredicate):
        return NeOCBESender(setup, predicate, rng)
    if isinstance(predicate, GePredicate):
        return GeOCBESender(setup, predicate, rng)
    if isinstance(predicate, LePredicate):
        return LeOCBESender(setup, predicate, rng)
    raise PredicateError("no OCBE sender for %r" % predicate)


def receiver_for(
    setup: OCBESetup,
    predicate: Predicate,
    x: int,
    r: int,
    commitment: PedersenCommitment,
    rng: Optional[random.Random] = None,
):
    """Instantiate the receiver session matching ``predicate``."""
    from repro.ocbe.derived import GtOCBEReceiver, LtOCBEReceiver, NeOCBEReceiver
    from repro.ocbe.eq import EqOCBEReceiver
    from repro.ocbe.ge import GeOCBEReceiver
    from repro.ocbe.le import LeOCBEReceiver

    if isinstance(predicate, EqPredicate):
        return EqOCBEReceiver(setup, predicate, x, r, commitment, rng)
    if isinstance(predicate, GtPredicate):
        return GtOCBEReceiver(setup, predicate, x, r, commitment, rng)
    if isinstance(predicate, LtPredicate):
        return LtOCBEReceiver(setup, predicate, x, r, commitment, rng)
    if isinstance(predicate, NePredicate):
        return NeOCBEReceiver(setup, predicate, x, r, commitment, rng)
    if isinstance(predicate, GePredicate):
        return GeOCBEReceiver(setup, predicate, x, r, commitment, rng)
    if isinstance(predicate, LePredicate):
        return LeOCBEReceiver(setup, predicate, x, r, commitment, rng)
    raise PredicateError("no OCBE receiver for %r" % predicate)

