"""GE-OCBE: oblivious envelopes for ``>=`` predicates (Section IV-C).

The bitwise protocol for values in ``V = [0, 2^l)`` with ``2^l < p/2``:

* R writes ``d = (x - x0) mod p``.  If the predicate holds, ``d`` fits in
  ``l`` bits and R commits to its bits ``d_i`` honestly; otherwise R picks
  random bits ``d_1..d_{l-1}`` and lets ``d_0 = d - sum 2^i d_i (mod p)``
  absorb the (non-bit) remainder.  The blinding exponents satisfy
  ``r = sum 2^i r_i`` so S can check ``c g^{-x0} = prod c_i^{2^i}``.
* S picks random strings ``k_i``, encrypts M under ``k = H(k_0||..||k_{l-1})``
  and for each bit position publishes both "openings"
  ``C_i^j = H((c_i g^{-j})^y) xor k_i`` for ``j in {0,1}`` plus ``eta = h^y``.
* R recovers ``k_i = H(eta^{r_i}) xor C_i^{d_i}`` -- possible at position 0
  only when ``d_0`` really is a bit, i.e. only when the predicate holds.

LE-OCBE (:mod:`repro.ocbe.le`) reuses this machinery mirrored around
``d = x0 - x``.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto.modes import xor_bytes
from repro.crypto.pedersen import PedersenCommitment
from repro.crypto.symmetric import NONCE_LEN
from repro.errors import PredicateError, ProtocolStateError
from repro.groups.base import CyclicGroup, GroupElement
from repro.groups.precompute import recombines_to, same_base_powers
from repro.ocbe.base import Envelope, OCBESetup
from repro.ocbe.predicates import GePredicate
from repro.wire.codec import (
    Cursor,
    pack_bytes,
    pack_element,
    pack_u16,
    read_element,
)

__all__ = [
    "BitCommitMessage",
    "BitwiseEnvelope",
    "GeOCBESender",
    "GeOCBEReceiver",
]


@dataclass(frozen=True)
class BitCommitMessage:
    """The receiver's first message: one commitment per bit position."""

    commitments: Tuple[PedersenCommitment, ...]

    def to_bytes(self) -> bytes:
        """Canonical wire encoding: count, then each ``c_i`` in order."""
        out = bytearray(pack_u16(len(self.commitments)))
        for commitment in self.commitments:
            out += pack_element(commitment.value)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, group: CyclicGroup) -> "BitCommitMessage":
        cursor = Cursor(data)
        message = cls.read_from(cursor, group)
        cursor.expect_end()
        return message

    @classmethod
    def read_from(cls, cursor: Cursor, group: CyclicGroup) -> "BitCommitMessage":
        count = cursor.read_u16()
        commitments = tuple(
            PedersenCommitment(read_element(cursor, group)) for _ in range(count)
        )
        return cls(commitments=commitments)

    def byte_size(self) -> int:
        """Exact wire size: ``len(self.to_bytes())``."""
        return len(self.to_bytes())


@dataclass(frozen=True)
class BitwiseEnvelope(Envelope):
    """The sender's message: ``eta``, the ``C_i^j`` table, and ``C``."""

    eta: GroupElement
    bit_ciphers: Tuple[Tuple[bytes, bytes], ...]  # (C_i^0, C_i^1) per position
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        out = bytearray(pack_element(self.eta))
        out += pack_u16(len(self.bit_ciphers))
        for c0, c1 in self.bit_ciphers:
            out += pack_bytes(c0)
            out += pack_bytes(c1)
        out += pack_bytes(self.ciphertext)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, group: CyclicGroup) -> "BitwiseEnvelope":
        cursor = Cursor(data)
        envelope = cls.read_from(cursor, group)
        cursor.expect_end()
        return envelope

    @classmethod
    def read_from(cls, cursor: Cursor, group: CyclicGroup) -> "BitwiseEnvelope":
        eta = read_element(cursor, group)
        count = cursor.read_u16()
        bit_ciphers = tuple(
            (cursor.read_bytes(), cursor.read_bytes()) for _ in range(count)
        )
        ciphertext = cursor.read_bytes()
        return cls(eta=eta, bit_ciphers=bit_ciphers, ciphertext=ciphertext)

    def byte_size(self) -> int:
        """Exact wire size: ``len(self.to_bytes())``."""
        return len(self.to_bytes())


class _BitwiseSenderBase:
    """Common sender logic for GE- and LE-OCBE (direction differs)."""

    def __init__(self, setup: OCBESetup, predicate, rng: Optional[random.Random]):
        self.setup = setup
        self.predicate = predicate
        self._rng = rng
        p = setup.pedersen.order
        if (1 << (predicate.ell + 1)) >= p:
            raise PredicateError(
                "bit length l=%d too large for group order (need 2^(l+1) < p)"
                % predicate.ell
            )

    def _check_target(self, commitment: PedersenCommitment) -> GroupElement:
        """The element that ``prod c_i^{2^i}`` must equal (direction-specific)."""
        raise NotImplementedError

    def _random_bytes(self, n: int) -> bytes:
        if self._rng is not None:
            return bytes(self._rng.randrange(256) for _ in range(n))
        return secrets.token_bytes(n)

    def draw_randomness(self):
        """Draw ``y`` and the per-bit key shares from the sender's RNG.

        Draw order is ``y``, then the shares, then the cipher nonce; the
        nonce is drawn here rather than inside ``encrypt`` so that
        ``compose_with`` is a pure function of ``drawn``: a seeded
        transcript replays byte for byte however the arithmetic is
        later scheduled or batched.
        """
        y = self.setup.random_scalar(self._rng)
        digest_size = self.setup.hash_fn.digest_size
        key_shares = tuple(
            self._random_bytes(digest_size) for _ in range(self.predicate.ell)
        )
        nonce = self._random_bytes(NONCE_LEN)
        return (y, key_shares, nonce)

    def compose(
        self,
        commitment: PedersenCommitment,
        aux: BitCommitMessage,
        message: bytes,
    ) -> BitwiseEnvelope:
        """Verify the bit commitments and build the double-opening table."""
        return self.compose_with(commitment, aux, message, self.draw_randomness())

    def compose_with(
        self,
        commitment: PedersenCommitment,
        aux: BitCommitMessage,
        message: bytes,
        drawn,
    ) -> BitwiseEnvelope:
        """Deterministic envelope build from pre-drawn randomness."""
        if (
            not isinstance(aux, BitCommitMessage)
            or len(aux.commitments) != self.predicate.ell
        ):
            raise ProtocolStateError(
                "expected %d bit commitments" % self.predicate.ell
            )
        params = self.setup.pedersen
        hash_fn = self.setup.hash_fn

        # Check c * g^{-x0} (or mirror) == prod c_i^{2^i}.
        values = [c_i.value for c_i in aux.commitments]
        if not recombines_to(values, self._check_target(commitment)):
            raise ProtocolStateError("bit commitments do not recombine to c")

        y, key_shares, nonce = drawn
        eta = params.pow_h(y)
        # (c_i g^{-1})^y == c_i^y * (g^y)^{-1}: one fixed-base table pow
        # plus one multiply replaces the second variable-base
        # exponentiation per bit position, halving the dominant cost.
        gy_inv = params.pow_g(y).inverse()

        bit_ciphers: List[Tuple[bytes, bytes]] = []
        for c_i, k_i in zip(aux.commitments, key_shares):
            sigma0 = c_i.value ** y
            row = []
            for sigma in (sigma0, sigma0 * gy_inv):
                pad = hash_fn.digest(b"repro/ocbe/bit" + sigma.to_bytes())
                row.append(xor_bytes(pad, k_i))
            bit_ciphers.append((row[0], row[1]))

        key = self.setup.envelope_key(b"".join(key_shares))
        return BitwiseEnvelope(
            eta=eta,
            bit_ciphers=tuple(bit_ciphers),
            ciphertext=self.setup.cipher.encrypt(key, message, nonce=nonce),
        )


class _BitwiseReceiverBase:
    """Common receiver logic for GE- and LE-OCBE."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate,
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
        self._rng = rng
        self._bit_values: Optional[List[int]] = None
        self._bit_blindings: Optional[List[int]] = None

    # Direction-specific hooks -------------------------------------------------

    def _difference(self) -> int:
        """``d`` as an element of ``F_p`` (direction-specific)."""
        raise NotImplementedError

    def _blinding_total(self) -> int:
        """The value ``sum 2^i r_i`` must equal (``r`` for GE, ``-r`` for LE)."""
        raise NotImplementedError

    # Protocol steps --------------------------------------------------------

    def commitment_message(self) -> BitCommitMessage:
        """Produce the per-bit commitments ``c_i = g^{d_i} h^{r_i}``."""
        p = self.setup.pedersen.order
        ell = self.predicate.ell
        d = self._difference()
        rng = self._rng

        blindings = [
            (rng.randrange(p) if rng is not None else secrets.randbelow(p))
            for _ in range(ell - 1)
        ]
        r0 = (self._blinding_total() - sum(
            (1 << (i + 1)) * ri for i, ri in enumerate(blindings)
        )) % p
        blindings = [r0] + blindings  # r_0 first; index i blinds bit i

        if 0 <= d < (1 << ell):
            bits = [(d >> i) & 1 for i in range(ell)]
        else:
            bits = [0] + [
                (rng.randrange(2) if rng is not None else secrets.randbelow(2))
                for _ in range(ell - 1)
            ]
            bits[0] = (d - sum((1 << i) * bits[i] for i in range(1, ell))) % p

        params = self.setup.pedersen
        commitments = tuple(
            params.commit(bits[i], blindings[i])[0] for i in range(ell)
        )
        self._bit_values = bits
        self._bit_blindings = blindings
        return BitCommitMessage(commitments=commitments)

    def open(self, envelope: BitwiseEnvelope) -> bytes:
        """Recover the key shares and decrypt.

        Raises :class:`~repro.errors.DecryptionError` when the predicate is
        not satisfied by the committed value (``d_0`` is then not a bit and
        the recovered share is garbage).
        """
        if self._bit_values is None or self._bit_blindings is None:
            raise ProtocolStateError("open() before commitment_message()")
        if len(envelope.bit_ciphers) != self.predicate.ell:
            raise ProtocolStateError("envelope arity mismatch")
        hash_fn = self.setup.hash_fn
        if any(
            len(c) != hash_fn.digest_size for pair in envelope.bit_ciphers for c in pair
        ):
            raise ProtocolStateError("envelope bit cipher has the wrong length")
        sigmas = same_base_powers(envelope.eta, self._bit_blindings)
        shares: List[bytes] = []
        for sigma, d_i, pair in zip(sigmas, self._bit_values, envelope.bit_ciphers):
            pad = hash_fn.digest(b"repro/ocbe/bit" + sigma.to_bytes())
            # A cheating-free receiver uses its bit; an unqualified one has a
            # non-bit d_0 and necessarily picks a wrong opening.
            shares.append(xor_bytes(pad, pair[d_i if d_i in (0, 1) else 0]))
        key = self.setup.envelope_key(b"".join(shares))
        return self.setup.cipher.decrypt(key, envelope.ciphertext)


class GeOCBESender(_BitwiseSenderBase):
    """GE-OCBE sender: delivers M iff the committed ``x >= x0``."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate: GePredicate,
        rng: Optional[random.Random] = None,
    ):
        if not isinstance(predicate, GePredicate):
            raise PredicateError("GeOCBESender requires a GePredicate")
        super().__init__(setup, predicate, rng)

    def _check_target(self, commitment: PedersenCommitment) -> GroupElement:
        params = self.setup.pedersen
        return commitment.value * params.pow_g(-self.predicate.x0 % params.order)


class GeOCBEReceiver(_BitwiseReceiverBase):
    """GE-OCBE receiver holding the opening ``(x, r)`` of ``c``."""

    def __init__(
        self,
        setup: OCBESetup,
        predicate: GePredicate,
        x: int,
        r: int,
        commitment: PedersenCommitment,
        rng: Optional[random.Random] = None,
    ):
        if not isinstance(predicate, GePredicate):
            raise PredicateError("GeOCBEReceiver requires a GePredicate")
        super().__init__(setup, predicate, x, r, commitment, rng)

    def _difference(self) -> int:
        return (self.x - self.predicate.x0) % self.setup.pedersen.order

    def _blinding_total(self) -> int:
        return self.r
