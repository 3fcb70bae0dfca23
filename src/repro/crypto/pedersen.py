"""Pedersen commitments over any prime-order cyclic group (Section IV-B).

A trusted party publishes ``(G, p, g, h)`` with the discrete log of ``h``
to base ``g`` unknown; a committer hides ``x`` as ``c = g^x h^r``.  The
scheme is unconditionally hiding and computationally binding under the DL
assumption.

The :class:`PedersenParams` setup derives ``h`` by hashing into the group,
so *nobody* (including the setup party) knows ``log_g h``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import CommitmentError, InvalidParameterError
from repro.groups.base import CyclicGroup, GroupElement
from repro.groups.precompute import shared_table

__all__ = ["PedersenParams", "PedersenCommitment"]


@dataclass(frozen=True)
class PedersenCommitment:
    """An opened-or-unopened commitment value ``c = g^x h^r``."""

    value: GroupElement

    def to_bytes(self) -> bytes:
        """Canonical encoding of the commitment (the group element)."""
        return self.value.to_bytes()

    def __mul__(self, other: "PedersenCommitment") -> "PedersenCommitment":
        """Homomorphic combination: commits to the sum of values."""
        if not isinstance(other, PedersenCommitment):
            return NotImplemented
        return PedersenCommitment(self.value * other.value)


# Naive exponentiations of a base before its fixed-base table is built:
# one-shot uses (tiny unit tests, ad-hoc verification) never pay the
# build, while any registration-shaped workload crosses the threshold
# within its first commitment batch.
_TABLE_THRESHOLD = 4


class PedersenParams:
    """System parameters ``(G, g, h)`` for Pedersen commitments.

    Exponentiations of the two (public) bases go through lazily built
    fixed-base tables (:mod:`repro.groups.precompute`), shared process-
    wide per base.  Tables are deterministic and never serialized:
    pickling drops them and a recovered instance rebuilds on use.
    """

    __slots__ = ("group", "g", "h", "_tables", "_uses")

    def __init__(
        self,
        group: CyclicGroup,
        g: Optional[GroupElement] = None,
        h: Optional[GroupElement] = None,
    ):
        self.group = group
        self.g = g if g is not None else group.generator()
        self.h = h if h is not None else group.second_generator()
        if self.g.is_identity() or self.h.is_identity():
            raise InvalidParameterError("generators must be non-identity")
        if self.g == self.h:
            raise InvalidParameterError("g and h must be distinct")
        self._tables = [None, None]
        self._uses = [0, 0]

    @property
    def order(self) -> int:
        """The exponent-space modulus p (the group order)."""
        return self.group.order

    def _pow(self, idx: int, base: GroupElement, exponent: int) -> GroupElement:
        table = self._tables[idx]
        if table is None:
            self._uses[idx] += 1
            if self._uses[idx] < _TABLE_THRESHOLD:
                return base**exponent
            table = self._tables[idx] = shared_table(base)
        return table.pow(exponent)

    def pow_g(self, exponent: int) -> GroupElement:
        """``g ** exponent`` through the fixed-base fast path."""
        return self._pow(0, self.g, exponent)

    def pow_h(self, exponent: int) -> GroupElement:
        """``h ** exponent`` through the fixed-base fast path."""
        return self._pow(1, self.h, exponent)

    def precompute_now(self) -> None:
        """Force-build both tables (e.g. ahead of a timed region)."""
        self._tables[0] = shared_table(self.g)
        self._tables[1] = shared_table(self.h)

    def __getstate__(self):
        # Tables are never serialized -- they are pure functions of the
        # public bases and are rebuilt (lazily) wherever this lands.
        return (self.group, self.g, self.h)

    def __setstate__(self, state):
        self.group, self.g, self.h = state
        self._tables = [None, None]
        self._uses = [0, 0]

    def commit(
        self, x: int, r: Optional[int] = None, rng: Optional[random.Random] = None
    ) -> Tuple[PedersenCommitment, int]:
        """Commit to ``x``; returns ``(commitment, r)``.

        When ``r`` is omitted a uniform blinding scalar is drawn (from
        ``rng`` if given, else from the system CSPRNG).
        """
        p = self.order
        x %= p
        if r is None:
            if rng is not None:
                r = rng.randrange(p)
            else:
                import secrets

                r = secrets.randbelow(p)
        r %= p
        c = self.pow_g(x) * self.pow_h(r)
        return PedersenCommitment(c), r

    def verify_open(self, commitment: PedersenCommitment, x: int, r: int) -> bool:
        """Check that ``commitment`` opens to ``(x, r)``."""
        expected = self.pow_g(x % self.order) * self.pow_h(r % self.order)
        return commitment.value == expected

    def require_open(self, commitment: PedersenCommitment, x: int, r: int) -> None:
        """Like :meth:`verify_open` but raises :class:`CommitmentError`."""
        if not self.verify_open(commitment, x, r):
            raise CommitmentError("commitment does not open to claimed (x, r)")

    def __repr__(self) -> str:
        return "PedersenParams(group=%s)" % self.group.name
