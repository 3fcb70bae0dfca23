"""Schnorr groups: the subgroup of squares of ``Z_p^*`` for a safe prime.

For a safe prime ``p = 2q + 1`` the quadratic residues form a cyclic
subgroup of prime order ``q`` in which DDH (hence CDH and DL) is believed
hard.  This is the simplest backend satisfying the Pedersen commitment
requirements of Section IV-B of the paper and is convenient for tests: a
tiny toy group (p = 23) exercises every code path exhaustively.
"""

from __future__ import annotations


from repro.errors import GroupError, InvalidParameterError
from repro.groups.base import CyclicGroup, GroupElement
from repro.mathx.modular import modinv
from repro.mathx.primes import is_prime

__all__ = ["SchnorrGroup", "SchnorrElement"]


class SchnorrGroup(CyclicGroup):
    """Prime-order subgroup of squares modulo a safe prime ``p``."""

    __slots__ = ("p", "q", "_g", "_name", "_byte_len")

    def __init__(self, p: int, generator: int = 4, name: str = "schnorr",
                 check: bool = True):
        """Create the group of squares mod the safe prime ``p``.

        ``generator`` must be a nonidentity square mod ``p``; the default 4
        (= 2**2) works for every safe prime > 5.
        """
        if check:
            if not is_prime(p):
                raise InvalidParameterError("p = %d is not prime" % p)
            if not is_prime((p - 1) // 2):
                raise InvalidParameterError("p = %d is not a safe prime" % p)
        self.p = p
        self.q = (p - 1) // 2
        g = generator % p
        if g in (0, 1, p - 1):
            raise InvalidParameterError("degenerate generator %d" % generator)
        if pow(g, self.q, p) != 1:
            raise InvalidParameterError(
                "generator %d is not in the order-%d subgroup" % (generator, self.q)
            )
        self._g = g
        self._name = name
        self._byte_len = (p.bit_length() + 7) // 8

    # -- CyclicGroup interface ----------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def order(self) -> int:
        return self.q

    def identity(self) -> "SchnorrElement":
        return SchnorrElement(self, 1)

    def generator(self) -> "SchnorrElement":
        return SchnorrElement(self, self._g)

    def element(self, value: int) -> "SchnorrElement":
        """Wrap an integer, validating subgroup membership."""
        value %= self.p
        if value == 0 or pow(value, self.q, self.p) != 1:
            raise GroupError("%d is not in the order-%d subgroup" % (value, self.q))
        return SchnorrElement(self, value)

    def hash_to_element(self, tag: bytes) -> "SchnorrElement":
        counter = 0
        while True:
            v = self._hash_counter_stream(tag, counter, self._byte_len + 8) % self.p
            candidate = (v * v) % self.p  # squaring lands in the subgroup
            if candidate not in (0, 1):
                return SchnorrElement(self, candidate)
            counter += 1

    def element_from_bytes(self, data: bytes) -> "SchnorrElement":
        if len(data) != self._byte_len:
            raise GroupError(
                "expected %d bytes, got %d" % (self._byte_len, len(data))
            )
        value = int.from_bytes(data, "big")
        if value >= self.p:
            raise GroupError("non-canonical element encoding: not reduced mod p")
        return self.element(value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SchnorrGroup)
            and other.p == self.p
            and other._g == self._g
        )

    def __hash__(self) -> int:
        return hash(("SchnorrGroup", self.p, self._g))


class SchnorrElement(GroupElement):
    """An element of a :class:`SchnorrGroup`, stored as ``1 <= v < p``."""

    __slots__ = ("_group", "value")

    def __init__(self, group: SchnorrGroup, value: int):
        self._group = group
        self.value = value % group.p

    @property
    def group(self) -> SchnorrGroup:
        return self._group

    def __mul__(self, other: GroupElement) -> "SchnorrElement":
        if not isinstance(other, SchnorrElement):
            return NotImplemented
        if other._group.p != self._group.p:
            raise GroupError("elements of different Schnorr groups")
        return SchnorrElement(self._group, self.value * other.value)

    def inverse(self) -> "SchnorrElement":
        return SchnorrElement(self._group, modinv(self.value, self._group.p))

    def __pow__(self, exponent: int) -> "SchnorrElement":
        e = exponent % self._group.q
        return SchnorrElement(self._group, pow(self.value, e, self._group.p))

    def is_identity(self) -> bool:
        return self.value == 1

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self._group._byte_len, "big")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchnorrElement):
            return NotImplemented
        return self._group.p == other._group.p and self.value == other.value

    def __hash__(self) -> int:
        return hash(("SchnorrElement", self._group.p, self.value))

    def __repr__(self) -> str:
        return "SchnorrElement(%d mod %d)" % (self.value, self._group.p)
