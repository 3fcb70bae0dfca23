"""Prime fields ``F_p`` and their elements.

A :class:`PrimeField` is a lightweight factory/namespace for
:class:`FieldElement` instances.  Elements support natural operator syntax
(``+``, ``-``, ``*``, ``/``, ``**``, unary ``-``) and interoperate with plain
ints on either side.  Two fields with the same modulus compare equal and
their elements are interchangeable.

The GKM layer works over ``F_q`` for an 80-bit (paper-faithful) or 31-bit
(numpy-accelerated) prime; the group backends use 83-bit to 256-bit primes.
"""

from __future__ import annotations

from typing import Union

from repro.errors import FieldMismatchError, InvalidParameterError
from repro.mathx.modular import modinv
from repro.mathx.primes import is_prime

__all__ = ["PrimeField", "FieldElement"]

IntoElement = Union["FieldElement", int]


class PrimeField:
    """The finite field of integers modulo a prime ``p``."""

    __slots__ = ("p",)

    def __init__(self, p: int, check_prime: bool = True):
        if p < 2:
            raise InvalidParameterError("field modulus must be >= 2, got %r" % p)
        if check_prime and not is_prime(p):
            raise InvalidParameterError("field modulus %d is not prime" % p)
        self.p = p

    # -- construction ------------------------------------------------------

    def __call__(self, value: IntoElement) -> "FieldElement":
        """Coerce ``value`` into this field."""
        if isinstance(value, FieldElement):
            if value.field.p != self.p:
                raise FieldMismatchError(
                    "cannot coerce element of F_%d into F_%d" % (value.field.p, self.p)
                )
            return value
        return FieldElement(self, value % self.p)

    def zero(self) -> "FieldElement":
        """The additive identity."""
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        """The multiplicative identity."""
        return FieldElement(self, 1)

    def from_bytes(self, data: bytes) -> "FieldElement":
        """Interpret big-endian bytes as an element (reduced mod p)."""
        return FieldElement(self, int.from_bytes(data, "big") % self.p)

    # -- metadata ----------------------------------------------------------

    @property
    def order(self) -> int:
        """Number of elements in the field."""
        return self.p

    @property
    def bit_length(self) -> int:
        """Bit length of the modulus."""
        return self.p.bit_length()

    @property
    def byte_length(self) -> int:
        """Bytes needed to serialize one element."""
        return (self.p.bit_length() + 7) // 8

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return "PrimeField(%d)" % self.p


class FieldElement:
    """An element of a :class:`PrimeField`, stored as ``0 <= value < p``."""

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        self.field = field
        self.value = value % field.p

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other: IntoElement) -> int:
        if isinstance(other, FieldElement):
            if other.field.p != self.field.p:
                raise FieldMismatchError(
                    "mixed fields F_%d and F_%d" % (self.field.p, other.field.p)
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: IntoElement) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value + v)

    __radd__ = __add__

    def __sub__(self, other: IntoElement) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value - v)

    def __rsub__(self, other: IntoElement) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, v - self.value)

    def __mul__(self, other: IntoElement) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other: IntoElement) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * modinv(v, self.field.p))

    def __rtruediv__(self, other: IntoElement) -> "FieldElement":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, v * modinv(self.value, self.field.p))

    def __pow__(self, exponent: int) -> "FieldElement":
        if exponent < 0:
            return FieldElement(
                self.field, pow(modinv(self.value, self.field.p), -exponent, self.field.p)
            )
        return FieldElement(self.field, pow(self.value, exponent, self.field.p))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, -self.value)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises :class:`NotInvertibleError` at 0."""
        return FieldElement(self.field, modinv(self.value, self.field.p))

    # -- predicates / conversions ------------------------------------------

    def is_zero(self) -> bool:
        """True for the additive identity."""
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def to_bytes(self) -> bytes:
        """Fixed-width big-endian encoding (width = field.byte_length)."""
        return self.value.to_bytes(self.field.byte_length, "big")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field.p == other.field.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.value))

    def __repr__(self) -> str:
        return "F%d(%d)" % (self.field.p, self.value)
