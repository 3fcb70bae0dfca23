"""Dense univariate polynomials over a prime field.

Coefficients are stored low-degree-first with no trailing zeros (the zero
polynomial has an empty coefficient list, degree ``-1``).  This module backs
the genus-2 Jacobian arithmetic (Cantor's algorithm manipulates the Mumford
pair ``(u, v)`` of polynomials) and the access-control-polynomial baseline.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

from repro.errors import FieldMismatchError
from repro.mathx.field import FieldElement, PrimeField

__all__ = ["Poly"]

IntoCoeff = Union[FieldElement, int]


class Poly:
    """A polynomial in one variable over :class:`PrimeField`."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[IntoCoeff] = ()):
        self.field = field
        normalized: List[int] = [int(field(c)) for c in coeffs]
        while normalized and normalized[-1] == 0:
            normalized.pop()
        self.coeffs = tuple(normalized)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: PrimeField) -> "Poly":
        """The zero polynomial."""
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "Poly":
        """The constant polynomial 1."""
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: PrimeField, c: IntoCoeff) -> "Poly":
        """The constant polynomial ``c``."""
        return cls(field, (c,))

    # -- metadata -------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; ``-1`` for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        """True for the zero polynomial."""
        return not self.coeffs

    def is_monic(self) -> bool:
        """True when the leading coefficient is 1."""
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading_coefficient(self) -> FieldElement:
        """Leading coefficient (0 for the zero polynomial)."""
        if not self.coeffs:
            return self.field.zero()
        return self.field(self.coeffs[-1])

    def coefficient(self, i: int) -> FieldElement:
        """Coefficient of ``x**i`` (0 beyond the degree)."""
        if 0 <= i < len(self.coeffs):
            return self.field(self.coeffs[i])
        return self.field.zero()

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.field.p != other.field.p:
            raise FieldMismatchError(
                "mixed polynomial fields F_%d and F_%d" % (self.field.p, other.field.p)
            )

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        return Poly(
            self.field,
            [
                ((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                for i in range(n)
            ],
        )

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        return Poly(
            self.field,
            [
                ((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                for i in range(n)
            ],
        )

    def __neg__(self) -> "Poly":
        p = self.field.p
        return Poly(self.field, [(-c) % p for c in self.coeffs])

    def __mul__(self, other: Union["Poly", IntoCoeff]) -> "Poly":
        if isinstance(other, (int, FieldElement)):
            c = int(self.field(other))
            p = self.field.p
            return Poly(self.field, [(a * c) % p for a in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        p = self.field.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dlead_inv = pow(dlead, p - 2, p)
        ddeg = other.degree
        qdeg = len(rem) - 1 - ddeg
        if qdeg < 0:
            return Poly.zero(self.field), self
        quot = [0] * (qdeg + 1)
        for i in range(qdeg, -1, -1):
            coeff = (rem[i + ddeg] * dlead_inv) % p
            if coeff:
                quot[i] = coeff
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = (rem[i + j] - coeff * b) % p
        return Poly(self.field, quot), Poly(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1 (zero stays zero)."""
        if self.is_zero() or self.is_monic():
            return self
        return self * self.leading_coefficient().inverse()

    def xgcd(self, other: "Poly") -> Tuple["Poly", "Poly", "Poly"]:
        """Extended gcd: returns monic ``(g, s, t)`` with ``s*a + t*b = g``."""
        self._check(other)
        field = self.field
        old_r, r = self, other
        old_s, s = Poly.one(field), Poly.zero(field)
        old_t, t = Poly.zero(field), Poly.one(field)
        while not r.is_zero():
            q, rem = divmod(old_r, r)
            old_r, r = r, rem
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r.is_zero():
            return old_r, old_s, old_t
        lead_inv = old_r.leading_coefficient().inverse()
        return old_r * lead_inv, old_s * lead_inv, old_t * lead_inv

    def __call__(self, x: IntoCoeff) -> FieldElement:
        """Evaluate at ``x`` via Horner's rule."""
        xv = int(self.field(x))
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * xv + c) % p
        return FieldElement(self.field, acc)

    # -- comparisons / formatting ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.field.p == other.field.p and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == Poly.constant(self.field, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("%sx" % ("" if c == 1 else c))
            else:
                terms.append("%sx^%d" % ("" if c == 1 else c, i))
        return "Poly(%s)" % " + ".join(terms)
