"""Genus-2 hyperelliptic Jacobians (Mumford representation + Cantor).

The paper's implementation builds Pedersen commitments over the Jacobian
group of the Gaudry--Schost genus-2 curve

    C : y^2 = x^5 + f3 x^3 + f2 x^2 + f1 x + f0   over F_q,
    q = 5*10^24 + 8503491,

whose Jacobian has prime order p (164/165 bits).  This module implements the
same construction from scratch:

* divisor classes in **Mumford representation** ``(u, v)`` with ``u`` monic,
  ``deg u <= 2``, ``deg v < deg u`` and ``u | v^2 - f``;
* the group law via **Cantor's algorithm** (composition followed by
  reduction), specialised to ``h = 0`` (odd characteristic);
* deterministic hash-to-Jacobian via degree-1 (weight-one) divisors, used to
  derive independent Pedersen bases.

Because the shipped curve's Jacobian order is prime with cofactor 1, every
non-identity divisor class generates the full group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import (
    GroupError,
    InvalidParameterError,
    NoSquareRootError,
    NotOnCurveError,
)
from repro.groups.base import CyclicGroup, GroupElement
from repro.mathx.field import PrimeField
from repro.mathx.modular import modsqrt
from repro.mathx.polynomial import Poly

__all__ = ["JacobianParams", "GenusTwoJacobian", "MumfordDivisor"]


@dataclass(frozen=True)
class JacobianParams:
    """Domain parameters of a genus-2 curve ``y^2 = f(x)`` with prime-order
    Jacobian.

    ``f_coeffs`` lists the coefficients of the degree-5 monic ``f`` from the
    constant term upward (six entries, last one 1).
    """

    name: str
    q: int                      # base-field modulus
    f_coeffs: Tuple[int, ...]   # (f0, f1, f2, f3, f4, 1)
    order: int                  # prime order of the Jacobian group

    def validate(self) -> None:
        """Check the shape of the parameters (degree-5 monic f)."""
        if len(self.f_coeffs) != 6 or self.f_coeffs[-1] % self.q != 1:
            raise InvalidParameterError("f must be monic of degree 5")


class GenusTwoJacobian(CyclicGroup):
    """Jacobian group of a genus-2 curve in multiplicative notation."""

    __slots__ = ("params", "field", "f", "_coord_len")

    def __init__(self, params: JacobianParams, check: bool = True):
        if check:
            params.validate()
        self.params = params
        self.field = PrimeField(params.q, check_prime=check)
        self.f = Poly(self.field, params.f_coeffs)
        self._coord_len = (params.q.bit_length() + 7) // 8

    # -- CyclicGroup interface ----------------------------------------------

    @property
    def name(self) -> str:
        return self.params.name

    @property
    def order(self) -> int:
        return self.params.order

    def identity(self) -> "MumfordDivisor":
        return MumfordDivisor(self, Poly.one(self.field), Poly.zero(self.field))

    def generator(self) -> "MumfordDivisor":
        return self.hash_to_element(b"repro/genus2/generator")

    def divisor(self, u: Poly, v: Poly, check: bool = True) -> "MumfordDivisor":
        """Wrap a Mumford pair, validating the divisor conditions."""
        if check:
            self._validate(u, v)
        return MumfordDivisor(self, u, v)

    def _validate(self, u: Poly, v: Poly) -> None:
        if u.is_zero() or not u.is_monic() or u.degree > 2:
            raise NotOnCurveError("u must be monic of degree <= 2")
        if not v.is_zero() and v.degree >= max(u.degree, 1):
            if u.degree == 0:
                raise NotOnCurveError("identity element must have v = 0")
            raise NotOnCurveError("deg v must be < deg u")
        if not ((v * v - self.f) % u).is_zero():
            raise NotOnCurveError("u does not divide v^2 - f")

    def point_divisor(self, x: int, y: int) -> "MumfordDivisor":
        """Weight-one divisor class of the affine curve point ``(x, y)``."""
        fe = self.field
        if self.f(x) != fe(y) * fe(y):
            raise NotOnCurveError("(%d, %d) is not on the curve" % (x, y))
        u = Poly(fe, (-fe(x), 1))
        v = Poly.constant(fe, y)
        return MumfordDivisor(self, u, v)

    def two_point_divisor(
        self, x1: int, y1: int, x2: int, y2: int
    ) -> "MumfordDivisor":
        """Weight-two divisor class of two distinct affine points."""
        fe = self.field
        if int(fe(x1)) == int(fe(x2)):
            raise InvalidParameterError("points must have distinct x coordinates")
        for x, y in ((x1, y1), (x2, y2)):
            if self.f(x) != fe(y) * fe(y):
                raise NotOnCurveError("(%d, %d) is not on the curve" % (x, y))
        # u = (x - x1)(x - x2); v is the line through the two points.
        u = Poly(fe, (fe(x1) * x2, -(fe(x1) + x2), 1))
        slope = (fe(y2) - y1) / (fe(x2) - x1)
        v = Poly(fe, (fe(y1) - slope * x1, slope))
        return MumfordDivisor(self, u, v)

    def lift_x(self, x: int, y_parity: int = 0) -> Tuple[int, int]:
        """An affine curve point with the given x (raises on non-residue)."""
        q = self.params.q
        rhs = int(self.f(x))
        y = modsqrt(rhs, q)
        if y % 2 != y_parity % 2 and y != 0:
            y = q - y
        return (x % q, y)

    def hash_to_element(self, tag: bytes) -> "MumfordDivisor":
        counter = 0
        while True:
            x = self._hash_counter_stream(tag, counter, self._coord_len + 8)
            x %= self.params.q
            try:
                px, py = self.lift_x(x)
            except NoSquareRootError:
                counter += 1
                continue
            divisor = self.point_divisor(px, py)
            if not divisor.is_identity():
                return divisor
            counter += 1

    def random_element(self, rng: Optional[random.Random] = None) -> "MumfordDivisor":
        """Random divisor class built from random curve points.

        Unlike the generic ``g**k`` default this samples fresh points, which
        exercises the weight-two code paths in tests.
        """
        rng = rng or random
        q = self.params.q
        points = []
        while len(points) < 2:
            x = rng.randrange(q)
            try:
                pt = self.lift_x(x, rng.randrange(2))
            except NoSquareRootError:
                continue
            if all(existing[0] != pt[0] for existing in points):
                points.append(pt)
        return self.two_point_divisor(*points[0], *points[1])

    def element_from_bytes(self, data: bytes) -> "MumfordDivisor":
        expected = 1 + 4 * self._coord_len
        if len(data) != expected:
            raise GroupError("expected %d bytes, got %d" % (expected, len(data)))
        deg = data[0]
        if deg > 2:
            raise GroupError("invalid degree marker %d" % deg)
        w = self._coord_len
        vals = [
            int.from_bytes(data[1 + i * w : 1 + (i + 1) * w], "big") for i in range(4)
        ]
        if max(vals) >= self.params.q:
            raise GroupError("non-canonical divisor encoding: coordinate not reduced")
        u0, u1, v0, v1 = vals
        fe = self.field
        if deg == 0:
            if u0 or u1 or v0 or v1:
                raise GroupError("non-canonical identity encoding")
            u = Poly.one(fe)
            v = Poly.zero(fe)
        elif deg == 1:
            if u1 or v1:
                raise GroupError("non-canonical weight-1 encoding")
            u = Poly(fe, (u0, 1))
            v = Poly(fe, (v0,))
        else:
            u = Poly(fe, (u0, u1, 1))
            v = Poly(fe, (v0, v1))
        return self.divisor(u, v, check=True)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GenusTwoJacobian) and other.params == self.params

    def __hash__(self) -> int:
        return hash(("GenusTwoJacobian", self.params))

    # -- Cantor's algorithm (internal) ---------------------------------------

    def _compose(
        self, a: Tuple[Poly, Poly], b: Tuple[Poly, Poly]
    ) -> Tuple[Poly, Poly]:
        """Cantor composition (h = 0): returns a possibly unreduced pair."""
        u1, v1 = a
        u2, v2 = b
        d1, e1, e2 = u1.xgcd(u2)
        d, c1, c2 = d1.xgcd(v1 + v2)
        s1 = c1 * e1
        s2 = c1 * e2
        s3 = c2
        dd = d * d
        u, rem = divmod(u1 * u2, dd)
        if not rem.is_zero():
            raise GroupError("Cantor composition: d^2 does not divide u1*u2")
        numerator = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + self.f)
        vq, vrem = divmod(numerator, d)
        if not vrem.is_zero():
            raise GroupError("Cantor composition: d does not divide v numerator")
        v = vq % u
        return u, v

    def _reduce(self, pair: Tuple[Poly, Poly]) -> Tuple[Poly, Poly]:
        """Cantor reduction to a Mumford pair with ``deg u <= 2``."""
        u, v = pair
        while u.degree > 2:
            u_next, rem = divmod(self.f - v * v, u)
            if not rem.is_zero():
                raise GroupError("Cantor reduction: u does not divide f - v^2")
            u_next = u_next.monic()
            v = (-v) % u_next
            u = u_next
        u = u.monic()
        return u, v % u

    def _cantor_add(
        self, a: Tuple[Poly, Poly], b: Tuple[Poly, Poly]
    ) -> Tuple[Poly, Poly]:
        u, v = self._reduce(self._compose(a, b))
        return u.monic(), v

    # -- formatting ----------------------------------------------------------

    def __repr__(self) -> str:
        return "GenusTwoJacobian(name=%r, q_bits=%d, order_bits=%d)" % (
            self.name,
            self.params.q.bit_length(),
            self.order.bit_length(),
        )


class MumfordDivisor(GroupElement):
    """A divisor class ``(u, v)`` on a :class:`GenusTwoJacobian`."""

    __slots__ = ("_group", "u", "v")

    def __init__(self, group: GenusTwoJacobian, u: Poly, v: Poly):
        self._group = group
        self.u = u
        self.v = v

    @property
    def group(self) -> GenusTwoJacobian:
        return self._group

    @property
    def weight(self) -> int:
        """The weight (degree of u): 0 for identity, 1 or 2 otherwise."""
        return self.u.degree

    def _check(self, other: "MumfordDivisor") -> None:
        if other._group.params != self._group.params:
            raise GroupError("divisors on different Jacobians")

    def __mul__(self, other: GroupElement) -> "MumfordDivisor":
        if not isinstance(other, MumfordDivisor):
            return NotImplemented
        self._check(other)
        u, v = self._group._cantor_add((self.u, self.v), (other.u, other.v))
        return MumfordDivisor(self._group, u, v)

    def inverse(self) -> "MumfordDivisor":
        if self.is_identity():
            return self
        return MumfordDivisor(self._group, self.u, (-self.v) % self.u)

    def __pow__(self, exponent: int) -> "MumfordDivisor":
        g = self._group
        e = exponent % g.order
        if e == 0 or self.is_identity():
            return g.identity()
        result: Optional[Tuple[Poly, Poly]] = None
        base = (self.u, self.v)
        while e:
            if e & 1:
                result = base if result is None else g._cantor_add(result, base)
            e >>= 1
            if e:
                base = g._cantor_add(base, base)
        assert result is not None
        return MumfordDivisor(g, result[0], result[1])

    def is_identity(self) -> bool:
        return self.u.degree == 0

    def to_bytes(self) -> bytes:
        w = self._group._coord_len
        deg = max(self.u.degree, 0)
        u0 = int(self.u.coefficient(0)) if deg >= 1 else 0
        u1 = int(self.u.coefficient(1)) if deg == 2 else 0
        v0 = int(self.v.coefficient(0))
        v1 = int(self.v.coefficient(1))
        return (
            bytes([deg])
            + u0.to_bytes(w, "big")
            + u1.to_bytes(w, "big")
            + v0.to_bytes(w, "big")
            + v1.to_bytes(w, "big")
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MumfordDivisor):
            return NotImplemented
        return (
            self._group.params == other._group.params
            and self.u == other.u
            and self.v == other.v
        )

    def __hash__(self) -> int:
        return hash(("MumfordDivisor", self._group.params.name, self.u, self.v))

    def __repr__(self) -> str:
        return "MumfordDivisor(u=%r, v=%r)" % (self.u, self.v)
