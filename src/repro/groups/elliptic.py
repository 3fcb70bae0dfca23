"""Short-Weierstrass elliptic-curve groups.

Affine points on ``y^2 = x^3 + ax + b`` over a prime field, with scalar
multiplication performed internally in Jacobian projective coordinates to
avoid per-step modular inversions.  All shipped parameter sets have prime
order (cofactor 1), so every non-identity point is a generator -- which is
what :class:`~repro.crypto.pedersen.PedersenParams` requires.

This is the fastest backend in pure Python and the default for the OCBE
protocol layer; the genus-2 backend reproduces the paper's exact setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import GroupError, InvalidParameterError, NotOnCurveError
from repro.groups import _native
from repro.groups.base import CyclicGroup, GroupElement
from repro.mathx.modular import modinv, modsqrt
from repro.errors import NoSquareRootError

__all__ = ["CurveParams", "EllipticCurveGroup", "ECPoint"]

_INFINITY_BYTE = b"\x00"
_UNCOMPRESSED_BYTE = b"\x04"

#: Digit width of the signed recoding in ``ECPoint.__pow__``.  Digits are
#: odd with ``|d| < 2**(w-1)``, so the four odd multiples ``P .. 7P`` cover
#: them, and every nonzero digit is followed by at least ``w - 1`` zeros.
NAF_WIDTH = 4


def naf_digits(e: int, width: int) -> List[Tuple[int, int]]:
    """The width-``width`` non-adjacent form of ``e >= 0``.

    ``(position, digit)`` pairs, least significant first, with
    ``e == sum(digit << position)``, every digit odd and
    ``|digit| < 2**(width - 1)``.  Runs of zeros are skipped whole, so the
    loop runs once per nonzero digit, not once per bit.
    """
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    digits = []
    position = 0
    while e:
        zeros = (e & -e).bit_length() - 1
        e >>= zeros
        position += zeros
        digit = e & mask
        if digit >= half:
            digit -= 1 << width
        digits.append((position, digit))
        e = (e - digit) >> width  # e - digit is 0 mod 2**width
        position += width
    return digits


@dataclass(frozen=True)
class CurveParams:
    """Domain parameters of a prime-order short-Weierstrass curve."""

    name: str
    p: int          # field modulus
    a: int          # curve coefficient a
    b: int          # curve coefficient b
    gx: int         # base point x
    gy: int         # base point y
    n: int          # (prime) group order

    def validate(self) -> None:
        """Sanity-check the parameter set (discriminant, base point)."""
        if (4 * pow(self.a, 3, self.p) + 27 * pow(self.b, 2, self.p)) % self.p == 0:
            raise InvalidParameterError("singular curve (zero discriminant)")
        lhs = (self.gy * self.gy) % self.p
        rhs = (self.gx * self.gx * self.gx + self.a * self.gx + self.b) % self.p
        if lhs != rhs:
            raise InvalidParameterError("base point is not on the curve")


class EllipticCurveGroup(CyclicGroup):
    """The group of rational points of a prime-order curve."""

    __slots__ = ("params", "_coord_len", "_pn", "_an")

    def __init__(self, params: CurveParams, check: bool = True):
        if check:
            params.validate()
        self.params = params
        self._coord_len = (params.p.bit_length() + 7) // 8
        # Field constants pre-wrapped for the active big-integer backend
        # (gmpy2 mpz when available, plain int otherwise): every modular
        # reduction against them promotes the whole Jacobian kernel to
        # native arithmetic without changing a single computed value.
        self._pn = _native.mpz(params.p)
        self._an = _native.mpz(params.a)

    # -- CyclicGroup interface ----------------------------------------------

    @property
    def name(self) -> str:
        return self.params.name

    @property
    def order(self) -> int:
        return self.params.n

    def identity(self) -> "ECPoint":
        return ECPoint(self, None)

    def generator(self) -> "ECPoint":
        return ECPoint(self, (self.params.gx, self.params.gy))

    def point(self, x: int, y: int) -> "ECPoint":
        """Construct and validate an affine point."""
        p = self.params.p
        x %= p
        y %= p
        if not self._on_curve(x, y):
            raise NotOnCurveError("(%d, %d) is not on %s" % (x, y, self.name))
        return ECPoint(self, (x, y))

    def _on_curve(self, x: int, y: int) -> bool:
        p = self.params.p
        return (y * y - (x * x * x + self.params.a * x + self.params.b)) % p == 0

    def lift_x(self, x: int, y_parity: int = 0) -> "ECPoint":
        """Point with the given x coordinate and y parity.

        Raises :class:`NoSquareRootError` when no point has this x.
        """
        p = self.params.p
        x %= p
        rhs = (x * x * x + self.params.a * x + self.params.b) % p
        y = modsqrt(rhs, p)
        if y % 2 != y_parity % 2:
            y = p - y
        return ECPoint(self, (x, y))

    def hash_to_element(self, tag: bytes) -> "ECPoint":
        counter = 0
        while True:
            x = self._hash_counter_stream(tag, counter, self._coord_len + 8)
            x %= self.params.p
            try:
                candidate = self.lift_x(x)
            except NoSquareRootError:
                counter += 1
                continue
            if not candidate.is_identity():
                return candidate
            counter += 1

    def element_from_bytes(self, data: bytes) -> "ECPoint":
        if data == _INFINITY_BYTE:
            return self.identity()
        expected = 1 + 2 * self._coord_len
        if len(data) != expected or data[:1] != _UNCOMPRESSED_BYTE:
            raise GroupError("malformed point encoding")
        x = int.from_bytes(data[1 : 1 + self._coord_len], "big")
        y = int.from_bytes(data[1 + self._coord_len :], "big")
        return self.point(x, y)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EllipticCurveGroup) and other.params == self.params

    def __hash__(self) -> int:
        return hash(("EllipticCurveGroup", self.params))

    # -- Jacobian-coordinate kernels (internal) ------------------------------

    def _jac_double(
        self, pt: Tuple[int, int, int]
    ) -> Tuple[int, int, int]:
        x, y, z = pt
        p = self._pn
        if z == 0 or y == 0:
            return (1, 1, 0)
        y2 = (y * y) % p
        s = (4 * x * y2) % p
        z2 = (z * z) % p
        m = (3 * x * x + self._an * z2 * z2) % p
        x3 = (m * m - 2 * s) % p
        y3 = (m * (s - x3) - 8 * y2 * y2) % p
        z3 = (2 * y * z) % p
        return (x3, y3, z3)

    def _jac_add(
        self, p1: Tuple[int, int, int], p2: Tuple[int, int, int]
    ) -> Tuple[int, int, int]:
        if p1[2] == 0:
            return p2
        if p2[2] == 0:
            return p1
        p = self._pn
        x1, y1, z1 = p1
        x2, y2, z2 = p2
        z1z1 = (z1 * z1) % p
        z2z2 = (z2 * z2) % p
        u1 = (x1 * z2z2) % p
        u2 = (x2 * z1z1) % p
        s1 = (y1 * z2z2 * z2) % p
        s2 = (y2 * z1z1 * z1) % p
        if u1 == u2:
            if s1 != s2:
                return (1, 1, 0)
            return self._jac_double(p1)
        h = (u2 - u1) % p
        r = (s2 - s1) % p
        h2 = (h * h) % p
        h3 = (h2 * h) % p
        u1h2 = (u1 * h2) % p
        x3 = (r * r - h3 - 2 * u1h2) % p
        y3 = (r * (u1h2 - x3) - s1 * h3) % p
        z3 = (h * z1 * z2) % p
        return (x3, y3, z3)

    def _jac_to_affine(
        self, pt: Tuple[int, int, int]
    ) -> Optional[Tuple[int, int]]:
        x, y, z = pt
        if z == 0:
            return None
        p = self._pn
        zinv = _native.invert(z, p)
        zinv2 = (zinv * zinv) % p
        # int() at the boundary: affine coordinates (and therefore every
        # serialized byte and hash input) are always Python ints, keeping
        # the two backends byte-identical by construction.
        return (int(x * zinv2 % p), int(y * zinv2 * zinv % p))

    def _jac_batch_to_affine(
        self, points: List[Tuple[int, int, int]]
    ) -> List[Optional[Tuple[int, int]]]:
        """Affine forms of many Jacobian points for one modular inversion.

        Montgomery's trick: invert the product of all ``Z`` once, then peel
        each ``1/Z`` off it with two multiplications.  The identity
        (``Z = 0``) maps to ``None`` and is left out of the product.
        Coordinates stay in the backend's integer type; callers building
        an :class:`ECPoint` convert them with ``int()``.
        """
        p = self._pn
        prefix = []
        acc = _native.mpz(1)
        for _, _, z in points:
            if z:
                acc = acc * z % p
            prefix.append(acc)
        inv = _native.invert(acc, p)  # 1 / prefix[i], walking i downwards
        affine: List[Optional[Tuple[int, int]]] = [None] * len(points)
        for i in range(len(points) - 1, -1, -1):
            x, y, z = points[i]
            if not z:
                continue
            zinv = inv * (prefix[i - 1] if i else 1) % p
            inv = inv * z % p
            zinv2 = zinv * zinv % p
            affine[i] = (x * zinv2 % p, y * zinv2 * zinv % p)
        return affine

    def _jac_walk(
        self, steps: Iterable[Tuple[int, Optional[Tuple[int, int]]]]
    ) -> Tuple[int, int, int]:
        """Run a Jacobian accumulator, starting at the identity, through
        ``(doublings, point)`` steps: double it ``doublings`` times, then
        add the affine ``point`` (``None`` adds nothing).

        The one loop behind every exponentiation kernel: ``__pow__`` (a
        NAF ladder), :class:`~repro.groups.precompute.FixedBaseTable` and
        the same-base and recombination helpers there (sums, no
        doublings).  Doublings run inline; each addition is *mixed*
        (``Z2 = 1`` saves four multiplications against a full Jacobian
        addition), and the equal-X cases -- doubling, cancellation: met
        on small orders, or when the points were chosen to meet, as
        commitments off the wire can be -- fall back to
        :meth:`_jac_double` and the identity.  Keeping the loop in one
        frame avoids a Python call per group operation.
        """
        p = self._pn
        an = self._an
        one = _native.mpz(1)
        ax = ay = one
        az = _native.mpz(0)
        for doublings, point in steps:
            for _ in range(doublings):
                yy = ay * ay % p
                s = 4 * ax * yy % p
                zz = az * az % p
                m = (3 * ax * ax + an * zz * zz) % p
                x3 = (m * m - 2 * s) % p
                ay, az = (m * (s - x3) - 8 * yy * yy) % p, 2 * ay * az % p
                ax = x3
            if point is None:
                continue
            x2, y2 = point
            if not az:
                ax, ay, az = x2, y2, one
                continue
            z1z1 = az * az % p
            u2 = x2 * z1z1 % p
            s2 = y2 * z1z1 * az % p
            if ax == u2:
                if ay != s2:
                    ax, ay, az = one, one, _native.mpz(0)
                else:
                    ax, ay, az = self._jac_double((ax, ay, az))
                continue
            h = (u2 - ax) % p
            r = (s2 - ay) % p
            h2 = h * h % p
            h3 = h2 * h % p
            u1h2 = ax * h2 % p
            x3 = (r * r - h3 - 2 * u1h2) % p
            ax, ay, az = x3, (r * (u1h2 - x3) - ay * h3) % p, h * az % p
        return (ax, ay, az)


class ECPoint(GroupElement):
    """A point on an :class:`EllipticCurveGroup` (None = point at infinity)."""

    __slots__ = ("_group", "xy")

    def __init__(self, group: EllipticCurveGroup, xy: Optional[Tuple[int, int]]):
        self._group = group
        self.xy = xy

    @property
    def group(self) -> EllipticCurveGroup:
        return self._group

    @property
    def x(self) -> Optional[int]:
        """Affine x coordinate (None at infinity)."""
        return None if self.xy is None else self.xy[0]

    @property
    def y(self) -> Optional[int]:
        """Affine y coordinate (None at infinity)."""
        return None if self.xy is None else self.xy[1]

    def _check(self, other: "ECPoint") -> None:
        if other._group.params != self._group.params:
            raise GroupError("points on different curves")

    def __mul__(self, other: GroupElement) -> "ECPoint":
        """Group operation (point addition, multiplicative notation)."""
        if not isinstance(other, ECPoint):
            return NotImplemented
        self._check(other)
        if self.xy is None:
            return other
        if other.xy is None:
            return self
        g = self._group
        p = g.params.p
        x1, y1 = self.xy
        x2, y2 = other.xy
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return ECPoint(g, None)
            # doubling
            slope = (3 * x1 * x1 + g.params.a) * modinv(2 * y1, p) % p
        else:
            slope = (y2 - y1) * modinv((x2 - x1) % p, p) % p
        x3 = (slope * slope - x1 - x2) % p
        y3 = (slope * (x1 - x3) - y1) % p
        return ECPoint(g, (x3, y3))

    def inverse(self) -> "ECPoint":
        if self.xy is None:
            return self
        x, y = self.xy
        return ECPoint(self._group, (x, (-y) % self._group.params.p))

    def __pow__(self, exponent: int) -> "ECPoint":
        """Scalar multiplication: a left-to-right width-4 NAF ladder.

        The odd multiples ``P, 3P, 5P, 7P`` and their negatives are
        normalised to affine with one batch inversion, so the ladder costs
        one inline doubling per bit and one mixed addition per nonzero
        digit: about ``bits / 5`` additions, where binary double-and-add
        needs ``bits / 2`` full ones.
        """
        g = self._group
        e = exponent % g.params.n
        if e == 0 or self.xy is None:
            return ECPoint(g, None)
        p = g._pn
        base = (_native.mpz(self.xy[0]), _native.mpz(self.xy[1]), _native.mpz(1))
        twice = g._jac_double(base)
        odd = [base]
        for _ in range((1 << (NAF_WIDTH - 2)) - 1):
            odd.append(g._jac_add(odd[-1], twice))
        table = {}
        for i, point in enumerate(g._jac_batch_to_affine(odd)):
            table[2 * i + 1] = point
            table[-2 * i - 1] = None if point is None else (point[0], -point[1] % p)
        digits = naf_digits(e, NAF_WIDTH)
        steps = []
        previous = digits[-1][0]
        for position, digit in reversed(digits):
            steps.append((previous - position, table[digit]))
            previous = position
        steps.append((previous, None))
        return ECPoint(g, g._jac_to_affine(g._jac_walk(steps)))

    def is_identity(self) -> bool:
        return self.xy is None

    def to_bytes(self) -> bytes:
        if self.xy is None:
            return _INFINITY_BYTE
        width = self._group._coord_len
        return (
            _UNCOMPRESSED_BYTE
            + self.xy[0].to_bytes(width, "big")
            + self.xy[1].to_bytes(width, "big")
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ECPoint):
            return NotImplemented
        return self._group.params == other._group.params and self.xy == other.xy

    def __hash__(self) -> int:
        return hash(("ECPoint", self._group.params.name, self.xy))

    def __repr__(self) -> str:
        if self.xy is None:
            return "ECPoint(infinity on %s)" % self._group.name
        return "ECPoint(x=%d..., %s)" % (self.xy[0] % 10**6, self._group.name)
