"""Reference implementations the group kernels are pinned against, and
the toy curves they are pinned on.

``binary_pow`` is the right-to-left double-and-add ladder with full
Jacobian additions that ``ECPoint.__pow__`` ran before the width-4 NAF
kernel; ``egcd_modinv`` is ``modinv`` by the extended Euclid, as it was
before the built-in ``pow(a, -1, m)``.  They live beside the tests, not
in ``src/``, so the library keeps one path per operation;
``benchmarks/test_ocbe_registration.py`` also patches them in to rebuild
the seed's arithmetic for its ``naive`` baseline.
"""

from repro.errors import InvalidParameterError, NotInvertibleError
from repro.groups import _native
from repro.groups.elliptic import CurveParams, ECPoint
from repro.mathx.modular import egcd

#: Prime-order toy curves.  Orders up to 7 put the identity among the
#: NAF kernel's odd multiples ``P, 3P, 5P, 7P`` (and in fixed-base table
#: rows); up to 19 every exponent and every base point is checked, which
#: drives the ladder's equal-X (doubling) fallback; the 17-bit one has
#: ``a = -3`` like the NIST curves.
TOY_CURVES = [
    CurveParams("toy-2", p=5, a=2, b=0, gx=0, gy=0, n=2),
    CurveParams("toy-3", p=5, a=4, b=2, gx=3, gy=1, n=3),
    CurveParams("toy-5", p=5, a=3, b=2, gx=1, gy=1, n=5),
    CurveParams("toy-7", p=5, a=2, b=1, gx=0, gy=1, n=7),
    CurveParams("toy-11", p=7, a=1, b=6, gx=1, gy=1, n=11),
    CurveParams("toy-13", p=7, a=0, b=3, gx=1, gy=2, n=13),
    CurveParams("toy-17", p=11, a=2, b=4, gx=0, gy=2, n=17),
    CurveParams("toy-19", p=13, a=0, b=2, gx=1, gy=4, n=19),
    CurveParams("toy-65563", p=65521, a=-3, b=3, gx=1, gy=1, n=65563),
]


def binary_pow(point: ECPoint, exponent: int) -> ECPoint:
    """``point ** exponent`` by binary double-and-add."""
    g = point.group
    e = exponent % g.params.n
    if e == 0 or point.xy is None:
        return ECPoint(g, None)
    acc = (1, 1, 0)
    base = (_native.mpz(point.xy[0]), _native.mpz(point.xy[1]), 1)
    while e:
        if e & 1:
            acc = g._jac_add(acc, base)
        base = g._jac_double(base)
        e >>= 1
    return ECPoint(g, g._jac_to_affine(acc))


def egcd_modinv(a: int, m: int) -> int:
    """Modular inverse by the extended Euclid, with ``modinv``'s errors."""
    if m <= 0:
        raise InvalidParameterError("modulus must be positive, got %r" % m)
    a %= m
    g, x, _ = egcd(a, m)
    if g != 1:
        raise NotInvertibleError("%d has no inverse modulo %d (gcd=%d)" % (a, m, g))
    return x % m
