"""Modular arithmetic helpers.

The modular inverse (native ``pow``), Legendre symbols and Tonelli--Shanks
square roots (needed to find rational points on the elliptic and genus-2
curves).
"""

from __future__ import annotations

import math

from repro.errors import InvalidParameterError, NoSquareRootError, NotInvertibleError

__all__ = ["modinv", "legendre_symbol", "modsqrt"]


def modinv(a: int, m: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``m``.

    Raises :class:`NotInvertibleError` when ``gcd(a, m) != 1``.  The
    built-in three-argument ``pow`` computes the inverse in native code.
    """
    if m <= 0:
        raise InvalidParameterError("modulus must be positive, got %r" % m)
    try:
        return pow(a, -1, m)
    except ValueError:
        a %= m
        raise NotInvertibleError(
            "%d has no inverse modulo %d (gcd=%d)" % (a, m, math.gcd(a, m))
        ) from None


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol ``(a/p)`` for an odd prime ``p``.

    Returns ``1`` if ``a`` is a nonzero quadratic residue, ``-1`` if it is a
    non-residue and ``0`` if ``p`` divides ``a``.
    """
    if p < 3 or p % 2 == 0:
        raise InvalidParameterError("p must be an odd prime, got %r" % p)
    a %= p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else 1


def modsqrt(a: int, p: int) -> int:
    """Tonelli--Shanks square root modulo an odd prime ``p``.

    Returns the root ``x`` with ``x**2 = a (mod p)`` and ``0 <= x < p``
    (the caller can negate for the other root).  Raises
    :class:`NoSquareRootError` when ``a`` is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if legendre_symbol(a, p) != 1:
        raise NoSquareRootError("%d is not a quadratic residue mod %d" % (a, p))
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Find a non-residue z.
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i in (0, m) with t^(2^i) == 1.
        i, t2i = 0, t
        while t2i != 1:
            t2i = (t2i * t2i) % p
            i += 1
            if i == m:
                raise NoSquareRootError(
                    "Tonelli-Shanks failed; %d is not a residue mod %d" % (a, p)
                )
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = (b * b) % p
        t = (t * c) % p
        r = (r * b) % p
    return r

