"""Modular arithmetic helpers.

These are the classic building blocks used throughout the library: extended
Euclid, modular inverse, Chinese remaindering (needed by the secure-lock
baseline), Legendre symbols and Tonelli--Shanks square roots (needed to find
rational points on the genus-2 curve).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

from repro.errors import InvalidParameterError, NoSquareRootError, NotInvertibleError

__all__ = [
    "egcd",
    "modinv",
    "crt",
    "legendre_symbol",
    "modsqrt",
]


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` such that ``a*x + b*y == g == gcd(a, b)``.
    Works for negative inputs; ``g`` is always non-negative.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``m``.

    Raises :class:`NotInvertibleError` when ``gcd(a, m) != 1``.  The
    built-in three-argument ``pow`` computes the same value as
    ``egcd(a % m, m)`` (the inverse is unique) in native code.
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


def crt(residues: Sequence[int], moduli: Sequence[int]) -> Tuple[int, int]:
    """Chinese Remainder Theorem for pairwise-coprime moduli.

    Given ``x = r_i (mod m_i)`` returns ``(x, M)`` with ``M = prod(m_i)`` and
    ``0 <= x < M``.  Raises :class:`InvalidParameterError` on length mismatch
    and :class:`NotInvertibleError` if the moduli are not pairwise coprime.

    This is the computation at the heart of the secure-lock baseline
    (Chiou & Chen, reference [19] of the paper).
    """
    if len(residues) != len(moduli):
        raise InvalidParameterError(
            "need equally many residues (%d) and moduli (%d)"
            % (len(residues), len(moduli))
        )
    if not moduli:
        raise InvalidParameterError("need at least one congruence")
    x = residues[0] % moduli[0]
    m = moduli[0]
    for r_i, m_i in zip(residues[1:], moduli[1:]):
        g, p, _ = egcd(m, m_i)
        if g != 1:
            raise NotInvertibleError(
                "moduli are not pairwise coprime (gcd(%d, %d) = %d)" % (m, m_i, g)
            )
        # x' = x + m * t  with  x + m*t = r_i (mod m_i)  =>  t = (r_i - x) / m
        t = ((r_i - x) * p) % m_i
        x = x + m * t
        m *= m_i
        x %= m
    return x, m


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


def product(values: Iterable[int]) -> int:
    """Product of an iterable of ints (empty product is 1)."""
    result = 1
    for v in values:
        result *= v
    return result
