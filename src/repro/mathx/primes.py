"""Primality testing.

Miller--Rabin with the deterministic witness sets for 64-bit integers and a
randomised round count beyond that.  Every modulus the library uses is a
constant (:mod:`repro.groups.params`, :mod:`repro.gkm.acv`); this test
checks them when a field or group is built.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["is_prime"]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)

# Deterministic Miller-Rabin witnesses for n < 3,317,044,064,679,887,385,961,981
# (covers all 64-bit integers and then some).  Sinclair / Sorenson-Webster.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BOUND = 3317044064679887385961981


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int, rounds: int = 40, rng: Optional[random.Random] = None) -> bool:
    """Probabilistic primality test.

    Deterministic for ``n`` below ~3.3e24 (which covers every modulus this
    library generates below 81 bits); Miller--Rabin with ``rounds`` random
    bases beyond that, giving an error probability below ``4**-rounds``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n - 1]
    else:
        rng = rng or random
        witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in witnesses:
        if _miller_rabin_witness(n, a, d, r):
            return False
    return True

