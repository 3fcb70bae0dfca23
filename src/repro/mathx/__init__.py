"""Number-theoretic and algebraic substrate.

This subpackage provides everything the cryptographic layers need and that
the paper's C++ implementation obtained from NTL:

* :mod:`repro.mathx.modular` -- extended gcd, modular inverse, CRT,
  Legendre symbol, Tonelli--Shanks square roots.
* :mod:`repro.mathx.primes` -- Miller--Rabin primality testing and prime
  generation.
* :mod:`repro.mathx.field` -- prime fields ``F_p`` with an element type that
  supports natural operator syntax.
* :mod:`repro.mathx.polynomial` -- dense univariate polynomials over a prime
  field (used by the genus-2 Jacobian arithmetic and the ACP baseline).
* :mod:`repro.mathx.linalg` -- dense matrices over a prime field with
  Gauss--Jordan elimination, rank, null-space computation and a vectorised
  numpy kernel for word-sized primes.
"""

from repro.mathx.field import FieldElement, PrimeField
from repro.mathx.linalg import Matrix, null_space, solve
from repro.mathx.modular import (
    crt,
    egcd,
    legendre_symbol,
    modinv,
    modsqrt,
)
from repro.mathx.polynomial import Poly
from repro.mathx.primes import is_prime, next_prime, random_prime

__all__ = [
    "FieldElement",
    "PrimeField",
    "Matrix",
    "null_space",
    "solve",
    "crt",
    "egcd",
    "legendre_symbol",
    "modinv",
    "modsqrt",
    "Poly",
    "is_prime",
    "next_prime",
    "random_prime",
]
