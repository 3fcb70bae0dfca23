"""Number-theoretic and algebraic substrate.

This subpackage provides everything the cryptographic layers need and that
the paper's C++ implementation obtained from NTL:

* :mod:`repro.mathx.modular` -- modular inverse, Legendre symbol,
  Tonelli--Shanks square roots.
* :mod:`repro.mathx.primes` -- Miller--Rabin primality testing.
* :mod:`repro.mathx.field` -- prime fields ``F_p`` with an element type that
  supports natural operator syntax.
* :mod:`repro.mathx.polynomial` -- dense univariate polynomials over a prime
  field (the genus-2 Jacobian's Mumford pairs).
* :mod:`repro.mathx.linalg` -- dense matrices over a prime field with
  Gauss--Jordan elimination, null-space computation, the incrementally
  maintained elimination of the ACV, and a vectorised numpy kernel for
  word-sized primes.
"""

from repro.mathx.field import FieldElement, PrimeField
from repro.mathx.linalg import Matrix
from repro.mathx.modular import legendre_symbol, modinv, modsqrt
from repro.mathx.polynomial import Poly
from repro.mathx.primes import is_prime

__all__ = [
    "FieldElement",
    "PrimeField",
    "Matrix",
    "legendre_symbol",
    "modinv",
    "modsqrt",
    "Poly",
    "is_prime",
]
