"""Tests for Miller-Rabin, and the prime generation of the secure-lock
baseline (its only user)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.mathx.primes import is_prime
from tests.gkm.baselines.secure_lock import random_prime

_PRIMES_UNDER_100 = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
}


class TestIsPrime:
    def test_small_exhaustive(self):
        for n in range(-5, 100):
            assert is_prime(n) == (n in _PRIMES_UNDER_100), n

    @pytest.mark.parametrize(
        "carmichael", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
    )
    def test_carmichael_numbers_rejected(self, carmichael):
        assert not is_prime(carmichael)

    def test_large_known_prime(self):
        assert is_prime(2**127 - 1)          # Mersenne prime
        assert is_prime(2**255 - 19)         # the curve25519 prime

    def test_large_known_composite(self):
        assert not is_prime(2**128 + 1)
        assert not is_prime((2**61 - 1) * (2**31 - 1))

    def test_paper_parameters(self):
        assert is_prime(5 * 10**24 + 8503491)
        assert is_prime(24999999999994130438600999402209463966197516075699)

    @given(st.integers(2, 10**6))
    def test_agrees_with_trial_division(self, n):
        by_trial = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == by_trial


class TestGeneration:
    def test_random_prime_bits(self):
        rng = random.Random(1)
        for bits in (8, 16, 32, 80):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_prime(p)

    def test_random_prime_rejects_tiny(self):
        with pytest.raises(InvalidParameterError):
            random_prime(1)

