"""Unit + property tests for repro.mathx.modular."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidParameterError, NoSquareRootError, NotInvertibleError
from repro.mathx.modular import crt, egcd, legendre_symbol, modinv, modsqrt
from tests.groups.reference import egcd_modinv


class TestEgcd:
    def test_basic(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == 2

    def test_coprime(self):
        g, x, y = egcd(17, 31)
        assert g == 1
        assert 17 * x + 31 * y == 1

    def test_zero_cases(self):
        assert egcd(0, 5)[0] == 5
        assert egcd(5, 0)[0] == 5
        assert egcd(0, 0)[0] == 0

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


class TestModinv:
    def test_known(self):
        assert modinv(3, 7) == 5  # 3*5 = 15 = 1 mod 7

    def test_negative_input(self):
        assert (modinv(-3, 7) * (-3)) % 7 == 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            modinv(6, 9)

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            modinv(0, 11)

    def test_bad_modulus(self):
        with pytest.raises(InvalidParameterError):
            modinv(1, 0)

    @given(st.integers(1, 10**6))
    def test_inverse_mod_prime(self, a):
        p = 1_000_003
        if a % p == 0:
            a += 1
        inv = modinv(a, p)
        assert (a * inv) % p == 1
        assert 0 <= inv < p

    @given(a=st.integers(-(2**200), 2**200), m=st.integers(1, 2**200))
    def test_equals_extended_euclid(self, a, m):
        _assert_same_as_extended_euclid(a, m)

    @pytest.mark.parametrize(
        "a, m",
        [
            (-3, 7),
            (-1, 2**192 - 2**64 - 1),
            (10**30 + 1, 7),
            (5, 1),
            (0, 1),
            (-5, 1),
            (6, 9),
            (-6, 9),
            (0, 11),
            (22, 11),
            (2**64, 2**70),
        ],
    )
    def test_edges_equal_extended_euclid(self, a, m):
        _assert_same_as_extended_euclid(a, m)


def _assert_same_as_extended_euclid(a, m):
    """Same value as the extended-Euclid reference, or the same typed
    error with the same message (the reduced ``a`` and the gcd)."""
    try:
        expected = egcd_modinv(a, m)
    except NotInvertibleError as error:
        with pytest.raises(NotInvertibleError, match=r"\(gcd=\d+\)$") as raised:
            modinv(a, m)
        assert str(raised.value) == str(error)
    else:
        assert modinv(a, m) == expected


class TestCrt:
    def test_classic(self):
        x, m = crt([2, 3, 2], [3, 5, 7])
        assert x == 23
        assert m == 105

    def test_single(self):
        assert crt([4], [9]) == (4, 9)

    def test_not_coprime(self):
        with pytest.raises(NotInvertibleError):
            crt([1, 2], [4, 6])

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            crt([1], [3, 5])

    def test_empty(self):
        with pytest.raises(InvalidParameterError):
            crt([], [])

    @given(st.integers(0, 10**8), st.integers(0, 10**8))
    def test_reconstruction(self, r1, r2):
        m1, m2 = 10007, 10009  # twin-ish primes, coprime
        x, m = crt([r1 % m1, r2 % m2], [m1, m2])
        assert m == m1 * m2
        assert x % m1 == r1 % m1
        assert x % m2 == r2 % m2


class TestLegendreAndSqrt:
    def test_legendre_known(self):
        # QRs mod 11: 1, 3, 4, 5, 9
        assert [legendre_symbol(a, 11) for a in range(1, 11)] == [
            1, -1, 1, 1, 1, -1, -1, -1, 1, -1,
        ]

    def test_legendre_zero(self):
        assert legendre_symbol(22, 11) == 0

    def test_legendre_rejects_even(self):
        with pytest.raises(InvalidParameterError):
            legendre_symbol(3, 8)

    @pytest.mark.parametrize("p", [11, 13, 10007, 1_000_003])
    def test_sqrt_all_residues(self, p):
        residues = {pow(a, 2, p) for a in range(1, min(p, 500))}
        for a in sorted(residues)[:50]:
            root = modsqrt(a, p)
            assert pow(root, 2, p) == a

    def test_sqrt_zero(self):
        assert modsqrt(0, 13) == 0

    def test_sqrt_non_residue(self):
        with pytest.raises(NoSquareRootError):
            modsqrt(2, 11)

    def test_sqrt_p_3_mod_4_branch(self):
        p = 10007  # 10007 % 4 == 3
        assert p % 4 == 3
        root = modsqrt(9, p)
        assert pow(root, 2, p) == 9

    def test_sqrt_p_1_mod_4_branch(self):
        p = 1_000_033  # 1 mod 4 -> full Tonelli-Shanks
        assert p % 4 == 1
        a = pow(12345, 2, p)
        root = modsqrt(a, p)
        assert pow(root, 2, p) == a

    @given(st.integers(1, 10**6))
    def test_sqrt_roundtrip(self, x):
        p = 999_983
        a = pow(x, 2, p)
        root = modsqrt(a, p)
        assert pow(root, 2, p) == a
