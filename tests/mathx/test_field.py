"""Tests for prime fields, including hypothesis-checked field axioms."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    FieldMismatchError,
    InvalidParameterError,
    NoSquareRootError,
    NotInvertibleError,
)
from repro.mathx.field import PrimeField
from repro.mathx.modular import legendre_symbol, modsqrt

F = PrimeField(10007)
elements = st.integers(0, F.p - 1)


class TestConstruction:
    def test_rejects_composite(self):
        with pytest.raises(InvalidParameterError):
            PrimeField(10)

    def test_rejects_small(self):
        with pytest.raises(InvalidParameterError):
            PrimeField(1)

    def test_check_prime_skip(self):
        # check_prime=False is the documented fast path for known primes.
        assert PrimeField(7, check_prime=False).p == 7

    def test_equality_and_hash(self):
        assert PrimeField(10007) == PrimeField(10007)
        assert hash(PrimeField(10007)) == hash(PrimeField(10007))
        assert PrimeField(10007) != PrimeField(10009)

    def test_metadata(self):
        assert F.order == 10007
        assert F.bit_length == 14
        assert F.byte_length == 2

    def test_coercion_and_mismatch(self):
        e = F(12345)
        assert int(e) == 12345 % 10007
        with pytest.raises(FieldMismatchError):
            PrimeField(10009)(e)


class TestArithmetic:
    @given(elements, elements)
    def test_commutativity(self, a, b):
        assert F(a) + F(b) == F(b) + F(a)
        assert F(a) * F(b) == F(b) * F(a)

    @given(elements, elements, elements)
    def test_associativity_and_distributivity(self, a, b, c):
        fa, fb, fc = F(a), F(b), F(c)
        assert (fa + fb) + fc == fa + (fb + fc)
        assert (fa * fb) * fc == fa * (fb * fc)
        assert fa * (fb + fc) == fa * fb + fa * fc

    @given(elements)
    def test_identities_and_inverses(self, a):
        fa = F(a)
        assert fa + F.zero() == fa
        assert fa * F.one() == fa
        assert fa + (-fa) == F.zero()
        if a != 0:
            assert fa * fa.inverse() == F.one()
            assert fa / fa == F.one()

    @given(elements, elements)
    def test_sub_and_div_consistency(self, a, b):
        fa, fb = F(a), F(b)
        assert fa - fb == fa + (-fb)
        if b != 0:
            assert (fa / fb) * fb == fa

    def test_int_interop_both_sides(self):
        assert 3 + F(4) == F(7)
        assert F(4) + 3 == F(7)
        assert 3 * F(4) == F(12)
        assert 10 - F(4) == F(6)
        assert F(1) / 2 == F(2).inverse()
        assert 2 / F(2) == F.one()

    def test_pow_negative(self):
        assert F(3) ** -1 == F(3).inverse()
        assert F(3) ** -2 == (F(3) ** 2).inverse()

    def test_pow_zero(self):
        assert F(5) ** 0 == F.one()

    def test_zero_inverse_raises(self):
        with pytest.raises(NotInvertibleError):
            F.zero().inverse()
        with pytest.raises(NotInvertibleError):
            F(1) / F(0)

    def test_mismatched_fields(self):
        with pytest.raises(FieldMismatchError):
            F(1) + PrimeField(10009)(1)

    @given(elements)
    def test_sqrt_of_squares(self, a):
        sq = F(a) * F(a)
        root = F(modsqrt(int(sq), F.p))
        assert root * root == sq
        assert legendre_symbol(int(sq), F.p) != -1

    def test_non_residue(self):
        non_residue = next(
            a for a in range(2, 100) if pow(a, (F.p - 1) // 2, F.p) == F.p - 1
        )
        assert legendre_symbol(non_residue, F.p) == -1
        with pytest.raises(NoSquareRootError):
            modsqrt(non_residue, F.p)


class TestSamplingAndEncoding:
    @given(elements)
    def test_bytes_roundtrip(self, a):
        fa = F(a)
        assert F.from_bytes(fa.to_bytes()) == fa
        assert len(fa.to_bytes()) == F.byte_length

    def test_bool_and_is_zero(self):
        assert not F.zero()
        assert F.zero().is_zero()
        assert F(3)
        assert not F(3).is_zero()

    def test_eq_with_int_wraps(self):
        assert F(10007 + 5) == 5
        assert F(5) == 10007 + 5
