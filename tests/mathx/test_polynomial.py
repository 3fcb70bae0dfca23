"""Tests for dense polynomials over prime fields."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FieldMismatchError
from repro.mathx.field import PrimeField
from repro.mathx.polynomial import Poly

F = PrimeField(10007)

coeff_lists = st.lists(st.integers(0, F.p - 1), min_size=0, max_size=8)


def poly(coeffs):
    return Poly(F, coeffs)


class TestConstruction:
    def test_normalization(self):
        assert poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert poly([0, 0]).is_zero()
        assert Poly.zero(F).degree == -1

    def test_constructors(self):
        assert Poly.one(F).coeffs == (1,)
        assert Poly.constant(F, 7).coeffs == (7,)


class TestRingAxioms:
    @given(coeff_lists, coeff_lists)
    def test_add_commutes(self, a, b):
        assert poly(a) + poly(b) == poly(b) + poly(a)

    @given(coeff_lists, coeff_lists)
    def test_mul_commutes(self, a, b):
        assert poly(a) * poly(b) == poly(b) * poly(a)

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_distributivity(self, a, b, c):
        pa, pb, pc = poly(a), poly(b), poly(c)
        assert pa * (pb + pc) == pa * pb + pa * pc

    @given(coeff_lists)
    def test_additive_inverse(self, a):
        assert (poly(a) + (-poly(a))).is_zero()

    @given(coeff_lists)
    def test_mul_by_scalar(self, a):
        assert poly(a) * 1 == poly(a)
        assert (poly(a) * 0).is_zero()
        assert poly(a) * 3 == poly(a) + poly(a) + poly(a)

    def test_degree_of_product(self):
        a, b = poly([1, 2, 3]), poly([4, 5])
        assert (a * b).degree == a.degree + b.degree


class TestDivision:
    @given(coeff_lists, coeff_lists)
    def test_divmod_invariant(self, a, b):
        pa, pb = poly(a), poly(b)
        if pb.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(pa, pb)
            return
        q, r = divmod(pa, pb)
        assert q * pb + r == pa
        assert r.degree < pb.degree

    def test_exact_division(self):
        a = poly([-1, 1]) * poly([-2, 1]) * poly([-3, 1])  # (x-1)(x-2)(x-3)
        q, r = divmod(a, poly([-2, 1]))
        assert r.is_zero()
        assert q == poly([-1, 1]) * poly([-3, 1])

    def test_mod_and_floordiv_operators(self):
        a, b = poly([1, 0, 0, 1]), poly([1, 1])
        assert a // b * b + a % b == a

    @given(coeff_lists, coeff_lists)
    def test_gcd_divides_both(self, a, b):
        pa, pb = poly(a), poly(b)
        g = pa.xgcd(pb)[0]
        if g.is_zero():
            assert pa.is_zero() and pb.is_zero()
        else:
            assert (pa % g).is_zero()
            assert (pb % g).is_zero()
            assert g.is_monic()

    @given(coeff_lists, coeff_lists)
    def test_xgcd_bezout(self, a, b):
        pa, pb = poly(a), poly(b)
        g, s, t = pa.xgcd(pb)
        assert s * pa + t * pb == g

    def test_gcd_of_common_factor(self):
        common = poly([-7, 1])
        a = common * poly([1, 1])
        b = common * poly([2, 0, 1])
        assert (a.xgcd(b)[0] % common).is_zero()


class TestMisc:
    def test_monic(self):
        p = poly([2, 4])
        m = p.monic()
        assert m.is_monic()
        assert m == poly([F(2) / F(4), 1])

    @given(coeff_lists, st.integers(0, F.p - 1))
    def test_evaluation_matches_horner(self, coeffs, x):
        p = poly(coeffs)
        expected = sum(c * pow(x, i, F.p) for i, c in enumerate(p.coeffs)) % F.p
        assert p(x) == F(expected)

    def test_field_mismatch(self):
        other = Poly(PrimeField(10009), [1])
        with pytest.raises(FieldMismatchError):
            poly([1]) + other

    def test_repr_readable(self):
        assert "x^2" in repr(poly([1, 0, 3]))
        assert repr(Poly.zero(F)) == "Poly(0)"

    def test_equality_with_int(self):
        assert poly([5]) == 5
        assert Poly.zero(F) == 0
