"""Tests for the elliptic-curve backend."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GroupError, InvalidParameterError, NotOnCurveError
from repro.groups.elliptic import CurveParams, EllipticCurveGroup, naf_digits
from repro.groups.params import NIST_P192, NIST_P256, SECP256K1
from repro.mathx.primes import is_prime
from tests.groups.reference import TOY_CURVES, binary_pow

ALL_CURVES = [NIST_P192, NIST_P256, SECP256K1]
KERNEL_CURVES = ALL_CURVES + TOY_CURVES


def _naf_carry_runs(bits):
    """Exponents whose width-4 NAF carries the most: runs of ones, and
    repeated nibbles just either side of the digit bound."""
    runs = [(1 << k) - 1 for k in (3, 4, 5, 8, 9, bits - 1, bits)]
    for nibble in (0x7, 0x9, 0xF, 0xB):
        runs.append(int(("%x" % nibble) * max(1, bits // 4), 16))
    return runs


def _edge_exponents(n):
    bits = n.bit_length()
    exponents = [0, 1, 2, 7, 8, 15, 16, n - 1, n, n + 1, -1, -n, 2 * n + 5]
    for k in sorted({1, 2, 3, 4, 5, 8, bits // 2, bits - 1, bits, bits + 1}):
        exponents += [(1 << k) - 1, (1 << k) + 1]
    return exponents + _naf_carry_runs(bits)


@pytest.fixture(scope="module")
def p192():
    return EllipticCurveGroup(NIST_P192)


@pytest.mark.parametrize("params", ALL_CURVES, ids=lambda p: p.name)
class TestDomainParameters:
    def test_validate(self, params):
        params.validate()  # base point on curve, non-singular

    def test_prime_field_and_order(self, params):
        assert is_prime(params.p)
        assert is_prime(params.n)

    def test_generator_has_group_order(self, params):
        group = EllipticCurveGroup(params)
        g = group.generator()
        assert (g ** params.n).is_identity()
        assert not (g ** 1).is_identity()


class TestGroupLaw:
    def test_add_commutes(self, p192):
        rng = random.Random(0)
        a = p192.random_element(rng)
        b = p192.random_element(rng)
        assert a * b == b * a

    def test_associativity(self, p192):
        rng = random.Random(1)
        a, b, c = (p192.random_element(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    def test_identity_laws(self, p192):
        rng = random.Random(2)
        a = p192.random_element(rng)
        e = p192.identity()
        assert a * e == a
        assert e * a == a
        assert e * e == e

    def test_inverse(self, p192):
        rng = random.Random(3)
        a = p192.random_element(rng)
        assert (a * a.inverse()).is_identity()
        assert a.inverse().inverse() == a

    def test_doubling_matches_addition(self, p192):
        g = p192.generator()
        assert g * g == g ** 2

    def test_point_plus_negation_is_infinity(self, p192):
        g = p192.generator()
        assert (g * g.inverse()).is_identity()

    @settings(max_examples=10)
    @given(k=st.integers(1, 2**64), j=st.integers(1, 2**64))
    def test_scalar_homomorphism(self, p192, k, j):
        g = p192.generator()
        assert g ** k * g ** j == g ** (k + j)
        assert (g ** k) ** j == g ** ((k * j) % p192.order)

    def test_scalar_zero_and_order(self, p192):
        g = p192.generator()
        assert (g ** 0).is_identity()
        assert (g ** p192.order).is_identity()
        assert g ** (p192.order + 1) == g

    def test_negative_scalar(self, p192):
        g = p192.generator()
        assert g ** -1 == g.inverse()

    def test_jacobian_matches_affine_chain(self, p192):
        """Scalar mult (Jacobian coords) against repeated affine addition."""
        g = p192.generator()
        acc = p192.identity()
        for k in range(1, 20):
            acc = acc * g
            assert acc == g ** k

    def test_truediv(self, p192):
        g = p192.generator()
        assert (g ** 5) / (g ** 2) == g ** 3


class TestNafKernel:
    """``ECPoint.__pow__`` (width-4 NAF ladder) against the binary
    double-and-add reference in ``tests/groups/reference.py``."""

    @pytest.mark.parametrize("params", TOY_CURVES, ids=lambda p: p.name)
    def test_toy_curve_parameters(self, params):
        group = EllipticCurveGroup(params)
        g = group.generator()
        assert is_prime(params.n)
        assert binary_pow(g, params.n).is_identity()

    @pytest.mark.parametrize("params", KERNEL_CURVES, ids=lambda p: p.name)
    def test_edge_exponents(self, params):
        group = EllipticCurveGroup(params)
        base = binary_pow(group.generator(), 0xC0FFEE)
        for e in _edge_exponents(params.n):
            mine = base ** e
            assert mine == binary_pow(base, e), "exponent %d" % e
            assert mine.xy is None or all(type(c) is int for c in mine.xy)

    @pytest.mark.parametrize(
        "params", [c for c in TOY_CURVES if c.n < 20], ids=lambda p: p.name
    )
    def test_every_base_and_exponent_of_a_tiny_curve(self, params):
        group = EllipticCurveGroup(params)
        g = group.generator()
        for k in range(params.n):
            base = binary_pow(g, k)
            for e in range(-2 * params.n, 2 * params.n + 1):
                assert base ** e == binary_pow(base, e), (k, e)

    @pytest.mark.parametrize("params", KERNEL_CURVES, ids=lambda p: p.name)
    def test_identity_base(self, params):
        identity = EllipticCurveGroup(params).identity()
        for e in (0, 1, 7, params.n - 1, params.n + 1, -1):
            assert (identity ** e).is_identity()

    @settings(max_examples=150, deadline=None)
    @given(
        params=st.sampled_from(KERNEL_CURVES),
        k=st.integers(1, 2**64),
        e=st.one_of(
            st.integers(-(2**300), 2**300),
            st.builds(
                lambda k, sign: (1 << k) + sign,
                st.integers(0, 300),
                st.sampled_from([-1, 0, 1]),
            ),
            st.integers(3, 300).map(lambda k: (1 << k) - 1 - (1 << (k - 2))),
        ),
    )
    def test_matches_binary_ladder(self, params, k, e):
        group = EllipticCurveGroup(params)
        base = binary_pow(group.generator(), k)
        assert base ** e == binary_pow(base, e)

    @settings(max_examples=200, deadline=None)
    @given(e=st.integers(0, 2**300), width=st.integers(2, 6))
    def test_naf_digits(self, e, width):
        digits = naf_digits(e, width)
        assert sum(d << pos for pos, d in digits) == e
        assert all(d % 2 and abs(d) < 1 << (width - 1) for _, d in digits)
        gaps = [b[0] - a[0] for a, b in zip(digits, digits[1:])]
        assert all(gap >= width for gap in gaps)


class TestPointsAndEncoding:
    def test_point_validation(self, p192):
        with pytest.raises(NotOnCurveError):
            p192.point(1, 1)

    def test_lift_x(self, p192):
        g = p192.generator()
        lifted = p192.lift_x(g.x, g.y % 2)
        assert lifted == g

    def test_lift_x_parity(self, p192):
        g = p192.generator()
        even = p192.lift_x(g.x, 0)
        odd = p192.lift_x(g.x, 1)
        assert even.y % 2 == 0
        assert odd.y % 2 == 1
        assert even == odd.inverse()

    def test_bytes_roundtrip(self, p192):
        rng = random.Random(4)
        a = p192.random_element(rng)
        assert p192.element_from_bytes(a.to_bytes()) == a

    def test_infinity_roundtrip(self, p192):
        e = p192.identity()
        assert e.to_bytes() == b"\x00"
        assert p192.element_from_bytes(b"\x00").is_identity()

    def test_malformed_bytes(self, p192):
        with pytest.raises(GroupError):
            p192.element_from_bytes(b"\x04\x01\x02")
        with pytest.raises(NotOnCurveError):
            # right length, not on curve
            bad = b"\x04" + (1).to_bytes(24, "big") + (1).to_bytes(24, "big")
            p192.element_from_bytes(bad)

    def test_hash_to_element(self, p192):
        a = p192.hash_to_element(b"tag-1")
        b = p192.hash_to_element(b"tag-2")
        assert a != b
        assert a == p192.hash_to_element(b"tag-1")
        assert not a.is_identity()

    def test_cross_curve_rejected(self):
        g1 = EllipticCurveGroup(NIST_P192).generator()
        g2 = EllipticCurveGroup(NIST_P256).generator()
        with pytest.raises(GroupError):
            g1 * g2

    def test_singular_curve_rejected(self):
        singular = CurveParams(
            name="bad", p=NIST_P192.p, a=0, b=0, gx=0, gy=0, n=NIST_P192.n
        )
        with pytest.raises(InvalidParameterError):
            EllipticCurveGroup(singular)

    def test_off_curve_base_point_rejected(self):
        bad = CurveParams(
            name="bad",
            p=NIST_P192.p,
            a=NIST_P192.a,
            b=NIST_P192.b,
            gx=NIST_P192.gx,
            gy=NIST_P192.gy + 1,
            n=NIST_P192.n,
        )
        with pytest.raises(InvalidParameterError):
            EllipticCurveGroup(bad)
