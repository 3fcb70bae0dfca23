"""Tests for the genus-2 Jacobian: Cantor arithmetic on the paper's curve."""

import random

import pytest

from repro.errors import GroupError, InvalidParameterError, NotOnCurveError
from repro.groups.jacobian import GenusTwoJacobian, JacobianParams
from repro.groups.params import PAPER_GENUS2
from repro.mathx.modular import legendre_symbol
from repro.mathx.polynomial import Poly
from repro.mathx.primes import is_prime


@pytest.fixture(scope="module")
def jac():
    return GenusTwoJacobian(PAPER_GENUS2, check=False)


class TestPaperParameters:
    """Pin down the exact values printed in Section VII."""

    def test_field_prime(self):
        assert PAPER_GENUS2.q == 5 * 10**24 + 8503491
        assert PAPER_GENUS2.q.bit_length() == 83
        assert is_prime(PAPER_GENUS2.q)

    def test_jacobian_order_prime(self):
        assert (
            PAPER_GENUS2.order
            == 24999999999994130438600999402209463966197516075699
        )
        assert is_prime(PAPER_GENUS2.order)

    def test_hasse_weil_interval(self):
        import math

        q = PAPER_GENUS2.q
        lower = (math.isqrt(q) - 1) ** 4
        upper = (math.isqrt(q) + 2) ** 4
        assert lower <= PAPER_GENUS2.order <= upper

    def test_order_annihilates_random_divisors(self, jac):
        """The strongest consistency check: p * D = 0 for random D."""
        rng = random.Random(0)
        for _ in range(2):
            d = jac.random_element(rng)
            assert (d ** jac.order).is_identity()

    def test_f_is_monic_degree_5(self):
        PAPER_GENUS2.validate()
        bad = JacobianParams("x", 7, (1, 2, 3), 11)
        with pytest.raises(InvalidParameterError):
            bad.validate()


class TestGroupLaw:
    def test_identity(self, jac):
        e = jac.identity()
        assert e.is_identity()
        assert e.weight == 0
        d = jac.hash_to_element(b"t")
        assert d * e == d

    def test_commutativity(self, jac):
        rng = random.Random(1)
        a, b = jac.random_element(rng), jac.random_element(rng)
        assert a * b == b * a

    def test_associativity(self, jac):
        rng = random.Random(2)
        a, b, c = (jac.random_element(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    def test_inverse(self, jac):
        rng = random.Random(3)
        a = jac.random_element(rng)
        assert (a * a.inverse()).is_identity()

    def test_weight_one_arithmetic(self, jac):
        """Adding a weight-1 divisor to itself yields weight 2 generically."""
        d = jac.hash_to_element(b"w1")
        assert d.weight == 1
        assert (d * d).weight == 2

    def test_scalar_homomorphism(self, jac):
        rng = random.Random(4)
        d = jac.random_element(rng)
        a = rng.randrange(1, 2**40)
        b = rng.randrange(1, 2**40)
        assert d ** a * d ** b == d ** (a + b)

    def test_scalar_edge_cases(self, jac):
        d = jac.hash_to_element(b"edge")
        assert (d ** 0).is_identity()
        assert d ** 1 == d
        assert d ** -1 == d.inverse()
        assert d ** 2 == d * d
        assert d ** 3 == d * d * d

    def test_truediv(self, jac):
        d = jac.hash_to_element(b"div")
        assert (d ** 5) / (d ** 3) == d ** 2


class TestDivisorConstruction:
    def test_point_divisor_requires_curve_point(self, jac):
        with pytest.raises(NotOnCurveError):
            jac.point_divisor(1, 1)

    def test_point_divisor_valid(self, jac):
        x2_square = legendre_symbol(int(jac.f(2)), jac.params.q) != -1
        x, y = jac.lift_x(2) if x2_square else jac.lift_x(3)
        d = jac.point_divisor(x, y)
        assert d.weight == 1
        # Mumford invariant: u | v^2 - f.
        assert ((d.v * d.v - jac.f) % d.u).is_zero()

    def test_two_point_divisor(self, jac):
        rng = random.Random(5)
        d = jac.random_element(rng)
        assert d.weight == 2
        assert ((d.v * d.v - jac.f) % d.u).is_zero()
        assert d.u.is_monic()

    def test_two_point_divisor_same_x_rejected(self, jac):
        # find a valid point
        x = 0
        while True:
            try:
                px, py = jac.lift_x(x)
                break
            except Exception:
                x += 1
        with pytest.raises(InvalidParameterError):
            jac.two_point_divisor(px, py, px, (-py) % jac.params.q)

    def test_divisor_validation(self, jac):
        fe = jac.field
        with pytest.raises(NotOnCurveError):
            jac.divisor(Poly(fe, (1, 2, 3, 1)), Poly.zero(fe))  # deg u = 3
        with pytest.raises(NotOnCurveError):
            jac.divisor(Poly(fe, (5, 1)), Poly.zero(fe))  # u does not divide f

    def test_negation_is_mumford_negation(self, jac):
        d = jac.hash_to_element(b"neg")
        neg = d.inverse()
        assert neg.u == d.u
        assert neg.v == (-d.v) % d.u


class TestSerializationAndHashing:
    def test_roundtrip_weights(self, jac):
        rng = random.Random(6)
        for d in (jac.identity(), jac.hash_to_element(b"a"), jac.random_element(rng)):
            assert jac.element_from_bytes(d.to_bytes()) == d

    def test_bad_length(self, jac):
        with pytest.raises(GroupError):
            jac.element_from_bytes(b"\x00")

    def test_bad_degree_marker(self, jac):
        raw = bytearray(jac.identity().to_bytes())
        raw[0] = 9
        with pytest.raises(GroupError):
            jac.element_from_bytes(bytes(raw))

    def test_tampered_payload_rejected(self, jac):
        # Weight-1 divisor: tampering the zero padding must be rejected as a
        # non-canonical encoding (GroupError subsumes NotOnCurveError).
        raw = bytearray(jac.hash_to_element(b"x").to_bytes())
        raw[-1] ^= 1
        with pytest.raises(GroupError):
            jac.element_from_bytes(bytes(raw))

    def test_tampered_v_rejected(self, jac):
        # Weight-2 divisor: tampering v breaks the Mumford invariant.
        rng = random.Random(7)
        raw = bytearray(jac.random_element(rng).to_bytes())
        raw[-1] ^= 1
        with pytest.raises(GroupError):
            jac.element_from_bytes(bytes(raw))

    def test_unreduced_coordinate_refused(self, jac):
        # u0 and u0 + q name the same divisor; only the reduced u0 is canonical.
        raw = bytearray(jac.random_element(random.Random(8)).to_bytes())
        width = (jac.params.q.bit_length() + 7) // 8
        u0 = int.from_bytes(raw[1 : 1 + width], "big")
        raw[1 : 1 + width] = (u0 + jac.params.q).to_bytes(width, "big")
        with pytest.raises(GroupError, match="non-canonical"):
            jac.element_from_bytes(bytes(raw))

    def test_hash_to_element_distinct(self, jac):
        assert jac.hash_to_element(b"t1") != jac.hash_to_element(b"t2")
        assert jac.hash_to_element(b"t1") == jac.hash_to_element(b"t1")

    def test_generator_and_second_generator(self, jac):
        g = jac.generator()
        h = jac.second_generator()
        assert not g.is_identity() and not h.is_identity()
        assert g != h
