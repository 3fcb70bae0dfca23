"""Tests for the Schnorr-group backend (exhaustive on the toy group)."""

import random

import pytest

from repro.errors import GroupError, InvalidParameterError
from repro.groups.params import SCHNORR_256_PRIME, TOY_SCHNORR_PRIME
from repro.groups.schnorr import SchnorrGroup


@pytest.fixture(scope="module")
def toy():
    return SchnorrGroup(TOY_SCHNORR_PRIME, name="toy")


class TestConstruction:
    def test_rejects_non_prime(self):
        with pytest.raises(InvalidParameterError):
            SchnorrGroup(21)

    def test_rejects_non_safe_prime(self):
        with pytest.raises(InvalidParameterError):
            SchnorrGroup(13)  # (13-1)/2 = 6 not prime

    def test_rejects_degenerate_generator(self):
        with pytest.raises(InvalidParameterError):
            SchnorrGroup(23, generator=1)
        with pytest.raises(InvalidParameterError):
            SchnorrGroup(23, generator=22)  # order 2, not in subgroup

    def test_rejects_non_subgroup_generator(self):
        # 5 is a non-residue mod 23 -> not in the order-11 subgroup.
        assert pow(5, 11, 23) != 1
        with pytest.raises(InvalidParameterError):
            SchnorrGroup(23, generator=5)

    def test_order(self, toy):
        assert toy.order == 11


class TestGroupLaw:
    def test_exhaustive_subgroup(self, toy):
        g = toy.generator()
        elements = {int_el.value for int_el in (g**k for k in range(11))}
        assert len(elements) == 11
        # The subgroup of squares mod 23.
        assert elements == {pow(a, 2, 23) for a in range(1, 23)}

    def test_identity(self, toy):
        g = toy.generator()
        assert (g * toy.identity()) == g
        assert g ** 0 == toy.identity()
        assert toy.identity().is_identity()

    def test_inverse(self, toy):
        g = toy.generator()
        for k in range(11):
            e = g ** k
            assert (e * e.inverse()).is_identity()

    def test_exponent_reduction(self, toy):
        g = toy.generator()
        assert g ** 12 == g ** 1
        assert g ** -1 == g ** 10

    def test_membership_validation(self, toy):
        with pytest.raises(GroupError):
            toy.element(5)  # non-residue
        with pytest.raises(GroupError):
            toy.element(0)
        assert toy.element(4).value == 4

    def test_cross_group_rejected(self, toy):
        other = SchnorrGroup(SCHNORR_256_PRIME)
        with pytest.raises(GroupError):
            toy.generator() * other.generator()


class TestSerializationAndHashing:
    def test_bytes_roundtrip(self, toy):
        for k in range(11):
            e = toy.generator() ** k
            assert toy.element_from_bytes(e.to_bytes()) == e

    def test_bad_length(self, toy):
        with pytest.raises(GroupError):
            toy.element_from_bytes(b"\x00\x01\x02")

    def test_unreduced_value_refused(self, toy):
        # v and v + p name the same element; only the reduced v is canonical.
        e = toy.generator()
        raw = (e.value + toy.p).to_bytes(len(e.to_bytes()), "big")
        with pytest.raises(GroupError, match="non-canonical"):
            toy.element_from_bytes(raw)

    def test_hash_to_element_in_subgroup(self, toy):
        e = toy.hash_to_element(b"tag")
        assert pow(e.value, toy.order, toy.p) == 1
        assert not e.is_identity()

    def test_hash_to_element_deterministic(self, toy):
        assert toy.hash_to_element(b"x") == toy.hash_to_element(b"x")
        # Different tags give different elements with high probability in
        # the big group.
        big = SchnorrGroup(SCHNORR_256_PRIME)
        assert big.hash_to_element(b"a") != big.hash_to_element(b"b")

    def test_second_generator_differs(self):
        big = SchnorrGroup(SCHNORR_256_PRIME)
        assert big.second_generator() != big.generator()

    def test_random_scalar_range(self, toy):
        rng = random.Random(0)
        for _ in range(50):
            s = toy.random_scalar(rng)
            assert 1 <= s < toy.order

    def test_random_element_nonidentity_bias(self):
        big = SchnorrGroup(SCHNORR_256_PRIME)
        rng = random.Random(1)
        assert not big.random_element(rng).is_identity()
