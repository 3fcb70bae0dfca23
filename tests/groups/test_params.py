"""Tests for the parameter registry."""

import pytest

from repro.errors import InvalidParameterError
from repro.groups import default_group, get_group
from repro.groups.params import (
    _REGISTRY,
    SCHNORR_256_PRIME,
    SCHNORR_512_PRIME,
    TOY_SCHNORR_PRIME,
)
from repro.mathx.primes import is_prime


def test_all_registered_groups_instantiate():
    for name in sorted(_REGISTRY):
        group = get_group(name)
        assert group.order > 1
        g = group.generator()
        assert (g ** group.order).is_identity()


def test_registry_caches_instances():
    assert get_group("nist-p192") is get_group("nist-p192")


def test_unknown_name():
    with pytest.raises(InvalidParameterError):
        get_group("curve9000")


def test_default_group_is_registered():
    assert default_group().name in sorted(_REGISTRY)


@pytest.mark.parametrize(
    "p", [TOY_SCHNORR_PRIME, SCHNORR_256_PRIME, SCHNORR_512_PRIME]
)
def test_safe_primes_are_safe(p):
    assert is_prime(p)
    assert is_prime((p - 1) // 2)


def test_expected_names_present():
    names = sorted(_REGISTRY)
    for expected in (
        "nist-p192",
        "nist-p256",
        "secp256k1",
        "paper-genus2",
        "schnorr-256",
        "schnorr-512",
        "toy-schnorr",
    ):
        assert expected in names
