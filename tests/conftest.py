"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import HealthCheck, settings

from repro.crypto.aes import AES
from repro.crypto.hashes import HashFunction
from repro.crypto.pedersen import PedersenParams
from repro.groups import get_group
from repro.mathx.field import PrimeField
from repro.ocbe.base import OCBESetup

# Property tests run crypto-heavy code; keep examples modest and disable
# the deadline (group operations have high variance under load).
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def pytest_collection_modifyitems(items):
    """Auto-mark genus-2/Jacobian cases slow (the pure-Python hyperelliptic
    backend is orders of magnitude slower than the EC one); explicit
    ``@pytest.mark.slow`` marks cover large-N GKM cases and slow examples."""
    for item in items:
        nodeid = item.nodeid.lower()
        fixturenames = getattr(item, "fixturenames", ())
        if "genus2" in nodeid or "genus2_group" in fixturenames:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG; reseeded per test."""
    return random.Random(0x5EED)


@pytest.fixture
def key_setups(monkeypatch):
    """The key length of every ``AES.__init__`` call made during the test
    (one entry per key schedule), counted the way ``perf/tracing.py`` counts
    ``crypto.aes_key_setups``: by wrapping the constructor."""
    calls = []
    original = AES.__init__

    def counting(self, key):
        calls.append(len(key))
        original(self, key)

    monkeypatch.setattr(AES, "__init__", counting)
    return calls


@pytest.fixture
def counting_hash():
    """``(hash, calls)``: SHA-256 under an unregistered name, appending to
    ``calls`` on every digest.  At the field sizes the tests use one Eq. 2
    value is one digest, so ``len(calls)`` around a GKM call is the number
    of matrix / KEV entries it computed."""
    calls = []

    def digest(data):
        calls.append(len(data))
        return hashlib.sha256(data).digest()

    return HashFunction("counting-sha256", 32, digest), calls


@pytest.fixture(scope="session")
def toy_group():
    """The exhaustively-testable Schnorr group (p=23, order 11)."""
    return get_group("toy-schnorr")


@pytest.fixture(scope="session")
def ec_group():
    """The default fast EC backend."""
    return get_group("nist-p192")


@pytest.fixture(scope="session")
def genus2_group():
    """The paper's genus-2 Jacobian."""
    return get_group("paper-genus2")


@pytest.fixture(scope="session")
def small_field() -> PrimeField:
    """A small prime field for exhaustive linear-algebra checks."""
    return PrimeField(10007)


@pytest.fixture(scope="session")
def ec_setup(ec_group) -> OCBESetup:
    """OCBE setup over the fast EC backend (shared across tests)."""
    return OCBESetup(pedersen=PedersenParams(ec_group))
