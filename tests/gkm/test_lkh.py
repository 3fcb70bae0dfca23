"""Deeper LKH tests: tree shape, member state, heavy churn."""


import pytest

from repro.errors import GKMError, KeyDerivationError
from tests.gkm.baselines.lkh import LkhGkm


def build(n, rng):
    scheme = LkhGkm()
    secrets = {}
    for i in range(n):
        secret = bytes(rng.randrange(256) for _ in range(16))
        secrets["m%d" % i] = secret
        scheme.join("m%d" % i, secret)
    return scheme, secrets


class TestTreeShape:
    def test_depth_logarithmic(self, rng):
        scheme, _ = build(32, rng)
        # A balanced-ish binary tree over 32 leaves: depth well below 32.
        assert scheme.tree_depth() <= 10

    def test_single_member(self, rng):
        scheme, secrets = build(1, rng)
        key, broadcast = scheme.rekey(rng)
        assert scheme.derive(secrets["m0"], broadcast) == key

    def test_empty_group_rekey_fails(self):
        with pytest.raises(GKMError):
            LkhGkm().rekey()

    def test_member_state_logarithmic(self, rng):
        scheme, secrets = build(16, rng)
        key, broadcast = scheme.rekey(rng)
        for mid, secret in list(secrets.items())[:4]:
            scheme.derive(secret, broadcast)
            # Path keys only: 16 bytes * O(log n) nodes.
            assert scheme.member_state_size(mid) <= 16 * 8


class TestChurn:
    def test_interleaved_join_leave_rekey(self, rng):
        scheme, secrets = build(4, rng)
        key, bc = scheme.rekey(rng)
        for mid, secret in secrets.items():
            assert scheme.derive(secret, bc) == key

        # Wave 1: two leave.
        for mid in ("m0", "m2"):
            scheme.leave(mid)
            removed = secrets.pop(mid)
        key, bc = scheme.rekey(rng)
        for mid, secret in secrets.items():
            assert scheme.derive(secret, bc) == key

        # Wave 2: three join.
        for i in (10, 11, 12):
            secret = bytes(rng.randrange(256) for _ in range(16))
            secrets["m%d" % i] = secret
            scheme.join("m%d" % i, secret)
        key, bc = scheme.rekey(rng)
        for mid, secret in secrets.items():
            assert scheme.derive(secret, bc) == key

    def test_drain_to_one(self, rng):
        scheme, secrets = build(5, rng)
        scheme.rekey(rng)
        for mid in ("m0", "m1", "m2", "m3"):
            scheme.leave(mid)
            del secrets[mid]
            key, bc = scheme.rekey(rng)
            for current, secret in secrets.items():
                assert scheme.derive(secret, bc) == key

    def test_removed_member_cannot_derive(self, rng):
        scheme, secrets = build(6, rng)
        scheme.rekey(rng)
        gone = secrets.pop("m3")
        scheme.leave("m3")
        key, bc = scheme.rekey(rng)
        with pytest.raises(KeyDerivationError):
            scheme.derive(gone, bc)

    def test_multiple_rekeys_without_churn(self, rng):
        scheme, secrets = build(4, rng)
        for _ in range(4):
            key, bc = scheme.rekey(rng)
            for secret in secrets.values():
                assert scheme.derive(secret, bc) == key
