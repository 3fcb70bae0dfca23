"""Uniform correctness/secrecy sweep over every flat BroadcastGkm scheme."""


import pytest

from repro.errors import GKMError, KeyDerivationError
from tests.gkm.baselines.acpoly import AcPolyGkm
from tests.gkm.baselines.acv import AcvBroadcastGkm
from tests.gkm.baselines.lkh import LkhGkm
from tests.gkm.baselines.marker import MarkerBroadcastGkm
from tests.gkm.baselines.naive import NaiveGkm
from tests.gkm.baselines.secure_lock import SecureLockGkm

SCHEMES = [
    AcvBroadcastGkm,
    MarkerBroadcastGkm,
    SecureLockGkm,
    LkhGkm,
    AcPolyGkm,
    NaiveGkm,
]
IDS = ["acv", "marker", "secure-lock", "lkh", "ac-polynomial", "naive"]


def build(factory, n, rng):
    scheme = factory()
    secrets = {}
    for i in range(n):
        secret = bytes(rng.randrange(256) for _ in range(16))
        secrets["m%d" % i] = secret
        scheme.join("m%d" % i, secret)
    return scheme, secrets


@pytest.mark.parametrize("factory", SCHEMES, ids=IDS)
class TestCommonContract:
    def test_all_members_derive(self, factory, rng):
        scheme, secrets = build(factory, 6, rng)
        key, broadcast = scheme.rekey(rng)
        assert broadcast.scheme == scheme.name
        for secret in secrets.values():
            assert scheme.derive(secret, broadcast) == key

    def test_outsider_fails(self, factory, rng):
        scheme, _ = build(factory, 4, rng)
        key, broadcast = scheme.rekey(rng)
        outsider = b"\xde\xad" * 8
        try:
            assert scheme.derive(outsider, broadcast) != key
        except KeyDerivationError:
            pass

    def test_forward_secrecy(self, factory, rng):
        scheme, secrets = build(factory, 5, rng)
        scheme.rekey(rng)
        scheme.leave("m2")
        key2, broadcast2 = scheme.rekey(rng)
        try:
            assert scheme.derive(secrets["m2"], broadcast2) != key2
        except KeyDerivationError:
            pass
        for mid, secret in secrets.items():
            if mid != "m2":
                assert scheme.derive(secret, broadcast2) == key2

    def test_backward_secrecy(self, factory, rng):
        scheme, secrets = build(factory, 4, rng)
        key1, broadcast1 = scheme.rekey(rng)
        late_secret = b"\x42" * 16
        scheme.join("late", late_secret)
        key2, broadcast2 = scheme.rekey(rng)
        assert scheme.derive(late_secret, broadcast2) == key2
        try:
            assert scheme.derive(late_secret, broadcast1) != key1
        except KeyDerivationError:
            pass

    def test_rekey_changes_key(self, factory, rng):
        scheme, _ = build(factory, 3, rng)
        key1, _ = scheme.rekey(rng)
        key2, _ = scheme.rekey(rng)
        assert key1 != key2

    def test_broadcast_sizes_accounted(self, factory, rng):
        scheme, _ = build(factory, 3, rng)
        _, broadcast = scheme.rekey(rng)
        assert broadcast.byte_size() == len(broadcast.payload) > 0

    def test_membership_bookkeeping(self, factory, rng):
        scheme, _ = build(factory, 3, rng)
        assert len(scheme) == 3
        with pytest.raises(GKMError):
            scheme.join("m0", b"dup")
        with pytest.raises(GKMError):
            scheme.leave("ghost")
        scheme.leave("m0")
        assert len(scheme) == 2

    def test_churn_sequence(self, factory, rng):
        """Join/leave storm, then everyone current still derives."""
        scheme, secrets = build(factory, 4, rng)
        scheme.rekey(rng)
        for i in range(4, 10):
            secret = bytes(rng.randrange(256) for _ in range(16))
            secrets["m%d" % i] = secret
            scheme.join("m%d" % i, secret)
        for mid in ("m1", "m5", "m7"):
            scheme.leave(mid)
            del secrets[mid]
        key, broadcast = scheme.rekey(rng)
        for mid, secret in secrets.items():
            assert scheme.derive(secret, broadcast) == key, mid


class TestSizeScaling:
    """The related-work claims: broadcast growth per scheme."""

    def _size(self, factory, n, rng):
        scheme, _ = build(factory, n, rng)
        _, broadcast = scheme.rekey(rng)
        return broadcast.byte_size()

    def test_linear_growth_schemes(self, rng):
        for factory in (MarkerBroadcastGkm, SecureLockGkm, AcPolyGkm, NaiveGkm):
            small = self._size(factory, 4, rng)
            large = self._size(factory, 16, rng)
            assert large > small * 2, factory

    @pytest.mark.slow  # n=32 LKH build: the large-N case of this suite
    def test_lkh_steady_state_is_logarithmic(self, rng):
        """With no membership change, an LKH rekey broadcasts only the root
        refresh: O(1) messages regardless of n."""
        small_scheme, _ = build(LkhGkm, 4, rng)
        large_scheme, _ = build(LkhGkm, 32, rng)
        small_scheme.rekey(rng)  # flush join messages
        large_scheme.rekey(rng)
        _, small_bc = small_scheme.rekey(rng)
        _, large_bc = large_scheme.rekey(rng)
        assert len(large_bc.parts) == len(small_bc.parts) == 2
