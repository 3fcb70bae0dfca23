"""Tests for the bucketized ACV scheme (Section VIII-C)."""


import pytest

from repro.errors import InvalidParameterError, SerializationError
from repro.gkm.acv import FAST_FIELD, AcvBgkm
from repro.gkm.buckets import BucketedHeader
from repro.gkm.strategy import AcvBuildCache, BucketedGkmStrategy


def make_rows(rng, count):
    return [(bytes(rng.randrange(256) for _ in range(8)),) for _ in range(count)]


@pytest.fixture
def core():
    return AcvBgkm(FAST_FIELD)


@pytest.fixture
def bucketed(core):
    return BucketedGkmStrategy(core, AcvBuildCache(), bucket_size=4)


def generate(strategy, rows, rng):
    return strategy.build(rows, capacity=None, slack=0, rng=rng)


class TestGeneration:
    def test_same_key_all_buckets(self, core, bucketed, rng):
        rows = make_rows(rng, 11)
        key, header = generate(bucketed, rows, rng)
        assert len(header.buckets) == 3  # 4 + 4 + 3
        for i, row in enumerate(rows):
            assert core.derive(header.buckets[i // 4], row) == key

    def test_single_bucket_when_small(self, core, bucketed, rng):
        rows = make_rows(rng, 3)
        key, header = generate(bucketed, rows, rng)
        assert len(header.buckets) == 1
        assert core.derive(header.buckets[0], rows[0]) == key

    def test_empty_rows(self, core, bucketed, rng):
        key, header = generate(bucketed, [], rng)
        assert len(header.buckets) == 1
        assert core.derive(header.buckets[0], (b"x",)) != key

    def test_wrong_bucket_wrong_key(self, core, bucketed, rng):
        rows = make_rows(rng, 8)
        key, header = generate(bucketed, rows, rng)
        assert core.derive(header.buckets[1], rows[0]) != key

    def test_derive_candidates(self, core, bucketed, rng):
        """A subscriber that does not know its bucket scans every one; only
        its own bucket yields the key."""
        rows = make_rows(rng, 8)
        key, header = generate(bucketed, rows, rng)
        candidates = [core.derive(b, rows[5]) for b in header.buckets]
        assert candidates.index(key) == 1
        assert len(candidates) == 2

    def test_bucket_size_validation(self, core):
        with pytest.raises(InvalidParameterError):
            BucketedGkmStrategy(core, AcvBuildCache(), bucket_size=-1)


class TestSerialization:
    def test_roundtrip(self, bucketed, rng):
        rows = make_rows(rng, 9)
        _, header = generate(bucketed, rows, rng)
        assert BucketedHeader.from_bytes(header.to_bytes()) == header

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            BucketedHeader.from_bytes(b"XXXX\x00\x00\x00\x00")

    def test_size_scales_with_rows_not_cube(self, bucketed, rng):
        """Total header size stays linear in rows even when bucketed."""
        small = generate(bucketed, make_rows(rng, 4), rng)[1].byte_size()
        large = generate(bucketed, make_rows(rng, 16), rng)[1].byte_size()
        assert large < small * 8  # linear-ish, not cubic
