"""The publish-path strategy layer: caching, invalidation, dispatch."""

import hashlib
import struct

import pytest

from repro.crypto.hashes import HashFunction
from repro.errors import InvalidParameterError, SerializationError
from repro.gkm.acv import FAST_FIELD, AcvBgkm, AcvHeader
from repro.gkm.buckets import BucketedHeader, auto_bucket_size
from repro.gkm.strategy import (
    AcvBuildCache,
    BucketedGkmStrategy,
    DenseGkmStrategy,
    build_strategy,
    decode_keying_header,
)
from repro.workloads.generator import make_css_rows


@pytest.fixture
def core():
    return AcvBgkm(FAST_FIELD)


def test_decode_keying_header_dispatch(core, rng):
    rows = make_css_rows(4, rng=rng)
    _, dense = core.generate(rows, rng=rng)
    assert isinstance(decode_keying_header(dense.to_bytes()), AcvHeader)
    split = BucketedGkmStrategy(core, AcvBuildCache(), bucket_size=2)
    _, header = split.build(rows, capacity=None, slack=0, rng=rng)
    assert isinstance(decode_keying_header(header.to_bytes()), BucketedHeader)
    with pytest.raises(SerializationError, match="magic"):
        decode_keying_header(b"????rest")
    with pytest.raises(SerializationError):
        decode_keying_header(b"")


def test_build_strategy_validates(core):
    cache = AcvBuildCache()
    assert build_strategy("dense", core, cache).name == "dense"
    assert build_strategy("bucketed", core, cache).name == "bucketed"
    with pytest.raises(InvalidParameterError):
        build_strategy("sparse", core, cache)
    with pytest.raises(InvalidParameterError):
        BucketedGkmStrategy(core, cache, bucket_size=-1)


def test_zero_bucket_size_is_auto(core):
    """``0`` is the documented "auto" everywhere a bucket size is
    carried (scenario, journal, snapshot, CLI); the strategy maps it."""
    strategy = build_strategy("bucketed", core, AcvBuildCache(), 0)
    assert strategy.resolve_bucket_size(64) == auto_bucket_size(64) == 8


def test_auto_bucket_size_policy(core):
    strategy = BucketedGkmStrategy(core, AcvBuildCache())  # ceil(sqrt(m))
    assert strategy.resolve_bucket_size(0) == 1
    assert strategy.resolve_bucket_size(1) == 1
    assert strategy.resolve_bucket_size(4) == 2
    assert strategy.resolve_bucket_size(5) == 3
    assert strategy.resolve_bucket_size(64) == 8
    assert strategy.resolve_bucket_size(65) == 9
    fixed = BucketedGkmStrategy(core, AcvBuildCache(), bucket_size=7)
    assert fixed.resolve_bucket_size(1000) == 7


def test_cache_hit_skips_elimination_and_stays_correct(core, rng):
    """A hit returns fresh keys over the cached (zs, Y): every row still
    derives, consecutive keys differ, zs/Y are reused verbatim."""
    cache = AcvBuildCache()
    strategy = DenseGkmStrategy(core, cache)
    rows = make_css_rows(6, rng=rng)
    key1, header1 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    key2, header2 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    assert cache.stats()["misses"] == 1
    assert cache.stats()["hits"] == 1
    assert key1 != key2
    assert header1.zs == header2.zs  # nonces reused within the epoch
    # Both headers carry the same Y: X2 - X1 = (K2 - K1) e0.
    assert header1.x[1:] == header2.x[1:]
    for row in rows:
        assert core.derive(header1, row) == key1
        assert core.derive(header2, row) == key2


def test_cache_misses_on_different_rows_or_capacity(core, rng):
    cache = AcvBuildCache()
    strategy = DenseGkmStrategy(core, cache)
    rows = make_css_rows(4, rng=rng)
    strategy.build(rows, capacity=None, slack=0, rng=rng)
    strategy.build(rows[:-1], capacity=None, slack=0, rng=rng)
    strategy.build(rows, capacity=16, slack=0, rng=rng)
    assert cache.stats()["misses"] == 3
    assert cache.stats()["hits"] == 0


def test_cache_invalidation_drops_entries(core, rng):
    cache = AcvBuildCache()
    strategy = DenseGkmStrategy(core, cache)
    rows = make_css_rows(4, rng=rng)
    _, header1 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    cache.invalidate()  # the publisher's join/revoke hook
    _, header2 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    assert cache.stats() == {
        "hits": 0,
        "misses": 2,
        "extends": 0,
        "epoch": 1,
        "entries": 1,
    }
    assert header1.zs != header2.zs  # fresh nonces in the new epoch


def test_cache_bound_evicts_oldest(core, rng):
    cache = AcvBuildCache(max_entries=2)
    strategy = DenseGkmStrategy(core, cache)
    row_sets = [make_css_rows(3, rng=rng) for _ in range(3)]
    for rows in row_sets:
        strategy.build(rows, capacity=None, slack=0, rng=rng)
    assert cache.stats()["entries"] == 2
    strategy.build(row_sets[0], capacity=None, slack=0, rng=rng)  # evicted
    assert cache.stats()["misses"] == 4


def test_cache_true_lru_keeps_hot_entry_under_cycling(core, rng):
    """Regression: eviction used to be plain insertion order, so a hot
    configuration that kept hitting was also the first evicted once a
    cycle of cold ones overflowed the cache.  A hit must refresh recency."""
    cache = AcvBuildCache(max_entries=2)
    strategy = DenseGkmStrategy(core, cache)
    hot = make_css_rows(3, rng=rng)
    cold1 = make_css_rows(3, rng=rng)
    cold2 = make_css_rows(3, rng=rng)
    strategy.build(hot, capacity=None, slack=0, rng=rng)  # store hot
    strategy.build(cold1, capacity=None, slack=0, rng=rng)  # store cold1
    strategy.build(hot, capacity=None, slack=0, rng=rng)  # HIT refreshes hot
    strategy.build(cold2, capacity=None, slack=0, rng=rng)  # evicts cold1
    assert cache.stats()["hits"] == 1
    strategy.build(hot, capacity=None, slack=0, rng=rng)  # must still hit
    assert cache.stats()["hits"] == 2
    strategy.build(cold1, capacity=None, slack=0, rng=rng)  # was evicted
    assert cache.stats()["misses"] == 4


def test_join_delta_extends_instead_of_resolving(core, rng):
    """After note_join, a strict row superset extends the carried
    factorization: old nonces are reused (plus fresh ones for the added
    capacity), every old and new row derives, outsiders stay locked out."""
    cache = AcvBuildCache()
    strategy = DenseGkmStrategy(core, cache)
    rows = make_css_rows(5, rng=rng)
    key1, header1 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    cache.note_join()
    assert cache.stats()["epoch"] == 1
    assert cache.stats()["entries"] == 1  # entries survive a pure join
    joined = rows + make_css_rows(1, rng=rng)
    key2, header2 = strategy.build(joined, capacity=None, slack=0, rng=rng)
    assert cache.stats()["extends"] == 1
    assert cache.stats()["misses"] == 2  # neither build exact-hit
    assert header2.zs[: len(header1.zs)] == header1.zs  # join reuses nonces
    assert header2.capacity == len(joined)
    assert key1 != key2
    for row in joined:
        assert core.derive(header2, row) == key2
    assert core.derive(header2, (b"outsider",)) != key2
    # The extended state was re-stored: the same configuration now hits.
    _, header3 = strategy.build(joined, capacity=None, slack=0, rng=rng)
    assert cache.stats()["hits"] == 1
    assert header3.zs == header2.zs


def test_bucketed_join_delta_touches_only_last_bucket(core, rng):
    """Joins append in row order, so earlier buckets exact-hit and only
    the tail bucket extends."""
    cache = AcvBuildCache()
    strategy = BucketedGkmStrategy(core, cache, bucket_size=4)
    rows = make_css_rows(6, rng=rng)
    key1, _ = strategy.build(rows, capacity=None, slack=0, rng=rng)
    cache.note_join()
    joined = rows + make_css_rows(1, rng=rng)
    key2, header2 = strategy.build(joined, capacity=None, slack=0, rng=rng)
    stats = cache.stats()
    assert stats["hits"] == 1  # bucket 1 unchanged
    assert stats["extends"] == 1  # bucket 2 grew by one row
    for index, row in enumerate(joined):
        assert core.derive(header2.buckets[index // 4], row) == key2
    assert key1 != key2


def test_revoke_invalidation_forces_full_resolve(core, rng):
    """invalidate() (the revoke/credential-replacement hook) must leave
    nothing extendable: the next build re-solves under fresh nonces."""
    cache = AcvBuildCache()
    strategy = DenseGkmStrategy(core, cache)
    rows = make_css_rows(4, rng=rng)
    _, header1 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    cache.invalidate()
    remaining = rows[:-1]
    _, header2 = strategy.build(remaining, capacity=None, slack=0, rng=rng)
    assert cache.stats()["extends"] == 0
    assert set(header2.zs).isdisjoint(header1.zs)  # fresh nonces, no reuse
    revoked = rows[-1]
    assert core.derive(header2, revoked) not in {
        core.derive(header2, row) for row in remaining
    }


def test_dense_revoke_removes_rows_instead_of_resolving(core, rng):
    """After note_revoke, a configuration that lost rows is built from its
    entry by row removal: the nonces are a prefix of the old ones, cut to
    the Eq.-1 capacity, the revoked row no longer derives, and the result
    is re-stored, so the next build hits."""
    cache = AcvBuildCache()
    strategy = DenseGkmStrategy(core, cache)
    rows = make_css_rows(8, rng=rng)
    _, header1 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    cache.note_revoke(rows[3])
    live = rows[:3] + rows[4:]
    key2, header2 = strategy.build(live, capacity=None, slack=0, rng=rng)
    assert (cache.downdates, cache.stats()["misses"]) == (1, 2)
    assert header2.zs == header1.zs[:7]
    assert core.derive(header2, rows[3]) != key2
    for row in live:
        assert core.derive(header2, row) == key2
    cache.drop_dead()
    _, header3 = strategy.build(live, capacity=None, slack=0, rng=rng)
    assert cache.stats()["hits"] == 1
    assert header3.zs == header2.zs


def test_revoke_keeps_untouched_entries_and_drop_dead_forgets_the_rest(core, rng):
    cache = AcvBuildCache()
    strategy = DenseGkmStrategy(core, cache)
    kept, touched = make_css_rows(6, rng=rng), make_css_rows(6, rng=rng)
    strategy.build(kept, capacity=None, slack=0, rng=rng)
    strategy.build(touched, capacity=None, slack=0, rng=rng)
    cache.note_revoke([touched[0][1]])  # one CSS of one row
    strategy.build(kept, capacity=None, slack=0, rng=rng)
    assert cache.stats()["hits"] == 1
    cache.drop_dead()
    assert cache.stats()["entries"] == 1
    strategy.build(touched[1:], capacity=None, slack=0, rng=rng)
    assert cache.downdates == 0  # its base went with drop_dead


def test_revoke_and_join_before_one_build(core, rng):
    """A dead row and a new row at once: remove, then extend, over the
    same capacity."""
    cache = AcvBuildCache()
    strategy = DenseGkmStrategy(core, cache)
    rows = make_css_rows(8, rng=rng)
    _, header1 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    cache.note_revoke(rows[0])
    cache.note_join()
    changed = rows[1:] + make_css_rows(1, rng=rng)
    key, header = strategy.build(changed, capacity=None, slack=0, rng=rng)
    assert (cache.downdates, cache.stats()["extends"]) == (1, 0)
    assert header.zs == header1.zs
    assert core.derive(header, rows[0]) != key
    for row in changed:
        assert core.derive(header, row) == key


def test_refused_downdate_resolves_under_fresh_nonces(rng):
    """A hash blind to the CSS on the first four nonces makes every row
    equal there, so the survivors of a revoke need pivots among the
    nonces the cut back to N = 4 drops: the cut is refused and the build
    re-solves under a fresh seed."""
    blind = {struct.pack(">I", j) for j in range(4)}

    def digest(data):
        return hashlib.sha256(data[-4:] if data[-4:] in blind else data).digest()

    core = AcvBgkm(FAST_FIELD, HashFunction("blind", 32, digest))
    cache = AcvBuildCache()
    strategy = DenseGkmStrategy(core, cache)
    rows = make_css_rows(6, rng=rng)
    _, header1 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    cache.note_revoke(rows[0] + rows[1])
    key, header = strategy.build(rows[2:], capacity=None, slack=0, rng=rng)
    assert cache.downdates == 1 and header.seed != header1.seed
    assert set(header.zs).isdisjoint(header1.zs)
    for row in rows[2:]:
        assert core.derive(header, row) == key


def test_delta_capacity_never_shrinks_published_nonces(core, rng):
    """A candidate whose capacity exceeds the new build's n_max must not
    be extended (nonces cannot be dropped); the build re-solves instead."""
    cache = AcvBuildCache()
    strategy = DenseGkmStrategy(core, cache)
    rows = make_css_rows(2, rng=rng)
    strategy.build(rows, capacity=16, slack=0, rng=rng)  # capacity 16
    cache.note_join()
    joined = rows + make_css_rows(1, rng=rng)
    key, header = strategy.build(joined, capacity=None, slack=0, rng=rng)
    assert cache.stats()["extends"] == 0  # 16 > 3: not extendable
    assert header.capacity == 3
    for row in joined:
        assert core.derive(header, row) == key


def test_bucketed_build_shares_cache_per_chunk(core, rng):
    cache = AcvBuildCache()
    strategy = BucketedGkmStrategy(core, cache, bucket_size=2)
    rows = make_css_rows(6, rng=rng)
    key1, header1 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    key2, header2 = strategy.build(rows, capacity=None, slack=0, rng=rng)
    assert cache.stats() == {
        "hits": 3,
        "misses": 3,
        "extends": 0,
        "epoch": 0,
        "entries": 3,
    }
    assert key1 != key2
    for index, row in enumerate(rows):
        assert core.derive(header1.buckets[index // 2], row) == key1
        assert core.derive(header2.buckets[index // 2], row) == key2


def test_repeated_chunk_never_duplicates_a_bucket(core, rng):
    """Two policies sharing a condition-key list repeat each member row,
    and aligned chunk boundaries then repeat whole chunks.  The repeat
    must solve fresh instead of rebinding the twin's cache entry, or the
    two buckets come out byte-identical and the header's own canonical
    decoding (duplicate-bucket refusal) rejects the broadcast."""
    cache = AcvBuildCache()
    strategy = BucketedGkmStrategy(core, cache, bucket_size=2)
    member_rows = make_css_rows(2, rng=rng)
    rows = member_rows + member_rows
    for _ in range(2):  # second build re-hits the stored entries
        key, header = strategy.build(rows, capacity=None, slack=0, rng=rng)
        payloads = [bucket.to_bytes() for bucket in header.buckets]
        assert len(set(payloads)) == len(payloads)
        assert BucketedHeader.from_bytes(header.to_bytes()) == header
        for row in member_rows:
            assert all(core.derive(b, row) == key for b in header.buckets)


def test_bucketed_empty_rows(core, rng):
    strategy = BucketedGkmStrategy(core, AcvBuildCache(), bucket_size=4)
    key, header = strategy.build([], capacity=None, slack=0, rng=rng)
    assert len(header.buckets) == 1
    assert core.derive(header.buckets[0], (b"outsider",)) != key


def test_capacity_slack_applies_per_bucket(core, rng):
    strategy = BucketedGkmStrategy(core, AcvBuildCache(), bucket_size=2)
    rows = make_css_rows(4, rng=rng)
    _, header = strategy.build(rows, capacity=None, slack=3, rng=rng)
    assert [b.capacity for b in header.buckets] == [5, 5]
