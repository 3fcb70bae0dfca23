"""Publish-path GKM strategies: dense vs bucketed ACV generation.

:class:`~repro.system.publisher.Publisher.publish` builds one keying
header per policy configuration.  The *strategy* decides how:

* **dense** -- one matrix over every qualified row, one
  :class:`~repro.gkm.acv.AcvHeader`.  This is the paper's Section V-C
  baseline and the historical publish path, byte for byte.
* **bucketed** -- the Section VIII-C scalability variant wired into the
  live pipeline: rows are split *in row order* (the order
  :meth:`~repro.system.css.CssTable.rows_for_policies` emits) into
  buckets of a configured size, one ACV is solved per bucket, and all
  buckets carry the same key ``K`` inside a
  :class:`~repro.gkm.buckets.BucketedHeader`.  ``B`` buckets turn the
  cubic elimination into ``B`` solves of size ``(m/B)^3`` -- a ``B^2``
  speedup on the step ROADMAP calls the rekey ceiling.

Both strategies share an :class:`AcvBuildCache`: solving ``A Y = 0`` only
depends on the member-row set and the nonces, so when consecutive
publishes see the *same* rows (same configuration, no membership change)
the cached ``(zs, Y)`` pair is recombined with a **fresh** key instead of
re-running the elimination.  The cache is keyed on the exact row tuples.
A *pure join* keeps entries (:meth:`AcvBuildCache.note_join`): untouched
configurations exact-hit, and a grown configuration extends the stored
:class:`~repro.gkm.acv.AcvFactorization` row by row -- O(m^2) per join
instead of the O(m^3) re-solve.  A *dense revoke* or credential
replacement keeps them too (:meth:`AcvBuildCache.note_revoke`): an
entry that held a dead row is never served again, only taken as the
base its configuration's next build removes the dead rows from -- no
hashing, no elimination, the nonces cut back to the Eq.-1 capacity.
A bucketed revoke and every policy or strategy change invalidate
outright, so a stale vector can never outlive a membership it
over-approximates.

Security envelope of the cache (documented in DESIGN.md): two headers
built from one cache entry share ``(zs, Y)`` and differ only in
``X[0] = Y[0] + K``, so their *difference* reveals ``K' - K``.  Within
one membership epoch every holder of ``K`` is entitled to ``K'`` as well
(the membership is unchanged by construction), so no lockout property is
weakened.  A join or revoke starts a new epoch with a fresh ``Y``: drawn
over fresh nonces, or from the null space of the changed rows over
reused ones, which a removed row no longer lies in.
"""

from __future__ import annotations

import random
from collections import Counter, OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import InvalidParameterError
from repro.gkm.acv import (
    ACV_MAGIC,
    AcvBgkm,
    AcvFactorization,
    AcvHeader,
    _draw_field_key,
)
from repro.gkm.buckets import BKT_MAGIC, BucketedHeader, auto_bucket_size
from repro.obs.metrics import get_registry
from repro.obs.trace import stage
from repro.wire.codec import by_magic, decode_value

__all__ = [
    "GKM_STRATEGIES",
    "AcvBuildCache",
    "BucketedGkmStrategy",
    "DenseGkmStrategy",
    "KeyingHeader",
    "build_strategy",
    "decode_keying_header",
]

#: The publish-path strategy names a publisher (and a scenario) may pick.
GKM_STRATEGIES = ("dense", "bucketed")

#: What a :class:`~repro.documents.package.ConfigHeader` may carry.
KeyingHeader = Union[AcvHeader, BucketedHeader]


#: Every keying header format, by the 4-byte magic tag it starts with.
KEYING_HEADER = by_magic(
    {ACV_MAGIC: AcvHeader, BKT_MAGIC: BucketedHeader}, "keying header"
)


def decode_keying_header(data: bytes) -> KeyingHeader:
    """Parse a config header's keying payload, dense or bucketed: the
    magic tag picks the format, so a package may freely mix dense and
    bucketed configurations."""
    return decode_value(KEYING_HEADER, data)


class AcvBuildCache:
    """Memoizes the expensive half of an ACV build: ``(zs, Y)`` + the
    carried elimination state.

    Entries are keyed on ``(member-row tuple, capacity)``.  A hit
    re-randomizes only the key: the header becomes ``X = Y + K e_0`` over
    the cached nonces -- no matrix, no elimination.  Eviction is true LRU
    over an :class:`~collections.OrderedDict`: a lookup hit refreshes
    recency, so under more than ``max_entries`` recurring configurations
    the *coldest* entry goes first.  (The cache used to evict in plain
    insertion order, which is exactly backwards at publish cadence: the
    hottest configuration was also the oldest insertion.)

    Membership changes split three ways:

    * :meth:`invalidate` -- policy or strategy change, or a bucketed
      revoke: advances the epoch and drops everything; the next builds
      re-solve under fresh nonces.
    * :meth:`note_join` -- a *pure join* (a brand-new CSS cell): advances
      the epoch but keeps entries.  A configuration the join did not
      touch recurs with the identical row tuple and may exact-hit -- its
      membership is unchanged by construction.  A configuration the join
      did touch now has a strict row superset, which :meth:`take_base`
      serves as an O(m^2)-per-row incremental extension of the stored
      factorization instead of a fresh elimination (see
      :class:`~repro.gkm.acv.AcvFactorization` for the security
      argument: extension only ever adds entitlements that the join
      itself granted).
    * :meth:`note_revoke` -- a dense revoke or credential replacement:
      advances the epoch and names the CSS values that died.  Untouched
      configurations keep exact-hitting; a touched one's entry becomes
      the base its next build removes the dead rows from
      (:meth:`~repro.gkm.acv.AcvFactorization.remove`), and
      :meth:`drop_dead` forgets the bases no build took.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise InvalidParameterError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, Tuple[Tuple[bytes, ...], Tuple[int, ...], AcvFactorization]]" = OrderedDict()
        self.epoch = 0
        #: CSS values of rows removed since the last :meth:`drop_dead`.
        self._dead: Set[bytes] = set()
        self.hits = 0
        self.misses = 0
        self.extends = 0
        self.downdates = 0

    def _dead_row(self, row: Tuple[bytes, ...]) -> bool:
        return any(css in self._dead for css in row)

    def lookup(
        self, rows: tuple, n_max: int
    ) -> Optional[Tuple[Tuple[bytes, ...], Tuple[int, ...]]]:
        entry = self._entries.get((rows, n_max))
        if entry is None:
            self.misses += 1
            get_registry().inc("gkm.acv_cache.miss")
            return None
        self._entries.move_to_end((rows, n_max))
        self.hits += 1
        get_registry().inc("gkm.acv_cache.hit")
        return entry[0], entry[1]

    def take_base(
        self, rows: tuple, n_max: int
    ) -> Optional[Tuple[AcvFactorization, List[int], List[Tuple[bytes, ...]]]]:
        """Pop the best delta base for ``(rows, n_max)``.

        Most-recently-used first.  An entry with no dead row qualifies
        when it holds a nonempty *strict sub-multiset* of ``rows`` and its
        capacity fits inside ``n_max`` (a join: capacity only grows).  An
        entry holding dead rows (:meth:`note_revoke`) qualifies when its
        surviving rows are a nonempty sub-multiset of ``rows``, equal
        included, at any capacity: removing the dead rows and cutting the
        nonces back is the revoke's whole build.  Returns
        ``(factorization, dead row indices, missing rows)``; the entry is
        removed because the builder mutates it (and re-stores the result
        under the new key).
        """
        if n_max < len(rows):
            return None
        needed = Counter(rows)
        for key in reversed(self._entries):
            old_rows, old_n = key
            live = (
                [row for row in old_rows if not self._dead_row(row)]
                if self._dead else old_rows
            )
            revoked = len(live) < len(old_rows)
            if not live or not revoked and (
                len(old_rows) >= len(rows) or old_n > n_max
            ):
                continue
            missing = needed.copy()
            missing.subtract(live)
            if any(count < 0 for count in missing.values()):
                continue
            fact = self._entries.pop(key)[2]
            dead = []
            if revoked:
                self.downdates += 1
                get_registry().inc("gkm.acv_cache.downdate")
                dead = [i for i, row in enumerate(fact.rows) if self._dead_row(row)]
            else:
                self.extends += 1
                get_registry().inc("gkm.acv_cache.extend")
            extra = [row for row, count in missing.items() for _ in range(count)]
            return fact, dead, extra
        return None

    def store(
        self,
        rows: tuple,
        n_max: int,
        zs: Tuple[bytes, ...],
        y: Tuple[int, ...],
        factorization: AcvFactorization,
    ) -> None:
        key = (rows, n_max)
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
        self._entries[key] = (zs, y, factorization)
        self._entries.move_to_end(key)

    def note_join(self) -> None:
        """A pure join happened: new epoch, entries stay extendable."""
        self.epoch += 1

    def note_revoke(self, css_values: Iterable[bytes]) -> None:
        """Rows holding any of ``css_values`` were removed (a dense revoke
        or credential replacement): new epoch.  An entry holding such a
        row is never served again -- its key names a CSS value no current
        row holds, so no lookup matches it -- and is only taken as a base
        by :meth:`take_base`; an entry holding none keeps exact-hitting."""
        self.epoch += 1
        self._dead.update(css_values)

    def drop_dead(self) -> None:
        """Forget every entry still holding a dead row (called after each
        publish: whatever the publish did not take as a base goes)."""
        if self._dead:
            for key in [k for k in self._entries if any(map(self._dead_row, k[0]))]:
                del self._entries[key]
            self._dead.clear()

    def invalidate(self) -> None:
        """Policy or strategy change, or a bucketed revoke: new epoch, no
        entry survives."""
        self.epoch += 1
        self._entries.clear()
        self._dead.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for tests, metrics and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "extends": self.extends,
            "epoch": self.epoch,
            "entries": len(self._entries),
        }


class _CachedAcvBuilder:
    """Shared per-chunk build step: cache hit -> recombine, miss -> solve."""

    def __init__(self, core: AcvBgkm, cache: AcvBuildCache):
        self.core = core
        self.cache = cache

    def build(
        self,
        rows: Sequence[Tuple[bytes, ...]],
        n_max: int,
        rng: Optional[random.Random],
        key: Optional[int] = None,
        use_cache: bool = True,
    ) -> Tuple[int, AcvHeader]:
        """``(key, header)`` for ``rows``; pass ``key`` to bind an
        existing one (bucket 2..B of a shared-key build).

        The null-space combination ``Y`` never depends on the key --
        ``X = Y + K e_0`` -- so one cached ``(zs, Y)`` serves any key,
        and a cache miss with ``key=None`` is byte-identical to a plain
        :meth:`AcvBgkm.generate` call (same RNG draws, in order).
        ``use_cache=False`` forces a fresh solve (still stored): a
        repeated chunk within one bucketed build must NOT be rebound
        from the entry its twin just stored, or the two buckets come
        out byte-identical and the header's own canonical decoding
        (which refuses duplicate buckets) would reject the broadcast.
        """
        p = self.core.field.p
        rows_key = tuple(rows)
        if use_cache:
            cached = self.cache.lookup(rows_key, n_max)
            if cached is not None:
                zs, y = cached
                if key is None:
                    key = _draw_field_key(p, rng)
                x = list(y)
                x[0] = (x[0] + key) % p
                return key, AcvHeader(q=p, x=tuple(x), zs=zs)
            base = self.cache.take_base(rows_key, n_max)
            if base is not None:
                fact, dead, extra = base
                built = self._update(fact, dead, extra, n_max, rng, key)
                if built is not None:
                    key, header = built
                    y = list(header.x)
                    y[0] = (y[0] - key) % p
                    self.cache.store(rows_key, n_max, header.zs, tuple(y), fact)
                    return key, header
        with stage("acv.solve", rows=len(rows)):
            with get_registry().timer("gkm.acv_solve_seconds"):
                fresh_key, header, fact = self.core.generate_with_factorization(
                    rows, n_max=n_max, rng=rng
                )
        y = list(header.x)
        y[0] = (y[0] - fresh_key) % p
        self.cache.store(rows_key, n_max, header.zs, tuple(y), fact)
        if key is None or key == fresh_key:
            return fresh_key, header
        x = list(header.x)
        x[0] = (x[0] - fresh_key + key) % p
        return key, AcvHeader(q=p, x=tuple(x), zs=header.zs)

    def _update(
        self,
        fact: AcvFactorization,
        dead: List[int],
        extra: List[Tuple[bytes, ...]],
        n_max: int,
        rng: Optional[random.Random],
        key: Optional[int],
    ) -> Optional[Tuple[int, AcvHeader]]:
        """Remove the ``dead`` rows from a base, fold ``extra`` in, rekey;
        None when the removal is refused (the caller re-solves)."""
        rows = len(fact.rows) - len(dead) + len(extra)
        with stage("acv.update", rows=rows, added=len(extra), removed=len(dead)):
            with get_registry().timer("gkm.acv_update_seconds"):
                if dead and not fact.remove(dead, min(n_max, fact.capacity)):
                    return None
                fact.extend(extra, added_capacity=n_max - fact.capacity, rng=rng)
                return self.core.rekey_from_factorization(fact, rng=rng, key=key)


class DenseGkmStrategy:
    """One matrix per configuration -- the paper's Section V-C baseline."""

    name = "dense"

    def __init__(self, core: AcvBgkm, cache: AcvBuildCache):
        self.core = core
        self._builder = _CachedAcvBuilder(core, cache)

    def build(
        self,
        rows: Sequence[Tuple[bytes, ...]],
        capacity: Optional[int],
        slack: int,
        rng: Optional[random.Random],
    ) -> Tuple[int, AcvHeader]:
        n_max = capacity if capacity is not None else max(len(rows), 1) + slack
        return self._builder.build(rows, n_max, rng)


class BucketedGkmStrategy:
    """Row-order buckets, one ACV each, one shared key (Section VIII-C).

    ``bucket_size`` is the fixed rows-per-bucket knob; ``0`` selects the
    auto policy :func:`~repro.gkm.buckets.auto_bucket_size`
    (``ceil(sqrt(m))`` for ``m`` rows), which balances the per-bucket
    cubic cost against header fan-out without configuration.  This is the
    one place ``0`` becomes a layout: publisher, journal, snapshot,
    scenario and CLI all carry the raw integer.
    An explicit ``capacity`` is interpreted *per bucket* (it must cover
    the largest bucket); otherwise each bucket gets the Eq.-1 minimum
    for its own rows plus the publisher's ``capacity_slack``.
    """

    name = "bucketed"

    def __init__(
        self,
        core: AcvBgkm,
        cache: AcvBuildCache,
        bucket_size: int = 0,
    ):
        if bucket_size < 0:
            raise InvalidParameterError("bucket_size must be >= 1 or 0 (auto)")
        self.core = core
        self.bucket_size = bucket_size
        self._builder = _CachedAcvBuilder(core, cache)

    def resolve_bucket_size(self, row_count: int) -> int:
        """The effective rows-per-bucket for ``row_count`` rows."""
        return self.bucket_size or auto_bucket_size(row_count)

    def chunk(
        self, rows: Sequence[Tuple[bytes, ...]]
    ) -> List[List[Tuple[bytes, ...]]]:
        """Row-order bucket assignment (the layout subscribers scan)."""
        size = self.resolve_bucket_size(len(rows))
        return [
            list(rows[i : i + size]) for i in range(0, max(len(rows), 1), size)
        ] or [[]]

    def build(
        self,
        rows: Sequence[Tuple[bytes, ...]],
        capacity: Optional[int],
        slack: int,
        rng: Optional[random.Random],
    ) -> Tuple[int, BucketedHeader]:
        key: Optional[int] = None
        headers = []
        seen_chunks = set()
        for chunk in self.chunk(rows):
            n_max = (
                capacity if capacity is not None else max(len(chunk), 1) + slack
            )
            chunk_id = (tuple(chunk), n_max)
            key, header = self._builder.build(
                chunk, n_max, rng, key=key,
                use_cache=chunk_id not in seen_chunks,
            )
            seen_chunks.add(chunk_id)
            headers.append(header)
        assert key is not None
        return key, BucketedHeader(buckets=tuple(headers))


def build_strategy(
    gkm: str,
    core: AcvBgkm,
    cache: AcvBuildCache,
    bucket_size: int = 0,
):
    """Instantiate the named publish-path strategy."""
    if gkm == "dense":
        return DenseGkmStrategy(core, cache)
    if gkm == "bucketed":
        return BucketedGkmStrategy(core, cache, bucket_size=bucket_size)
    raise InvalidParameterError(
        "gkm strategy must be one of %s, got %r" % (GKM_STRATEGIES, gkm)
    )
