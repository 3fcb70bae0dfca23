"""Adversary tests for the membership-change envelope of the ACV cache.

The publish path reuses nonces across membership changes: a join extends
the carried elimination (:meth:`~repro.gkm.acv.AcvFactorization.extend`)
and a dense revoke removes rows from it
(:meth:`~repro.gkm.acv.AcvFactorization.remove`); a bucketed revoke
re-solves every bucket under fresh nonces.  Each test plays a member
set that keeps everything it ever held -- its CSS rows, every header
broadcast, every key it was entitled to -- against the headers of the
epochs it is not entitled to:

* a revoked bucketed member tries ``X'[0] - X[0] + K`` on every bucket
  whose nonces repeat across the revoke;
* a coalition of members revoked over several dense revoke/join cycles
  checks whether a post-revoke ``X`` lies in the span of the vectors
  ``Y = X - K e_0`` it knows, coordinates matched by nonce;
* members who joined through an incremental extension check the same of
  the headers from before their join;
* a dense revoked coalition checks the same after joins regrow the nonce
  count over indices it already hashed (nonce ``j`` is ``seed || u32(j)``,
  and the seed survives both the cut and the growth);
* a member revoked at an epoch boundary adds every public ``X'[0] - X[0]``
  to the keys it holds -- within an epoch a cache hit repeats
  ``(seed, Y)``, so that difference is ``K' - K``.
"""

import random

import pytest

from repro.documents import Document
from repro.gkm.acv import FAST_FIELD, AcvBgkm
from repro.gkm.buckets import BucketedHeader
from repro.groups import get_group
from repro.mathx.linalg import Matrix
from repro.policy import parse_policy
from repro.system import IdentityManager, IdentityProvider, Publisher

CORE = AcvBgkm(FAST_FIELD)
P = FAST_FIELD.p


class _Feed:
    """One publisher, one policy (``clr >= 40`` on one segment) and
    members registered through the public calls; a member's row is the
    one-CSS tuple the publisher minted for it."""

    def __init__(self, gkm, members, slack=0):
        group = get_group("nist-p192")
        self.idp = IdentityProvider("idp", group, rng=random.Random(1))
        self.idmgr = IdentityManager(group, rng=random.Random(2))
        self.idmgr.trust_idp(self.idp)
        self.publisher = Publisher(
            "pub", self.idmgr.params, self.idmgr.public_key, gkm_field=FAST_FIELD,
            attribute_bits=8, rng=random.Random(3), gkm=gkm,
            gkm_bucket_size=2 if gkm == "bucketed" else 0, capacity_slack=slack,
        )
        self.publisher.add_policy(parse_policy("clr >= 40", ["body"], "feed"))
        (self.condition,) = self.publisher.conditions_for_attribute("clr")
        self.rows = {}  # nym -> CSS row, current members only
        for _ in range(members):
            self.join()

    def join(self):
        nym = self.idmgr.assign_pseudonym()
        user = "user-%s" % nym
        self.idp.enroll(user, "clr", 50)
        assertion = self.idp.assert_attribute(user, "clr")
        token, _, _ = self.idmgr.issue_token(nym, assertion)
        offer = self.publisher.open_registration(token, self.condition)
        self.rows[nym] = (offer.css,)
        return nym

    def revoke(self, nym):
        assert self.publisher.revoke_subscription(nym)
        return self.rows.pop(nym)

    def publish(self, capacity=None):
        """``(ACVs, key, rows of the members entitled to the key)``."""
        document = Document.of("feed", {"body": bytes(16)})
        (header,) = self.publisher.publish(document, capacity=capacity).headers
        key = self.publisher.last_keys["feed", header.config_id]
        acvs = header.acv.buckets if isinstance(header.acv, BucketedHeader) else (
            header.acv,
        )
        return acvs, key, set(self.rows.values())


def _y(acv, key):
    """The null-space vector behind a header, given its key."""
    return {"one": (acv.x[0] - key) % P, **dict(zip(acv.zs, acv.x[1:]))}


def _tail(acv):
    return dict(zip(acv.zs, acv.x[1:]))


def _in_span(target, vectors):
    """Whether ``target`` is a combination of ``vectors``; every vector is
    a ``{coordinate: value}`` map, a nonce coordinate meaning the same
    matrix column in any header."""
    coordinates = sorted({c for v in vectors + [target] for c in v}, key=repr)
    rows = [[v.get(c, 0) for c in coordinates] for v in vectors + [target]]
    rank = Matrix(FAST_FIELD, rows[:-1]).rank() if vectors else 0
    return Matrix(FAST_FIELD, rows).rank() == rank


def _without_one(vector):
    return {c: x for c, x in vector.items() if c != "one"}


def test_revoked_bucketed_member_gets_nothing_from_repeated_nonces():
    """All buckets share ``K``: a bucket that kept its rows across a revoke
    and repeated its ``Y`` would hand the revoked member ``K'`` as
    ``X'[0] - X[0] + K``.  The revoked row is the last one, so every
    other bucket keeps its rows."""
    feed = _Feed("bucketed", members=9)
    before, old_key, _ = feed.publish()
    victim = feed.revoke(sorted(feed.rows)[-1])
    for _ in range(2):  # the rekey, then a cache hit in the new epoch
        acvs, key, _ = feed.publish()
        assert len(acvs) == 4
        for acv in acvs:
            assert CORE.derive(acv, victim) != key
            for old in before:
                if old.zs == acv.zs:
                    assert (acv.x[0] - old.x[0] + old_key) % P != key


@pytest.mark.parametrize("slack", [0, 2])
def test_dense_revoked_coalition_learns_no_later_key(slack):
    """Three cycles of two revokes then two joins at m = 12, at the Eq.-1
    capacity and with two spare nonces.  The coalition of everyone
    revoked so far holds their rows and the full ``Y`` of every header
    one of them was entitled to; no post-revoke ``X`` tail lies in the
    span of those ``Y`` tails, and no row of the coalition derives a
    post-revoke key."""
    feed = _Feed("dense", members=12, slack=slack)
    schedule = random.Random(7)
    coalition, known = [], []
    epochs = []  # (ACV, key, entitled rows) of every publish so far

    def learn():
        del known[:]
        for acv, key, entitled in epochs:
            if entitled.intersection(coalition):
                known.append(_y(acv, key))

    acvs, key, entitled = feed.publish()
    epochs.append((acvs[0], key, entitled))
    for _ in range(3):
        for nym in schedule.sample(sorted(feed.rows), 2):
            coalition.append(feed.revoke(nym))
        learn()
        assert known
        for _ in range(2):  # the downdate, then a cache hit
            (acv,), key, entitled = feed.publish()
            for row in coalition:
                assert CORE.derive(acv, row) != key
            assert not _in_span(_tail(acv), [_without_one(y) for y in known])
            assert len(acv.zs) == len(feed.rows) + slack
            epochs.append((acv, key, entitled))
        for _ in range(2):
            feed.join()
        (acv,), key, entitled = feed.publish()
        epochs.append((acv, key, entitled))
    # Every revoke was a row removal over reused nonces: the span test
    # compared headers over shared matrix columns, not disjoint ones.
    assert feed.publisher._acv_cache.downdates == 3


@pytest.mark.parametrize("capacity", [16, None], ids=["slack", "eq1"])
def test_incremental_joiners_learn_no_earlier_key(capacity):
    """Members who joined through ``AcvFactorization.extend`` hold every
    key from their join on and the nonces of earlier headers (reused by
    the extension): no pre-join header derives under their rows, and no
    pre-join ``X`` tail lies in the span of the ``Y`` tails they know."""
    feed = _Feed("dense", members=6)
    before = [feed.publish(capacity)[:2] for _ in range(2)]
    joiners = [feed.rows[feed.join()] for _ in range(2)]
    after = []
    for _ in range(2):
        (acv,), key, _ = feed.publish(capacity)
        for row in joiners:
            assert CORE.derive(acv, row) == key
        after.append(_y(acv, key))
    # One extension, over the nonces the pre-join headers carried.
    assert feed.publisher.acv_cache_stats()["extends"] == 1
    (old,), _ = before[-1]
    assert set(old.zs) <= set(after[-1])
    for (acv,), key in before:
        for row in joiners:
            assert CORE.derive(acv, row) != key
        assert not _in_span(_tail(acv), [_without_one(y) for y in after])


@pytest.mark.parametrize("slack", [0, 2])
def test_a_count_regrown_over_hashed_indices_gives_the_coalition_no_later_key(slack):
    """Nonce ``j`` is ``seed || u32(j)``: a revoke cuts the count, and a
    join grows it back under the same seed, so the regrown columns are
    nonces the revoked coalition already hashed -- its Eq. 2 values there
    are exactly the ones it computed before.  Three cycles of two revokes
    then two joins at m = 12: no row of the coalition derives a later key,
    and no later ``X`` tail lies in the span of the ``Y`` tails it knows,
    coordinates matched by nonce."""
    feed = _Feed("dense", members=12, slack=slack)
    schedule = random.Random(11)
    (first,), key, entitled = feed.publish()
    coalition, epochs = [], [(first, key, entitled)]
    for _ in range(3):
        for nym in schedule.sample(sorted(feed.rows), 2):
            coalition.append(feed.revoke(nym))
        (cut,), cut_key, entitled = feed.publish()
        epochs.append((cut, cut_key, entitled))
        for _ in range(2):
            feed.join()
        (grown,), grown_key, entitled = feed.publish()
        epochs.append((grown, grown_key, entitled))
        # One seed throughout; the two top indices went and came back.
        assert (cut.seed, cut.capacity) == (first.seed, first.capacity - 2)
        assert (grown.seed, grown.zs) == (first.seed, first.zs)
        known = [
            _without_one(_y(acv, k))
            for acv, k, rows in epochs
            if rows.intersection(coalition)
        ]
        for acv, k in ((cut, cut_key), (grown, grown_key)):
            for row in coalition:
                assert CORE.derive(acv, row) != k
            assert not _in_span(_tail(acv), known)
    stats = feed.publisher.acv_cache_stats()
    assert (feed.publisher._acv_cache.downdates, stats["extends"]) == (3, 3)


@pytest.mark.parametrize("gkm", ["dense", "bucketed"])
def test_a_cache_hit_exposes_only_k_prime_minus_k_within_its_epoch(gkm):
    """Two publishes with no membership change between them are one cache
    entry: the same ``(seed, Y)`` under two keys, so ``X'[0] - X[0] =
    K' - K`` is public.  The envelope: the difference turns a key only
    into another key of the same epoch, which every holder of the first
    is entitled to anyway.  The attacker is a member revoked at the epoch
    boundary, holding both keys of the epoch before it: it adds every
    public ``X[0]`` difference it can form, across all four headers, to
    every key it holds, and reaches no key of the new epoch."""
    feed = _Feed(gkm, members=9)
    old = [feed.publish() for _ in range(2)]  # a rekey, then a cache hit
    (acvs, key, _), (hit_acvs, hit_key, _) = old
    for acv, hit in zip(acvs, hit_acvs):
        assert (hit.seed, hit.x[1:]) == (acv.seed, acv.x[1:])
        assert (hit.x[0] - acv.x[0]) % P == (hit_key - key) % P
    victim = feed.revoke(sorted(feed.rows)[-1])
    new = [feed.publish() for _ in range(2)]
    headers = [acv for acvs, _, _ in old + new for acv in acvs]
    differences = {(b.x[0] - a.x[0]) % P for a in headers for b in headers}
    guesses = {(k + d) % P for _, k, _ in old for d in differences}
    for acvs, key, _ in new:
        assert key not in guesses
        for acv in acvs:
            assert CORE.derive(acv, victim) != key
    # The new epoch repeats its own (seed, Y), not the old one's.
    (acvs, _, _), (hit_acvs, _, _) = new
    for acv, hit in zip(acvs, hit_acvs):
        assert (hit.seed, hit.x[1:]) == (acv.seed, acv.x[1:])
        assert all(acv.x[1:] != before.x[1:] for before in old[0][0])
