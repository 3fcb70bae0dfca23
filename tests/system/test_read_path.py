"""The subscriber read path, end to end: key set-up count, stage split
and the KEV memo.

The cipher-level rules (insert after verify, the LRU bound, threads,
pickling) are in ``tests/crypto/test_symmetric.py``; here the key-schedule
count is taken where it matters -- one publish delivered to every member
of an in-memory :class:`DisseminationService` -- the OCBE setup is shown
to cross a pickle boundary with an empty table and no key bytes, and
the ``decrypt`` stage is shown to split into ``acv.derive`` and ``cipher``.

The memo tests count Eq. 2 digests the same way (a counting hash as the
system hash: inside ``Subscriber.receive`` only the KEV uses it): zero on
an unchanged header, the full count after a rekey with fresh nonces, the
missing coordinates only after an incremental join; a long-lived
subscriber is compared with a freshly built one over random membership
histories; a revoked one with a warm memo stays locked out; hostile
headers fail typed and leave the memo bounded.
"""

import contextlib
import json
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pedersen import PedersenParams
from repro.crypto.symmetric import AesCtrHmacCipher
from repro.documents import Document
from repro.documents import package as package_module
from repro.documents.package import BroadcastPackage, ConfigHeader
from repro.errors import KeyDerivationError, SerializationError
from repro.gkm.acv import FAST_FIELD, AcvHeader
from repro.gkm.buckets import BucketedHeader
from repro.groups import get_group
from repro.mathx.linalg import RrefFactorization
from repro.obs.trace import SpanWriter, set_span_writer
from repro.ocbe.base import OCBESetup
from repro.ocbe.eq import EqOCBEReceiver, EqOCBESender
from repro.ocbe.predicates import EqPredicate
from repro.policy import parse_policy
from repro.system import (
    DisseminationService,
    IdentityManager,
    IdentityProvider,
    InMemoryTransport,
    Publisher,
    Subscriber,
    SubscriberClient,
    run_until_idle,
)
from repro.system.subscriber import KEV_MEMO_ENTRIES
from repro.wire.messages import BroadcastMessage, decode_message
from tests.gkm.scratch import from_scratch

MEMBERS = 9
SEGMENTS = {"body1": 64, "body2": 700, "vip1": 16, "vip2": 2000, "spare": 40}


POLICIES = (
    ("clr >= 40", ["body1", "body2"]),
    ("clr >= 80", ["vip1", "vip2"]),
    ("clr >= 250", ["spare"]),  # keyed, but nobody holds its CSS
)


class _World:
    """A publisher with three policy configurations (one that no member
    satisfies) and ``members`` provisioned clients with values 90, 91, ...:
    each entitled to body + VIP.  ``join`` adds one with any value."""

    def __init__(self, gkm, cipher, hash_fn=None, members=MEMBERS):
        group = get_group("nist-p192")
        self.idp = IdentityProvider("idp", group, rng=random.Random(1))
        self.idmgr = IdentityManager(group, rng=random.Random(2))
        self.idmgr.trust_idp(self.idp)
        self.publisher = Publisher(
            "pub", self.idmgr.params, self.idmgr.public_key, gkm_field=FAST_FIELD,
            attribute_bits=8, rng=random.Random(3), cipher=cipher, gkm=gkm,
            gkm_bucket_size=2 if gkm == "bucketed" else 0, hash_fn=hash_fn,
        )
        for text, segments in POLICIES:
            self.publisher.add_policy(parse_policy(text, segments, "feed"))
        self.transport = InMemoryTransport()
        self.service = DisseminationService(self.publisher, self.transport)
        self.clients = []
        self.tokens = {}
        self.values = {}
        for index in range(members):
            self.join(90 + index)

    def join(self, value):
        index = len(self.tokens)
        user = "u%d" % index
        nym = self.idmgr.assign_pseudonym()
        self.idp.enroll(user, "clr", value)
        token, x, r = self.idmgr.issue_token(
            nym, self.idp.assert_attribute(user, "clr")
        )
        subscriber = Subscriber(
            nym, self.publisher.params, rng=random.Random(10 + index)
        )
        subscriber.hold_token(token, x, r)
        client = SubscriberClient(subscriber, self.transport, "pub")
        self.clients.append(client)
        self.tokens[nym] = token
        self.values[nym] = value
        self.provision(client)
        return client

    def provision(self, client):
        """(Re-)register ``client`` for every condition: a fresh CSS per
        cell at the publisher, stored by the client where its value
        satisfies the condition -- a credential replacement when the cell
        existed."""
        nym = client.subscriber.nym
        for condition in self.publisher.conditions_for_attribute("clr"):
            offer = self.publisher.open_registration(self.tokens[nym], condition)
            if self.values[nym] >= int(condition.key().rsplit(" ", 1)[-1]):
                client.subscriber.store_css(condition.key(), offer.css)

    def entitled(self, client, document):
        """What ``client`` must hold of ``document`` by its value alone."""
        value = self.values[client.subscriber.nym]
        return {
            name: document.get(name).content
            for text, segments in POLICIES
            for name in segments
            if value >= int(text.rsplit(" ", 1)[-1])
        }


def _world(gkm, cipher):
    world = _World(gkm, cipher)
    return world.service, world.clients


def _document(seed):
    payload = random.Random(seed)
    return Document.of(
        "feed", {name: payload.randbytes(size) for name, size in SEGMENTS.items()}
    )


@pytest.mark.parametrize("gkm", ["dense", "bucketed"])
def test_one_key_schedule_per_nonempty_configuration(gkm, key_setups):
    cipher = AesCtrHmacCipher()
    service, clients = _world(gkm, cipher)
    payload = random.Random(4)
    document = Document.of(
        "feed", {name: payload.randbytes(size) for name, size in SEGMENTS.items()}
    )
    del key_setups[:]
    package = service.publish(document)
    run_until_idle(clients)

    keyed = [header for header in package.headers if header.acv is not None]
    assert len(keyed) == 3
    entitled = {n: document.get(n).content for n in SEGMENTS if n != "spare"}
    for client in clients:
        assert client.latest_plaintexts() == entitled
    # Five subdocuments under three keys, four of them decrypted by nine
    # members (through several wrong bucket candidates each when bucketed):
    # one key schedule per configuration key, not one per subdocument per
    # member.
    assert len(key_setups) == len(keyed)

    # The next publish rekeys, so it pays again -- once per configuration.
    service.publish(document)
    run_until_idle(clients)
    assert len(key_setups) == 2 * len(keyed)


def test_ocbe_setup_crosses_a_pickle_boundary_with_nothing_remembered():
    rng = random.Random(5)
    pedersen = PedersenParams(get_group("nist-p192"))
    setup = OCBESetup(pedersen=pedersen, cipher=AesCtrHmacCipher())
    secret = b"\x01remembered-by-the-parent-only\x02"
    setup.cipher.encrypt(secret, b"warm the table")
    assert list(setup.cipher._key_states) == [secret]

    blob = pickle.dumps(setup)
    assert secret not in blob
    shipped = pickle.loads(blob)
    assert list(shipped.cipher._key_states) == []

    # An envelope composed on one side of the boundary opens on the other.
    predicate = EqPredicate(28)
    commitment, r = pedersen.commit(28, rng=rng)
    sender = EqOCBESender(shipped, predicate, rng)
    receiver = EqOCBEReceiver(setup, predicate, 28, r, commitment, rng)
    envelope = sender.compose(commitment, receiver.commitment_message(), b"css")
    assert receiver.open(envelope) == b"css"


@pytest.mark.parametrize("gkm,derivations", [("dense", 1), ("bucketed", 5)])
def test_decrypt_stage_splits_into_derive_and_cipher(gkm, derivations, tmp_path):
    service, clients = _world(gkm, AesCtrHmacCipher())
    document = Document.of(
        "feed", {name: bytes(size) for name, size in SEGMENTS.items()}
    )
    package = service.publish(document)
    writer = SpanWriter(str(tmp_path / "obs.jsonl"), "sub")
    previous = set_span_writer(writer)
    try:
        clients[0].pump()
    finally:
        set_span_writer(previous)
        writer.close()
    records = [
        json.loads(line) for line in open(tmp_path / "obs.jsonl", encoding="utf-8")
    ]
    stages = [r for r in records if r["event"] == "span"]
    (decrypt,) = [r for r in stages if r["stage"] == "decrypt"]
    children = [r for r in stages if r.get("parent") == decrypt["span"]]
    derive = [r for r in children if r["stage"] == "acv.derive"]
    cipher = [r for r in children if r["stage"] == "cipher"]
    assert len(derive) + len(cipher) == len(children)

    # One derive span per configuration the member can satisfy (nine rows in
    # buckets of two: five candidates), one cipher span per subdocument it
    # holds candidates for -- and the children never outlast their parent.
    assert [r["candidates"] for r in derive] == [derivations] * 2
    sizes = {sub.name: len(sub.ciphertext) for sub in package.subdocuments}
    assert sorted(r["size"] for r in cipher) == sorted(
        sizes[name] for name in SEGMENTS if name != "spare"
    )
    assert all(r["candidates"] == derivations for r in cipher)
    assert sum(r["dur"] for r in children) <= decrypt["dur"]
    # Telemetry stays numeric: counts and byte sizes, never bytes or keys.
    extra = {"candidates", "size"}
    for record in children:
        assert all(type(record[name]) is int for name in extra & set(record))


# -- the KEV memo -------------------------------------------------------------


def _acvs(header):
    if isinstance(header.acv, BucketedHeader):
        return header.acv.buckets
    return (header.acv,) if header.acv is not None else ()


def _coordinates(package, subscriber):
    """``{(config id, CSS tuple, q, nonces): nonzero coordinates of X}`` for
    every ACV a receive of ``package`` by ``subscriber`` derives from."""
    needed = {}
    for header in package.headers:
        for keys in header.policies:
            if all(key in subscriber.css_store for key in keys):
                css = tuple(subscriber.css_store[key] for key in keys)
                for acv in _acvs(header):
                    needed[header.config_id, css, acv.q, acv.zs] = {
                        j for j, x_j in enumerate(acv.x[1:]) if x_j
                    }
    return needed


def _cold_digests(package, clients):
    return sum(
        len(coordinates)
        for client in clients
        for coordinates in _coordinates(package, client.subscriber).values()
    )


@pytest.mark.parametrize("gkm", ["dense", "bucketed"])
def test_unchanged_header_costs_no_eq2_digest_and_a_rekey_costs_them_all(
    gkm, counting_hash
):
    h, calls = counting_hash
    world = _World(gkm, AesCtrHmacCipher(), hash_fn=h)
    service, clients = world.service, world.clients

    first = service.publish(_document(1))
    del calls[:]
    run_until_idle(clients)
    assert len(calls) == _cold_digests(first, clients) > 0

    # Same membership: the ACV cache rebinds the same nonces to a fresh key,
    # so every member derives it from what it remembered.
    for seed in (2, 3):
        document = _document(seed)
        package = service.publish(document)
        assert [_acvs(a)[0].zs for a in package.headers[:2]] == [
            _acvs(b)[0].zs for b in first.headers[:2]
        ]
        del calls[:]
        run_until_idle(clients)
        assert calls == []
        for client in clients:
            assert client.latest_plaintexts() == world.entitled(client, document)

    # A dense revoke removes the row and cuts the trailing nonces: every
    # remaining member already holds what it needs.  A bucketed revoke
    # re-solves every bucket under fresh nonces: nothing remembered applies.
    revoked = clients[4]
    assert service.publisher.revoke_subscription(revoked.subscriber.nym)
    document = _document(4)
    package = service.publish(document)
    del calls[:]
    run_until_idle(clients)
    if gkm == "dense":
        assert calls == []
    else:
        assert len(calls) == _cold_digests(package, clients) > 0
    for client in clients:
        expected = {} if client is revoked else world.entitled(client, document)
        assert client.latest_plaintexts() == expected


@pytest.fixture
def eliminations(monkeypatch):
    """A list that grows by one on every from-scratch factorization."""
    calls = []
    original = RrefFactorization.from_matrix.__func__

    def counting(cls, matrix):
        calls.append(matrix.shape)
        return original(cls, matrix)

    monkeypatch.setattr(RrefFactorization, "from_matrix", classmethod(counting))
    return calls


@pytest.mark.parametrize("revoke", ["subscription", "credential"])
def test_dense_revoke_costs_no_digest_and_no_elimination(
    revoke, counting_hash, eliminations
):
    """A dense revoke is a row removal from the carried elimination: the
    publisher hashes no Eq. 2 value and factors no matrix, and no member
    hashes either (the kept nonces are a prefix of the ones it saw).  A
    policy change still re-solves everything under fresh nonces."""
    h, calls = counting_hash
    world = _World("dense", AesCtrHmacCipher(), hash_fn=h)
    service, clients = world.service, world.clients
    publisher = service.publisher
    service.publish(_document(1))
    run_until_idle(clients)

    victim = clients[4].subscriber.nym
    if revoke == "subscription":
        assert publisher.revoke_subscription(victim)
        lost = {text for text, _ in POLICIES}
    else:
        assert publisher.revoke_credential(victim, "clr >= 40")
        lost = {"clr >= 40"}
    del calls[:], eliminations[:]
    document = _document(2)
    package = service.publish(document)
    assert (calls, eliminations) == ([], [])
    run_until_idle(clients)
    assert calls == []
    for client in clients:
        expected = world.entitled(client, document)
        if client.subscriber.nym == victim:
            expected = {
                name: content for name, content in expected.items()
                if not any(name in segments and text in lost
                           for text, segments in POLICIES)
            }
        assert client.latest_plaintexts() == expected

    # vip1 gains a second policy that nobody holds a CSS for: entitlements
    # do not move, but every configuration re-solves from fresh nonces
    # (one solve per distinct row set: the split-off vip2 configuration
    # has vip1's rows and hits the entry vip1 just stored).
    publisher.add_policy(parse_policy("clr >= 95", ["vip1"], "feed"))
    del calls[:], eliminations[:]
    package = service.publish(_document(3))
    row_sets = {
        tuple(row for bucket in publisher.table.rows_for_policies(header.policies)
              for row in bucket)
        for header in package.headers
        if header.acv is not None
    }
    assert len(calls) == sum(len(rows) ** 2 for rows in row_sets) > 0
    assert len(eliminations) == len(row_sets)
    del calls[:]
    run_until_idle(clients)
    assert len(calls) == _cold_digests(package, clients) > 0


def test_incremental_join_computes_only_the_missing_coordinates(counting_hash):
    h, calls = counting_hash
    world = _World("dense", AesCtrHmacCipher(), hash_fn=h)
    service, clients = world.service, list(world.clients)
    capacity = MEMBERS + 6

    before = service.publish(_document(1), capacity=capacity)
    run_until_idle(clients)
    joiner = world.join(200)
    document = _document(2)
    after = service.publish(document, capacity=capacity)
    # Every configuration's factorization was extended in place: same
    # nonces, one more row, a different sparse null-space combination.
    assert service.publisher.acv_cache_stats()["extends"] == len(POLICIES)
    del calls[:]
    run_until_idle(world.clients)

    expected = 0
    for client in clients:
        seen = _coordinates(before, client.subscriber)
        needed = _coordinates(after, client.subscriber)
        assert seen.keys() == needed.keys()
        expected += sum(len(needed[key] - seen[key]) for key in needed)
    assert 0 < expected < _cold_digests(after, clients)
    assert len(calls) == expected + _cold_digests(after, [joiner])
    for client in world.clients:
        assert client.latest_plaintexts() == world.entitled(client, document)


def _values(package, subscriber):
    """``{(config id, CSS tuple, q, nonce)}``: every Eq. 2 value a receive
    of ``package`` by ``subscriber`` needs (a value depends on nothing
    else)."""
    return {
        (config_id, css, q, zs[j])
        for (config_id, css, q, zs), coordinates in _coordinates(
            package, subscriber
        ).items()
        for j in coordinates
    }


@pytest.mark.parametrize("gkm", ["dense", "bucketed"])
def test_capacity_growing_join_costs_only_the_appended_nonces(gkm, counting_hash):
    """A join at the Eq.-1 capacity extends the factorization with fresh
    nonces appended to the old ones.  An existing member hashes only the
    appended nonces it needs; the joiner pays its cold count."""
    h, calls = counting_hash
    world = _World(gkm, AesCtrHmacCipher(), hash_fn=h)
    service, clients = world.service, list(world.clients)

    before = service.publish(_document(1))
    run_until_idle(clients)
    joiner = world.join(200)
    document = _document(2)
    after = service.publish(document)
    assert service.publisher.acv_cache_stats()["extends"] >= len(POLICIES)
    grown = [
        (old.zs, new.zs)
        for a, b in zip(before.headers, after.headers)
        for old, new in zip(_acvs(a), _acvs(b))
        if old.zs != new.zs
    ]
    assert grown and all(
        len(old) < len(new) and new[: len(old)] == old for old, new in grown
    )
    del calls[:]
    run_until_idle(world.clients)

    expected = sum(
        len(_values(after, c.subscriber) - _values(before, c.subscriber))
        for c in clients
    )
    assert 0 < expected < _cold_digests(after, clients) // 4
    assert len(calls) == expected + _cold_digests(after, [joiner])
    for client in world.clients:
        assert client.latest_plaintexts() == world.entitled(client, document)


@pytest.mark.parametrize("gkm", ["dense", "bucketed"])
def test_keying_headers_materialized_are_the_headers_derived_from(
    gkm, monkeypatch
):
    """A delivery decodes a keying header only for a configuration the
    member can open: none for a member without a satisfiable policy, none
    for the configuration nobody holds a CSS for."""
    world = _World(gkm, AesCtrHmacCipher())
    service = world.service
    outsider = world.join(10)  # below every threshold: no CSS at all
    materialized = []
    original = package_module.decode_keying_header

    def counting(raw):
        materialized.append(raw)
        return original(raw)

    monkeypatch.setattr(package_module, "decode_keying_header", counting)
    for seed in (1, 2):
        package = service.publish(_document(seed))
        for client in world.clients:
            del materialized[:]
            run_until_idle([client])
            derived_from = {
                config_id for config_id, _, _, _ in _coordinates(
                    package, client.subscriber
                )
            }
            assert len(materialized) == len(derived_from)
            if client is outsider:
                assert materialized == []
            else:
                assert len(materialized) == 2  # body and VIP, never "spare"


def test_hostile_prefix_sharing_buckets_leave_the_memo_bounded():
    """Every bucket of one hostile header and of the previous one shares
    one seed at a different count, so each one's nonces are a prefix of
    every longer bucket's: the memo stays one list per bucket, never
    larger than the header."""
    world = _World("dense", AesCtrHmacCipher(), members=2)
    service, clients = world.service, world.clients
    good = service.publish(_document(1))
    run_until_idle(clients)
    subscriber = clients[0].subscriber
    template = good.headers[0]
    q = template.acv.q
    seed = bytes(range(20))

    def nested(first, count):
        return BucketedHeader(
            buckets=tuple(
                AcvHeader(q=q, x=(1,) + (0,) * (n - 1) + (1,), seed=seed, capacity=n)
                for n in range(first, first + count)
            )
        )

    for first in (1, 2, 3):
        header = nested(first, 400)
        hostile = ConfigHeader(
            config_id=template.config_id, policies=template.policies, acv=header
        )
        assert subscriber.receive(_hostile_package(hostile)) == {}
        (entry,) = [
            e for (config_id, _), e in subscriber._kev_memo.items()
            if config_id == template.config_id
        ]
        assert [len(values) for _, values in entry] == [
            acv.capacity for acv in header.buckets
        ]
        assert len(subscriber._kev_memo) <= KEV_MEMO_ENTRIES


def _remembered(subscriber):
    """``[(CSS tuple, (q, seed), values)]``: a copy of everything in the
    subscriber's KEV memo."""
    return [
        (css, nonces, list(values))
        for (_, css), entry in subscriber._kev_memo.items()
        for nonces, values in entry
    ]


@pytest.mark.parametrize(
    "gkm,cached", [("dense", True), ("bucketed", True), ("dense", False)]
)
def test_revoked_subscriber_with_a_warm_memo_is_locked_out(gkm, cached):
    """The adversary keeps everything it ever computed: CSSs *and* the KEV
    entries of every header it saw.  Post-revoke headers carry a fresh
    seed (bucketed, from scratch) or the old seed at a smaller count
    (dense: the row removal cuts the capacity back), so none of it
    applies -- on the dense, bucketed and from-scratch paths, and for a
    colluding pair."""
    with contextlib.nullcontext() if cached else from_scratch():
        _revoked_subscriber_with_a_warm_memo_is_locked_out(gkm)


def _revoked_subscriber_with_a_warm_memo_is_locked_out(gkm):
    world = _World(gkm, AesCtrHmacCipher())
    service, clients = world.service, world.clients
    for seed in (1, 2):
        service.publish(_document(seed))
        run_until_idle(clients)
    revoked = clients[:2]
    for client in revoked:
        assert client.latest_plaintexts() == world.entitled(client, _document(2))
    loot = [item for client in revoked for item in _remembered(client.subscriber)]
    assert loot
    assert service.publisher.revoke_subscriptions(
        [client.subscriber.nym for client in revoked]
    ) == 2
    gkm_core = revoked[0].subscriber._gkm
    for seed in (3, 4):  # the rekey, then a cache hit on the new epoch
        document = _document(seed)
        package = service.publish(document)
        run_until_idle(clients)
        for client in clients[2:]:
            assert client.latest_plaintexts() == world.entitled(client, document)
        for client in revoked:
            assert client.latest_plaintexts() == {}
        for header in package.headers[:2]:
            real = service.publisher.last_keys["feed", header.config_id]
            for acv in _acvs(header):
                for css, nonces, values in loot:
                    # Nothing remembered is addressed by the new header
                    # but a longer memo under a kept seed ...
                    assert nonces != (acv.q, acv.seed) or len(values) > acv.capacity
                    # ... and replaying it by force derives no current key.
                    if len(values) >= acv.capacity:
                        replay = values[: acv.capacity]
                        assert gkm_core.derive(acv, css, replay) != real


# -- long-lived vs fresh subscriber ---------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.sampled_from([None, 24])),
        st.tuples(st.just("join"), st.sampled_from([10, 50, 90, 200])),
        st.tuples(st.just("revoke"), st.integers(0, 31)),
        st.tuples(st.just("replace"), st.integers(0, 31)),
        st.tuples(st.just("drop-credential"), st.integers(0, 31)),
    ),
    min_size=3,
    max_size=10,
)


@pytest.mark.parametrize(
    "gkm,cached", [("dense", True), ("bucketed", True), ("dense", False)]
)
@settings(max_examples=12)
@given(ops=_OPS, seed=st.integers(0, 2**16))
def test_long_lived_subscriber_equals_a_fresh_one(gkm, cached, ops, seed):
    with contextlib.nullcontext() if cached else from_scratch():
        _long_lived_subscriber_equals_a_fresh_one(gkm, ops, seed)


def _long_lived_subscriber_equals_a_fresh_one(gkm, ops, seed):
    world = _World(gkm, AesCtrHmacCipher(), members=4)
    publisher = world.publisher
    everyone = world.clients  # grows with joins; revoked members stay in it
    locked_out = {}  # nym -> condition keys the publisher no longer honours

    def check(capacity):
        document = _document(seed + publisher.epoch)
        package = publisher.publish(document, capacity=capacity)
        for client in everyone:
            veteran = client.subscriber
            fresh = Subscriber(veteran.nym, publisher.params)
            fresh.css_store.update(veteran.css_store)
            plaintexts = veteran.receive(package)
            assert plaintexts == fresh.receive(package)
            lost = locked_out.get(veteran.nym, set())
            expected = {
                name: document.get(name).content
                for text, segments in POLICIES
                for name in segments
                if text not in lost and text in veteran.css_store
            }
            assert plaintexts == expected

    check(None)
    for op, argument in ops + [("publish", None)]:
        if op == "publish":
            check(argument)
            continue
        if op == "join":
            world.join(argument)
            continue
        client = everyone[argument % len(everyone)]
        nym = client.subscriber.nym
        if op == "revoke":
            publisher.revoke_subscription(nym)
            locked_out[nym] = {text for text, _ in POLICIES}
        elif op == "replace":
            world.provision(client)
            locked_out.pop(nym, None)
        elif client.subscriber.css_store:  # drop-credential
            key = sorted(client.subscriber.css_store)[0]
            publisher.revoke_credential(nym, key)
            locked_out.setdefault(nym, set()).add(key)


# -- hostile headers ------------------------------------------------------------


def _hostile_package(header):
    return BroadcastPackage(document="feed", headers=(header,), subdocuments=())


def test_wrong_arity_header_is_refused_at_decode_and_keeps_the_memo():
    """An ``X`` whose arity is not N + 1, under fresh nonces, is refused
    when the frame is decoded -- before the subscriber files a KEV memo
    under those nonces -- so the memo of the last honest header survives
    and the next delivery of that header costs no Eq. 2 hash."""
    world = _World("dense", AesCtrHmacCipher(), members=2)
    service, client = world.service, world.clients[0]
    good = service.publish(_document(1))
    run_until_idle(world.clients)
    remembered = _remembered(client.subscriber)
    assert remembered
    template = good.headers[0]
    acv = template.acv
    hostile = replace(
        template, acv=replace(acv, x=acv.x + (7,), seed=bytes(reversed(acv.seed)))
    )
    frame = BroadcastMessage(
        package=replace(good, headers=(hostile,) + good.headers[1:])
    ).encode()
    with pytest.raises(SerializationError, match="arity"):
        decode_message(frame, world.publisher.params.pedersen.group)
    world.transport.broadcast(service.name, BroadcastMessage.KIND, frame)
    with pytest.raises(SerializationError, match="arity"):
        client.pump()
    assert _remembered(client.subscriber) == remembered


def test_hostile_headers_fail_typed_and_leave_the_memo_bounded():
    world = _World("dense", AesCtrHmacCipher(), members=2)
    service, clients = world.service, world.clients
    good = service.publish(_document(1))
    run_until_idle(clients)
    subscriber = clients[0].subscriber
    keys = sorted(subscriber.css_store)
    template = good.headers[0]
    acv = template.acv

    for bad in (
        replace(acv, x=acv.x[:-1]),
        replace(acv, q=1),
        BucketedHeader(buckets=(acv, replace(acv, x=(1,)))),
    ):
        hostile = ConfigHeader(
            config_id=template.config_id, policies=template.policies, acv=bad
        )
        with pytest.raises(KeyDerivationError):
            subscriber.receive(_hostile_package(hostile))
        assert len(subscriber._kev_memo) <= KEV_MEMO_ENTRIES

    # Thousands of satisfiable "policies": the Sub's own condition keys in
    # every repetition pattern, each a distinct CSS tuple.
    many = tuple(
        tuple(keys[(n >> bit) & 1] for bit in range(12)) for n in range(4096)
    )
    hostile = ConfigHeader(config_id=template.config_id, policies=many, acv=acv)
    assert subscriber.receive(_hostile_package(hostile)) == {}
    assert len(subscriber._kev_memo) == KEV_MEMO_ENTRIES
    slots = sum(
        len(values)
        for entry in subscriber._kev_memo.values()
        for _, values in entry
    )
    assert slots == KEV_MEMO_ENTRIES * acv.capacity

    # The flood evicted the honest entries; the next honest package simply
    # recomputes them.
    document = _document(2)
    service.publish(document)
    run_until_idle(clients)
    assert clients[0].latest_plaintexts() == world.entitled(clients[0], document)
