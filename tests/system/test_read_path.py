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

import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pedersen import PedersenParams
from repro.crypto.symmetric import AesCtrHmacCipher
from repro.documents import Document
from repro.documents.package import BroadcastPackage, ConfigHeader
from repro.errors import KeyDerivationError
from repro.gkm.acv import FAST_FIELD, AcvHeader
from repro.gkm.buckets import BucketedHeader
from repro.groups import get_group
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

    def __init__(self, gkm, cipher, hash_fn=None, acv_cache=True, members=MEMBERS):
        group = get_group("nist-p192")
        self.idp = IdentityProvider("idp", group, rng=random.Random(1))
        self.idmgr = IdentityManager(group, rng=random.Random(2))
        self.idmgr.trust_idp(self.idp)
        self.publisher = Publisher(
            "pub", self.idmgr.params, self.idmgr.public_key, gkm_field=FAST_FIELD,
            attribute_bits=8, rng=random.Random(3), cipher=cipher, gkm=gkm,
            gkm_bucket_size=2 if gkm == "bucketed" else None,
            hash_fn=hash_fn, acv_cache=acv_cache,
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

    # A revoke rekeys under fresh nonces: nothing remembered applies.
    revoked = clients[4]
    assert service.publisher.revoke_subscription(revoked.subscriber.nym)
    document = _document(4)
    package = service.publish(document)
    del calls[:]
    run_until_idle(clients)
    assert len(calls) == _cold_digests(package, clients) > 0
    for client in clients:
        expected = {} if client is revoked else world.entitled(client, document)
        assert client.latest_plaintexts() == expected


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


def _remembered(subscriber):
    """``[(CSS tuple, (q, nonces), values)]``: a copy of everything in the
    subscriber's KEV memo."""
    return [
        (css, nonces, list(values))
        for (_, css), entry in subscriber._kev_memo.items()
        for nonces, values in entry.items()
    ]


@pytest.mark.parametrize(
    "gkm,acv_cache", [("dense", True), ("bucketed", True), ("dense", False)]
)
def test_revoked_subscriber_with_a_warm_memo_is_locked_out(gkm, acv_cache):
    """The adversary keeps everything it ever computed: CSSs *and* the KEV
    entries of every header it saw.  Post-revoke headers carry fresh
    nonces, so none of it applies -- on the dense, bucketed and
    cache-disabled paths, and for a colluding pair."""
    world = _World(gkm, AesCtrHmacCipher(), acv_cache=acv_cache)
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
                    # Nothing remembered is addressed by the new header ...
                    assert nonces != (acv.q, acv.zs)
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
    "gkm,acv_cache", [("dense", True), ("bucketed", True), ("dense", False)]
)
@settings(max_examples=12)
@given(ops=_OPS, seed=st.integers(0, 2**16))
def test_long_lived_subscriber_equals_a_fresh_one(gkm, acv_cache, ops, seed):
    world = _World(gkm, AesCtrHmacCipher(), acv_cache=acv_cache, members=4)
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
        AcvHeader(q=acv.q, x=acv.x[:-1], zs=acv.zs),
        AcvHeader(q=1, x=acv.x, zs=acv.zs),
        BucketedHeader(buckets=(acv, AcvHeader(q=acv.q, x=(1,), zs=acv.zs))),
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
        for values in entry.values()
    )
    assert slots == KEV_MEMO_ENTRIES * acv.capacity

    # The flood evicted the honest entries; the next honest package simply
    # recomputes them.
    document = _document(2)
    service.publish(document)
    run_until_idle(clients)
    assert clients[0].latest_plaintexts() == world.entitled(clients[0], document)
