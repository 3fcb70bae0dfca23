"""The subscriber read path, end to end: key set-up count and stage split.

The cipher-level rules (insert after verify, the LRU bound, threads,
pickling) are in ``tests/crypto/test_symmetric.py``; here the key-schedule
count is taken where it matters -- one publish delivered to every member
of an in-memory :class:`DisseminationService` -- the OCBE setup is shown
to cross a pickle boundary with an empty table and no key bytes, and
the ``decrypt`` stage is shown to split into ``acv.derive`` and ``cipher``.
"""

import json
import pickle
import random

import pytest

from repro.crypto.pedersen import PedersenParams
from repro.crypto.symmetric import AesCtrHmacCipher
from repro.documents import Document
from repro.gkm.acv import FAST_FIELD
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

MEMBERS = 9
SEGMENTS = {"body1": 64, "body2": 700, "vip1": 16, "vip2": 2000, "spare": 40}


def _world(gkm, cipher):
    """A publisher with three policy configurations (one that no member
    satisfies) and ``MEMBERS`` provisioned clients, each entitled to body + VIP."""
    group = get_group("nist-p192")
    idp = IdentityProvider("idp", group, rng=random.Random(1))
    idmgr = IdentityManager(group, rng=random.Random(2))
    idmgr.trust_idp(idp)
    publisher = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=8, rng=random.Random(3), cipher=cipher, gkm=gkm,
        gkm_bucket_size=2 if gkm == "bucketed" else None,
    )
    for text, segments in (
        ("clr >= 40", ["body1", "body2"]),
        ("clr >= 80", ["vip1", "vip2"]),
        ("clr >= 250", ["spare"]),  # keyed, but nobody holds its CSS
    ):
        publisher.add_policy(parse_policy(text, segments, "feed"))
    transport = InMemoryTransport()
    service = DisseminationService(publisher, transport)
    clients = []
    for index in range(MEMBERS):
        user, value = "u%d" % index, 90 + index
        nym = idmgr.assign_pseudonym()
        idp.enroll(user, "clr", value)
        token, x, r = idmgr.issue_token(nym, idp.assert_attribute(user, "clr"))
        subscriber = Subscriber(nym, publisher.params, rng=random.Random(10 + index))
        subscriber.hold_token(token, x, r)
        clients.append(SubscriberClient(subscriber, transport, "pub"))
        for condition in publisher.conditions_for_attribute("clr"):
            offer = publisher.open_registration(token, condition)
            if value >= int(condition.key().rsplit(" ", 1)[-1]):
                subscriber.store_css(condition.key(), offer.css)
    return service, clients


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
