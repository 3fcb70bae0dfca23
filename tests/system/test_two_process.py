"""Two-process-shaped integration test.

Publisher, identity manager and subscribers run as separate endpoints
that communicate *only* via serialized bytes through the router
transport -- exactly the shape of a multi-process deployment.  The test
covers the full lifecycle: token issuance -> registration -> broadcast ->
decryption -> revocation -> rekey, and verifies that every inter-entity
interaction crossed the transport as a wire frame.
"""

import random

import pytest

from repro.documents.model import Document
from repro.errors import RegistrationError
from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.policy.acp import parse_policy
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher
from repro.system.service import (
    DisseminationService,
    IdentityManagerEndpoint,
    SubscriberClient,
    run_until_idle,
)
from repro.system.subscriber import Subscriber
from repro.system.transport import BROADCAST, InMemoryTransport
from repro.wire.codec import decode_frame
from repro.wire.messages import MESSAGE_TYPES

DOC = Document.of(
    "report", {"clinical": b"clinical body", "billing": b"billing body"}
)


@pytest.fixture
def world():
    rng = random.Random(0x2B10C)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    publisher = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=16, rng=rng,
    )
    publisher.add_policy(parse_policy("role = doc", ["clinical"], "report"))
    publisher.add_policy(parse_policy("level >= 50", ["billing"], "report"))

    transport = InMemoryTransport()
    service = DisseminationService(publisher, transport)
    idmgr_ep = IdentityManagerEndpoint(idmgr, transport)

    clients = {}
    for name, attrs in (
        ("carol", {"role": "doc", "level": 70}),
        ("erin", {"role": "nur", "level": 40}),
    ):
        for attr, value in attrs.items():
            idp.enroll(name, attr, value)
        nym = idmgr.assign_pseudonym()
        sub = Subscriber(nym, publisher.params, rng=rng)
        clients[name] = SubscriberClient(sub, transport, publisher.name)
    return idp, idmgr, transport, service, idmgr_ep, clients


def test_full_lifecycle_over_bytes_only(world):
    idp, idmgr, transport, service, idmgr_ep, clients = world
    endpoints = [service, idmgr_ep, *clients.values()]

    # --- token issuance over the wire -----------------------------------
    for name, client in clients.items():
        for attr in ("role", "level"):
            client.request_token(attr, assertion=idp.assert_attribute(name, attr))
    run_until_idle(endpoints)
    assert clients["carol"].subscriber.attribute_tags() == ["level", "role"]

    # --- registration over the wire -------------------------------------
    for client in clients.values():
        client.register_all_attributes()
    run_until_idle(endpoints)
    assert not any(client.registering() for client in clients.values())
    assert clients["carol"].results["role"] == {"role = doc": True}
    assert clients["carol"].results["level"] == {"level >= 50": True}
    assert clients["erin"].results["role"] == {"role = doc": False}
    assert clients["erin"].results["level"] == {"level >= 50": False}
    # The publisher's table is identical in shape for both (privacy).
    for client in clients.values():
        assert service.publisher.table.has(client.subscriber.nym, "role = doc")
        assert service.publisher.table.has(client.subscriber.nym, "level >= 50")

    # --- broadcast + decryption -----------------------------------------
    service.publish(DOC)
    run_until_idle(endpoints)
    assert clients["carol"].latest_plaintexts() == {
        "clinical": b"clinical body",
        "billing": b"billing body",
    }
    assert clients["erin"].latest_plaintexts() == {}

    # --- revocation + rekey (no unicast) --------------------------------
    carol_nym = clients["carol"].subscriber.nym
    inbound_before = transport.bytes_received_by(service.name)
    assert service.publisher.revoke_subscription(carol_nym)
    service.publish(DOC)  # the rekey IS the next broadcast
    run_until_idle(endpoints)
    # Revocation required zero subscriber->publisher traffic:
    assert transport.bytes_received_by(service.name) == inbound_before
    assert clients["carol"].latest_plaintexts() == {}
    assert clients["erin"].latest_plaintexts() == {}

    # --- every interaction was a serialized frame -----------------------
    assert transport.pending() == 0
    known_kinds = {cls.KIND for cls in MESSAGE_TYPES.values()}
    assert transport.messages, "nothing crossed the transport?"
    for record in transport.messages:
        assert record.kind in known_kinds, record
    # Broadcasts were multicast (accounted once, receiver "*"):
    broadcasts = [m for m in transport.messages if m.kind == "broadcast-package"]
    assert len(broadcasts) == 2 and all(m.receiver == BROADCAST for m in broadcasts)


def test_all_payloads_are_bytes_and_self_contained(world):
    """Every delivery is decodable bytes -- no live objects on the wire."""
    idp, idmgr, transport, service, idmgr_ep, clients = world

    captured = []
    original_deliver = transport.deliver

    def capturing_deliver(sender, receiver, kind, payload, note=""):
        captured.append((kind, payload))
        original_deliver(sender, receiver, kind, payload, note)

    transport.deliver = capturing_deliver
    try:
        carol = clients["carol"]
        carol.request_token("role", assertion=idp.assert_attribute("carol", "role"))
        run_until_idle([idmgr_ep, carol])
        carol.register_attribute("role")
        run_until_idle([service, carol])
    finally:
        transport.deliver = original_deliver

    group = service.publisher.params.pedersen.group
    assert captured
    for kind, payload in captured:
        assert type(payload) is bytes
        type_id, _ = decode_frame(payload)
        cls = MESSAGE_TYPES[type_id]
        assert cls.KIND == kind
        # Decoding from a *copy* of the bytes reproduces the frame exactly:
        from repro.wire.messages import decode_message, encode_message

        assert encode_message(decode_message(bytes(payload), group)) == payload


def test_negative_acks_do_not_wedge_the_client(world):
    """Two in-flight sessions, both rejected in one polled batch: both must
    complete as failures -- neither dropped nor leaked."""
    idp, idmgr, transport, service, idmgr_ep, clients = world
    from repro.wire.messages import RegistrationAck

    carol = clients["carol"]
    for attr in ("role", "level"):
        carol.request_token(attr, assertion=idp.assert_attribute("carol", attr))
    run_until_idle([idmgr_ep, carol])

    carol.register_all_attributes()
    service.pump()  # answer the condition queries only
    carol.pump()    # sessions move to await-ack, requests queued at pub
    transport.poll(service.name)  # the "publisher" loses the requests (restart)
    assert carol.registering()

    for key in ("role = doc", "level >= 50"):
        frame = RegistrationAck(
            nym=carol.subscriber.nym, condition_key=key, ok=False,
            reason="publisher restarted",
        ).encode()
        transport.deliver(service.name, carol.subscriber.nym, "registration-ack", frame)
    carol.pump()  # both negative acks in one batch
    assert not carol.registering()
    assert carol.results["role"] == {"role = doc": False}
    assert carol.results["level"] == {"level >= 50": False}
    assert carol.failures == {
        "role = doc": "publisher restarted",
        "level >= 50": "publisher restarted",
    }


def test_failed_handler_requeues_rest_of_batch(world):
    """A hostile frame must not destroy well-formed traffic behind it."""
    idp, idmgr, transport, service, idmgr_ep, clients = world
    from repro.errors import ReproError
    from repro.wire.messages import ConditionQuery

    transport.register("mallory")
    transport.deliver("mallory", service.name, "garbage", b"\x00garbage")
    transport.deliver(
        "mallory", service.name, ConditionQuery.KIND,
        ConditionQuery(attribute="role").encode(),
    )
    with pytest.raises(ReproError):
        service.pump()
    assert transport.pending(service.name) == 1  # the query survived
    service.pump()
    replies = transport.poll("mallory")
    assert len(replies) == 1 and replies[0].kind == "condition-list"


def test_shim_surfaces_publisher_rejection(world):
    """The compatibility helpers must not silently report a rejection as
    'condition unsatisfied': a token from a foreign IdMgr raises."""
    idp, idmgr, transport, service, idmgr_ep, clients = world
    from repro.groups import get_group
    from repro.system.registration import register_for_attribute

    rogue_idmgr = IdentityManager(get_group("nist-p192"), rng=random.Random(1))
    sub = clients["erin"].subscriber
    idp2 = IdentityProvider("hr2", rogue_idmgr.group, rng=random.Random(2))
    rogue_idmgr.trust_idp(idp2)
    idp2.enroll("erin", "role", "nur")
    token, x, r = rogue_idmgr.issue_token(
        sub.nym, idp2.assert_attribute("erin", "role"), rng=random.Random(3)
    )
    rogue_sub = Subscriber(sub.nym, service.publisher.params, rng=random.Random(4))
    rogue_sub.hold_token(token, x, r)
    with pytest.raises(RegistrationError, match="rejected"):
        register_for_attribute(service.publisher, rogue_sub, "role", transport)


def test_pending_registrations_are_bounded(world):
    """RegistrationRequests never followed by AuxCommitments must not grow
    publisher memory without bound; evicted exchanges draw negative acks."""
    idp, idmgr, transport, service, idmgr_ep, clients = world
    from repro.wire.messages import AuxCommitments, RegistrationAck, decode_message

    service.session.max_pending = 1
    for name, client in clients.items():
        for attr in ("role",):
            client.request_token(attr, assertion=idp.assert_attribute(name, attr))
    run_until_idle([idmgr_ep, *clients.values()])

    # Both clients send a request; only the most recent survives eviction.
    for client in clients.values():
        client.register_attribute("role")
        client.pump()  # nothing yet; queries go out
    service.pump()  # answer queries
    for client in clients.values():
        client.pump()  # requests go out
    service.pump()  # acks; second request evicts the first offer
    assert len(service.session._pending) == 1
    for client in clients.values():
        client.pump()  # aux commitments go out
    service.pump()
    group = service.publisher.params.pedersen.group
    outcomes = {}
    for client in clients.values():
        replies = transport.poll(client.subscriber.nym)
        assert len(replies) == 1
        message = decode_message(replies[0].payload, group)
        outcomes[client.subscriber.nym] = type(message).__name__
    # One envelope (the survivor), one negative ack (the evicted).
    assert sorted(outcomes.values()) == ["OCBEEnvelope", "RegistrationAck"]


def test_variant_mismatched_aux_draws_negative_ack(world):
    """A well-formed AuxCommitments carrying the wrong OCBE variant for its
    condition (e.g. None aux for a bitwise predicate) must produce a
    negative ack, not crash -- for every predicate family crossed with
    every aux variant, plus a bit-commitment list of the wrong length."""
    idp, idmgr, transport, service, idmgr_ep, clients = world
    from repro.ocbe.base import receiver_for
    from repro.ocbe.predicates import GePredicate, NePredicate
    from repro.wire.messages import (
        AuxCommitments,
        RegistrationAck,
        RegistrationRequest,
        decode_message,
    )

    publisher = service.publisher
    group = publisher.params.pedersen.group
    # One condition per family (the world's own "level >= 50" is GE),
    # each with the one aux variant (below) that belongs to it.
    families = {
        "level = 40": "none",
        "level >= 50": "bit",
        "level <= 60": "bit",
        "level > 10": "bit",
        "level < 90": "bit",
        "level != 7": "ne",
    }
    for index, key in enumerate(sorted(set(families) - {"level >= 50"})):
        publisher.add_policy(parse_policy(key, ["extra%d" % index], "report"))

    erin = clients["erin"]
    erin.request_token("level", assertion=idp.assert_attribute("erin", "level"))
    run_until_idle([idmgr_ep, erin])
    nym = erin.subscriber.nym
    wallet = erin.subscriber.wallet_for("level")

    def commitments(predicate):
        return receiver_for(
            erin.subscriber.ocbe_setup, predicate, wallet.x, wallet.r,
            wallet.token.commitment, random.Random(3),
        ).commitment_message()

    bits = publisher.params.attribute_bits
    variants = {
        "none": None,
        "bit": commitments(GePredicate(50, bits)),
        "ne": commitments(NePredicate(7, bits)),
        "bit-short": commitments(GePredicate(50, bits - 1)),
    }
    assert len(variants["bit"].commitments) == bits

    def exchange(key, aux):
        """Open a registration for ``key``, answer it with ``aux``."""
        transport.deliver(
            nym, service.name, RegistrationRequest.KIND,
            RegistrationRequest(
                nym=nym, condition_key=key, token=wallet.token
            ).encode(),
        )
        service.pump()
        transport.poll(nym)  # discard the positive ack
        transport.deliver(
            nym, service.name, AuxCommitments.KIND,
            AuxCommitments(nym=nym, condition_key=key, aux=aux).encode(),
        )
        service.pump()  # must not raise
        (reply,) = transport.poll(nym)
        return decode_message(reply.payload, group)

    mismatched = 0
    for key, own in families.items():
        for label, aux in variants.items():
            if label == own:
                continue
            mismatched += 1
            reply = exchange(key, aux)
            assert isinstance(reply, RegistrationAck), (key, label)
            assert not reply.ok and "auxiliary" in reply.reason, (key, label)
    assert mismatched == 6 * 3

    # Eighteen rejections later the publisher still serves: the honest
    # client registers for all six conditions (erin's level is 40).
    erin.register_all_attributes()
    run_until_idle([service, erin])
    assert erin.results["level"] == {
        key: key != "level >= 50" for key in families
    }


def test_variant_mismatched_envelope_fails_one_session_only(world):
    """A wrong-variant envelope from a buggy publisher fails that one
    registration (recorded with a reason) without wedging the client."""
    idp, idmgr, transport, service, idmgr_ep, clients = world
    from repro.wire.messages import OCBEEnvelope, decode_message
    from repro.ocbe.eq import EqEnvelope

    erin = clients["erin"]
    erin.request_token("level", assertion=idp.assert_attribute("erin", "level"))
    run_until_idle([idmgr_ep, erin])
    erin.register_attribute("level")
    service.pump()  # condition list
    erin.pump()     # registration request
    service.pump()  # positive ack
    erin.pump()     # aux commitments out; session awaits envelope
    transport.poll(service.name)  # intercept: the real envelope never forms
    bogus = EqEnvelope(
        eta=service.publisher.params.pedersen.group.generator(), ciphertext=b"x" * 32
    )
    transport.deliver(
        service.name, erin.subscriber.nym, OCBEEnvelope.KIND,
        OCBEEnvelope(
            nym=erin.subscriber.nym, condition_key="level >= 50", envelope=bogus
        ).encode(),
    )
    erin.pump()  # must not raise
    assert not erin.registering()
    assert erin.results["level"] == {"level >= 50": False}
    assert "malformed envelope" in erin.failures["level >= 50"]


def test_remote_mistakes_never_abort_pump_loops(world):
    """The three remaining remote-input paths: a refused token request, a
    stray condition in a ConditionList, and a mis-addressed TokenGrant all
    degrade to recorded failures, not endpoint crashes."""
    idp, idmgr, transport, service, idmgr_ep, clients = world
    from repro.wire.messages import ConditionList, TokenGrant, TokenRequest

    erin = clients["erin"]
    # 1. Non-decoy TokenRequest without an assertion: recorded + dropped.
    transport.deliver(
        erin.subscriber.nym, idmgr_ep.name, TokenRequest.KIND,
        TokenRequest(nym=erin.subscriber.nym, attribute="role", assertion=None).encode(),
    )
    idmgr_ep.pump()  # must not raise
    assert idmgr_ep.rejections and idmgr_ep.rejections[0][1] == "role"
    assert transport.pending(erin.subscriber.nym) == 0  # no grant sent

    # 2. ConditionList answering "role" but smuggling a "level" condition:
    # the stray condition is ignored, the matching one proceeds.
    erin.request_token("role", assertion=idp.assert_attribute("erin", "role"))
    run_until_idle([idmgr_ep, erin])
    erin.results.setdefault("role", {})
    conditions = tuple(service.publisher.conditions())  # role AND level atoms
    transport.deliver(
        service.name, erin.subscriber.nym, ConditionList.KIND,
        ConditionList(attribute="role", conditions=conditions).encode(),
    )
    erin.pump()  # must not raise despite no "level" token being held
    assert set(erin.results["role"]) == {"role = doc"}

    # 2b. Unsolicited ConditionList for an attribute with no held token:
    # ignored entirely (erin has no "level" token in this test).
    transport.deliver(
        service.name, erin.subscriber.nym, ConditionList.KIND,
        ConditionList(
            attribute="level",
            conditions=tuple(service.publisher.conditions_for_attribute("level")),
        ).encode(),
    )
    erin.pump()  # must not raise
    assert erin.results.get("level", {}) == {}  # no session was spawned

    # 2c. RegistrationAck for a registration that was never started:
    # absorbed and recorded, not a crash.
    from repro.wire.messages import RegistrationAck

    transport.deliver(
        service.name, erin.subscriber.nym, RegistrationAck.KIND,
        RegistrationAck(
            nym=erin.subscriber.nym, condition_key="never = started", ok=True
        ).encode(),
    )
    erin.pump()  # must not raise
    assert "stray:never = started" in erin.failures

    # 3. TokenGrant addressed to a different pseudonym: recorded failure.
    token, x, r = idmgr.issue_decoy_token("pn-7777", "clearance")
    transport.deliver(
        idmgr_ep.name, erin.subscriber.nym, TokenGrant.KIND,
        TokenGrant(token=token, x=x, r=r).encode(),
    )
    erin.pump()  # must not raise
    assert "token:clearance" in erin.failures


def test_spoofed_nym_cannot_hijack_a_registration(world):
    """A peer sending registration frames under another subscriber's nym is
    rejected; the victim's in-flight exchange completes untouched."""
    idp, idmgr, transport, service, idmgr_ep, clients = world
    from repro.wire.messages import AuxCommitments, RegistrationAck, decode_message

    carol = clients["carol"]
    carol.request_token("role", assertion=idp.assert_attribute("carol", "role"))
    run_until_idle([idmgr_ep, carol])
    carol.register_attribute("role")
    service.pump(); carol.pump(); service.pump()  # victim holds a positive ack

    transport.register("mallory")
    spoof = AuxCommitments(
        nym=carol.subscriber.nym, condition_key="role = doc", aux=None
    ).encode()
    transport.deliver("mallory", service.name, AuxCommitments.KIND, spoof)
    service.pump()
    group = service.publisher.params.pedersen.group
    [reply] = transport.poll("mallory")
    ack = decode_message(reply.payload, group)
    assert isinstance(ack, RegistrationAck) and not ack.ok
    assert "does not match sender" in ack.reason

    # The victim's registration still completes end to end.
    run_until_idle([service, carol])
    assert carol.results["role"] == {"role = doc": True}

    # Mirror direction: a peer impersonating the publisher cannot abort the
    # subscriber's sessions -- frames from unexpected senders are dropped.
    spoofed_ack = RegistrationAck(
        nym=carol.subscriber.nym, condition_key="role = doc", ok=False, reason="x"
    ).encode()
    transport.deliver("mallory", carol.subscriber.nym, RegistrationAck.KIND, spoofed_ack)
    carol.pump()  # must not raise, must not touch results
    assert carol.results["role"] == {"role = doc": True}
    assert "sender:mallory" in carol.failures


def test_hostile_frames_do_not_wedge_the_service(world):
    """Garbage and out-of-state frames yield errors/acks, not crashes."""
    idp, idmgr, transport, service, idmgr_ep, clients = world
    from repro.errors import ReproError
    from repro.wire.messages import AuxCommitments

    # Garbage bytes: the service must raise a library error, not IndexError.
    transport.deliver("mallory", service.name, "garbage", b"\xde\xad\xbe\xef")
    with pytest.raises(ReproError):
        service.pump()

    # An AuxCommitments for a registration that never started -> negative ack.
    transport.register("mallory")
    frame = AuxCommitments(nym="mallory", condition_key="role = doc", aux=None).encode()
    transport.deliver("mallory", service.name, AuxCommitments.KIND, frame)
    service.pump()
    replies = transport.poll("mallory")
    assert len(replies) == 1
    from repro.wire.messages import RegistrationAck, decode_message

    ack = decode_message(replies[0].payload, service.publisher.params.pedersen.group)
    assert isinstance(ack, RegistrationAck) and not ack.ok
