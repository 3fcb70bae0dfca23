"""Registration is a pure function of its seed and its delivery order.

Every random choice on the registration path is drawn before the
arithmetic that consumes it: senders split ``compose`` into
``draw_randomness()`` + ``compose_with(..., drawn)``, the IdMgr splits
``issue_token`` into ``begin_issue`` + ``finish_issue``, and each offer
and each token draws from its own RNG stream derived in arrival order.
Three consequences are pinned here:

* ``compose`` *is* draw-then-``compose_with`` for all six sender
  classes, byte for byte;
* ``issue_token`` *is* ``finish_issue(begin_issue(...))``, for real and
  decoy issuance;
* a seeded end-to-end wave (tokens over the wire, then registration)
  reproduces the frame transcript of the commit that still had a second,
  pooled execution path -- there it was proven equal to every worker
  count; here it is a digest literal.
"""

import hashlib
import random

import pytest

from repro.crypto.pedersen import PedersenParams
from repro.crypto.schnorr_sig import verify
from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.ocbe.base import OCBESetup, receiver_for, sender_for
from repro.ocbe.derived import GtOCBESender, LtOCBESender, NeOCBESender
from repro.ocbe.eq import EqOCBESender
from repro.ocbe.ge import GeOCBESender
from repro.ocbe.le import LeOCBESender
from repro.ocbe.predicates import (
    EqPredicate,
    GePredicate,
    GtPredicate,
    LePredicate,
    LtPredicate,
    NePredicate,
)
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
from repro.system.transport import InMemoryTransport

ELL = 8


@pytest.mark.parametrize(
    "sender_cls, predicate",
    [
        (EqOCBESender, EqPredicate(28)),
        (GeOCBESender, GePredicate(20, ELL)),
        (LeOCBESender, LePredicate(40, ELL)),
        (GtOCBESender, GtPredicate(20, ELL)),
        (LtOCBESender, LtPredicate(40, ELL)),
        (NeOCBESender, NePredicate(30, ELL)),
    ],
    ids=["eq", "ge", "le", "gt", "lt", "ne"],
)
def test_compose_is_draw_then_compose_with(sender_cls, predicate):
    setup = OCBESetup(pedersen=PedersenParams(get_group("nist-p192")))
    rng = random.Random(0xD7A3)
    commitment, r = setup.pedersen.commit(28, rng=rng)
    receiver = receiver_for(setup, predicate, 28, r, commitment, rng)
    aux = receiver.commitment_message()
    message = b"one conditional subscription secret"

    whole = sender_for(setup, predicate, random.Random(7))
    split = sender_for(setup, predicate, random.Random(7))
    assert type(whole) is sender_cls
    composed = whole.compose(commitment, aux, message).to_bytes()
    drawn = split.draw_randomness()
    # Twice: compose_with is a pure function of its arguments.
    for _ in range(2):
        rebuilt = split.compose_with(commitment, aux, message, drawn)
        assert rebuilt.to_bytes() == composed
    assert receiver.open(rebuilt) == message


def _identity_stack(seed):
    rng = random.Random(seed)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    idp.enroll("ursa", "level", 61)
    return idmgr, idp.assert_attribute("ursa", "level")


@pytest.mark.parametrize("decoy", [False, True], ids=["real", "decoy"])
def test_issue_token_is_begin_then_finish(decoy):
    whole_idmgr, whole_assertion = _identity_stack(0x1D)
    split_idmgr, split_assertion = _identity_stack(0x1D)
    if decoy:
        token, x, r = whole_idmgr.issue_decoy_token("pn-0001", "level")
        pending = split_idmgr.begin_decoy_issue("pn-0001", "level")
    else:
        token, x, r = whole_idmgr.issue_token("pn-0001", whole_assertion)
        pending = split_idmgr.begin_issue("pn-0001", split_assertion)
    assert split_idmgr.issued == []  # recorded by finish_issue, not before
    split_token, split_x, split_r = split_idmgr.finish_issue(pending)
    assert split_token.to_bytes() == token.to_bytes()
    assert (split_x, split_r) == (x, r)
    assert split_idmgr.issued == whole_idmgr.issued == [("pn-0001", "level", decoy)]
    pk = whole_idmgr.public_key
    assert verify(pk.group, pk, split_token.signing_bytes(), split_token.signature)


USERS = {
    "ursa": {"role": "nur", "level": 61},
    "vic": {"role": "doc"},
    "wen": {"level": 20},
}

#: SHA-256 over the 48 frames of ``_run_wave`` (length-prefixed sender,
#: receiver, kind, payload), computed at the parent commit f66f6ec with
#: both endpoints serial -- which that commit's
#: ``test_pooled_frames_identical_to_serial`` proved equal to the pooled
#: runs with 1 and 2 workers.  The token requests carry IdP assertion
#: signatures, so the digest moved (from 01387a10...) exactly once, when
#: the issuer began to sign the assertion's declared fields.
WAVE_FRAMES = 48
WAVE_DIGEST = "7e22c6a968845abb1effba389dc2040c5eec837ef7b29cfce4ae99a7788d30fa"


class RecordingTransport(InMemoryTransport):
    """InMemoryTransport that also captures routed frame bytes."""

    def __init__(self):
        super().__init__()
        self.frames = []

    def deliver(self, sender, receiver, kind, payload, note=""):
        self.frames.append((sender, receiver, kind, bytes(payload)))
        super().deliver(sender, receiver, kind, payload, note=note)


def _run_wave():
    """One end-to-end wave (tokens over the wire, then registration).

    Returns (frames, results-per-user, css-per-user).
    """
    rng = random.Random(0x900C)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    pub = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=16, rng=rng,
    )
    pub.add_policy(parse_policy("role = doc", ["s1"], "d"))
    pub.add_policy(parse_policy("role = nur AND level >= 59", ["s2"], "d"))
    pub.add_policy(parse_policy("level < 30", ["s3"], "d"))

    transport = RecordingTransport()
    service = DisseminationService(pub, transport)
    idmgr_ep = IdentityManagerEndpoint(idmgr, transport)
    clients = []
    for user in sorted(USERS):
        for attr, value in USERS[user].items():
            idp.enroll(user, attr, value)
        sub = Subscriber(idmgr.assign_pseudonym(), pub.params, rng=rng)
        client = SubscriberClient(sub, transport, "pub")
        for attr in sorted(USERS[user]):
            client.request_token(
                attr, assertion=idp.assert_attribute(user, attr)
            )
        clients.append(client)
    run_until_idle([service, idmgr_ep, *clients])
    for client in clients:
        client.register_all_attributes()
    run_until_idle([service, idmgr_ep, *clients])
    results = [dict(c.results) for c in clients]
    css = [sorted(c.subscriber.css_store) for c in clients]
    return transport.frames, results, css


def _digest(frames):
    digest = hashlib.sha256()
    for sender, receiver, kind, payload in frames:
        for part in (sender.encode(), receiver.encode(), kind.encode(), payload):
            digest.update(len(part).to_bytes(4, "big"))
            digest.update(part)
    return digest.hexdigest()


def test_seeded_wave_reproduces_the_parent_transcript():
    frames, results, css = _run_wave()
    assert len(frames) == WAVE_FRAMES
    assert _digest(frames) == WAVE_DIGEST
    assert css == [["level >= 59", "role = nur"], ["role = doc"], ["level < 30"]]
    assert results[2] == {"level": {"level < 30": True, "level >= 59": False}}
