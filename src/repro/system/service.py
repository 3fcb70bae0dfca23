"""High-level endpoints: entities driving wire sessions over a transport.

Each class here owns one entity's end of the protocol and one inbox on a
:class:`~repro.system.transport.Transport`.  An endpoint's ``pump()``
drains its inbox, feeds each frame to the right session state machine and
sends the produced reply frames -- nothing but bytes ever crosses between
endpoints, so the same code runs whether the transport is the in-memory
router or a future socket backend.

* :class:`DisseminationService` -- the Pub: answers condition queries,
  runs OCBE registrations, broadcasts encrypted document packages.
* :class:`SubscriberClient` -- a Sub: obtains tokens, registers them for
  every matching condition (the Section V-B privacy practice), collects
  broadcast plaintexts.
* :class:`IdentityManagerEndpoint` -- the IdMgr: turns ``TokenRequest``
  frames into ``TokenGrant`` frames.

:func:`run_until_idle` is the single-process scheduler: it pumps a set of
endpoints until no messages remain in flight.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.documents.model import Document
from repro.documents.package import BroadcastPackage
from repro.errors import (
    InvalidParameterError,
    ProtocolStateError,
    RegistrationError,
    ReproError,
    SystemError_,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import (
    current_span,
    current_trace,
    new_span_id,
    new_trace_id,
    spanning,
    stage,
    tracing,
)
from repro.system.transport import Delivery, Transport
from repro.wire.messages import (
    MESSAGE_TYPES,
    BroadcastMessage,
    ConditionList,
    ConditionQuery,
    OCBEEnvelope,
    RegistrationAck,
    TokenGrant,
    TokenRequest,
    decode_message,
)
from repro.wire.codec import WIRE_MAGIC, WIRE_VERSION
from repro.wire.sessions import (
    PublisherRegistrationSession,
    SubscriberRegistrationSession,
)

__all__ = [
    "DisseminationService",
    "SubscriberClient",
    "IdentityManagerEndpoint",
    "run_until_idle",
]


def _frame_type(frame: bytes) -> Optional[type]:
    """Peek a frame's message class from the fixed-offset type byte.

    O(1): no payload parse or copy -- used on every send for the
    accounting label, and on receive to discard foreign traffic cheaply.
    Malformed frames return None; full validation happens in
    :func:`~repro.wire.messages.decode_message`.
    """
    if len(frame) < 4 or frame[:2] != WIRE_MAGIC or frame[2] != WIRE_VERSION:
        return None  # let decode_message raise the precise error
    return MESSAGE_TYPES.get(frame[3])


def _frame_kind(frame: bytes) -> str:
    """The transport accounting kind for an encoded frame."""
    cls = _frame_type(frame)
    return cls.KIND if cls is not None else "unknown"


class _Endpoint:
    """Shared inbox-pumping plumbing.

    ``persistence`` optionally attaches a :mod:`repro.store.persist`
    adapter: the endpoint keeps the reference (so operators can force a
    snapshot or close the store through the endpoint) and the adapter's
    journal hooks fire from inside the entity's state transitions --
    always *before* the reply frames produced by the same delivery are
    sent, which is what makes the journal write-ahead.
    """

    def __init__(self, name: str, transport: Transport, persistence=None):
        self.name = name
        self.transport = transport
        self.persistence = persistence
        #: Optional :class:`repro.obs.trace.SpanWriter`: when set, every
        #: frame sent or handled becomes one span record, so a trace id
        #: minted at an operation's origin is observable at this hop.
        self.span_writer = None
        transport.register(name)

    def _send(self, receiver: str, frame: bytes, note: str = "") -> None:
        kind = _frame_kind(frame)
        if self.span_writer is not None:
            self.span_writer.span(
                "send", trace=current_trace(), span=current_span() or None,
                ep=self.name, receiver=receiver, kind=kind, size=len(frame),
            )
        self.transport.deliver(self.name, receiver, kind, frame, note)

    def pump(self, limit: Optional[int] = None) -> int:
        """Process pending deliveries; returns how many were handled.

        ``poll`` drains destructively, so if a handler raises the not-yet
        processed remainder of the batch is pushed back into the inbox
        before the error propagates -- one hostile frame must not destroy
        well-formed traffic queued behind it.

        Each delivery is handled with its trace id installed as the
        ambient trace, so reply frames the handler sends carry the same
        id onward -- that is the cross-process propagation step.  The
        ``handle`` span gets a fresh span id scoped around the handler
        (the hop *re-parenting* step): every stage the handler runs and
        every frame it sends parents under this hop.  The handler body
        itself runs inside a ``hop.handle`` duration stage, so frame
        decode + dispatch cost is attributable (its self time excludes
        the nested decrypt/OCBE/WAL stages).
        """
        deliveries = self.transport.poll(self.name, limit)
        for index, delivery in enumerate(deliveries):
            try:
                with tracing(delivery.trace):
                    if self.span_writer is not None:
                        hop = new_span_id()
                        self.span_writer.span(
                            "handle", trace=delivery.trace, span=hop,
                            ep=self.name, sender=delivery.sender,
                            kind=delivery.kind, size=len(delivery.payload),
                        )
                        with spanning(hop):
                            with stage("hop.handle", kind=delivery.kind):
                                self._handle_delivery(delivery)
                    else:
                        self._handle_delivery(delivery)
            except Exception:
                self.transport.requeue(self.name, deliveries[index + 1 :])
                raise
        return len(deliveries)

    def _handle_delivery(self, delivery: Delivery) -> None:
        raise NotImplementedError


class DisseminationService(_Endpoint):
    """The publisher's network endpoint."""

    def __init__(self, publisher, transport: Transport, persistence=None):
        super().__init__(publisher.name, transport, persistence)
        self.publisher = publisher
        self.session = PublisherRegistrationSession(publisher)

    def _handle_delivery(self, delivery: Delivery) -> None:
        if _frame_type(delivery.payload) is BroadcastMessage:
            return  # another publisher's multicast on a shared channel
        for frame in self.session.handle(delivery.payload, sender=delivery.sender):
            self._send(delivery.sender, frame)

    def publish(
        self,
        document: Document,
        rng: Optional[random.Random] = None,
        capacity: Optional[int] = None,
    ) -> BroadcastPackage:
        """Encrypt ``document`` and broadcast the package to every inbox.

        Re-publishing after a table change *is* the rekey; like the paper's
        multicast it is accounted once regardless of audience size.

        Each publish is a traced operation: a fresh trace id is minted
        (unless one is already ambient) and rides the broadcast to every
        hop, so one rekey is followable end to end.
        """
        with tracing(current_trace() or new_trace_id()):
            with stage("publish", document=document.name):
                with get_registry().timer("publisher.publish_seconds"):
                    package = self.publisher.publish(
                        document, rng=rng, capacity=capacity
                    )
                frame = BroadcastMessage(package=package).encode()
            # The point event is written *after* the stage closes and
            # right before the frame leaves: its ts is the hop-send
            # timestamp the analyzer pairs with the broker's
            # ``broadcast`` record for transit and clock-skew math.
            if self.span_writer is not None:
                self.span_writer.span(
                    "publish", trace=current_trace(),
                    span=current_span() or None, ep=self.name,
                    kind=BroadcastMessage.KIND,
                    document=document.name, size=len(frame),
                )
            self.transport.broadcast(
                self.name, BroadcastMessage.KIND, frame, note=document.name
            )
        return package


class SubscriberClient(_Endpoint):
    """A subscriber's network endpoint.

    Tracks one :class:`SubscriberRegistrationSession` per (publisher,
    condition) and aggregates their outcomes in :attr:`results`
    (``{attribute: {condition key: extracted?}}`` -- knowledge only this
    side has).  Received broadcasts are decrypted eagerly into
    :attr:`documents`.

    ``publisher_name`` may be a single name or a sequence of names: a
    client on a shared broker can subscribe to several publishers at
    once (condition queries fan out to all of them; broadcasts are
    accepted from any of them).  Condition keys are publisher-local, so
    two publishers announcing the *same* condition string share one
    entry in :attr:`results`/``css_store`` -- multi-publisher deployments
    should keep their condition universes disjoint (the load scenarios
    in :mod:`repro.load` do).
    """

    def __init__(
        self,
        subscriber,
        transport: Transport,
        publisher_name,
        idmgr_name: str = "idmgr",
        history_limit: Optional[int] = None,
        persistence=None,
        reuse_css: bool = False,
    ):
        """``history_limit`` bounds the per-broadcast histories
        (:attr:`packages` / :attr:`broadcasts`, plus the
        :attr:`documents` entries only they still reference): the oldest
        broadcasts are evicted once the limit is reached.  ``None`` (the
        library default) keeps everything; the long-running
        ``repro.net.subscriber`` server passes a bound."""
        super().__init__(subscriber.nym, transport, persistence)
        if history_limit is not None and history_limit < 1:
            raise InvalidParameterError(
                "history_limit must be a positive count or None"
            )
        self.subscriber = subscriber
        if isinstance(publisher_name, str):
            self.publisher_names: tuple = (publisher_name,)
        else:
            self.publisher_names = tuple(publisher_name)
        if not self.publisher_names:
            raise InvalidParameterError("at least one publisher name required")
        #: The primary publisher (kept for single-publisher callers).
        self.publisher_name = self.publisher_names[0]
        self.idmgr_name = idmgr_name
        self.history_limit = history_limit
        #: Treat a locally-held CSS as a completed registration and skip
        #: the OCBE exchange for that condition.  This is what lets a
        #: crash-recovered subscriber resume without re-registering (its
        #: CSSs are durable on both ends).  Off by default: a fresh
        #: exchange is also how a *credential update* replaces the CSS
        #: after the committed value changed, and only the caller knows
        #: which situation it is in (the net server enables this exactly
        #: when it recovered state from its ``--data-dir``).
        self.reuse_css = reuse_css
        self.results: Dict[str, Dict[str, bool]] = {}
        #: Publisher-side rejections (negative acks) by condition key --
        #: distinct from a False in ``results``, which a Sub also gets when
        #: its hidden value simply does not satisfy the condition.
        self.failures: Dict[str, str] = {}
        self.documents: Dict[str, Dict[str, bytes]] = {}
        self.packages: List[BroadcastPackage] = []
        #: Decryption outcome of every received broadcast, in arrival order
        #: (parallel to :attr:`packages`).  ``documents`` keys by document
        #: name, so a re-publish of the same name -- the rekey path --
        #: overwrites; this history preserves the per-broadcast view a
        #: networked subscriber reports.
        self.broadcasts: List[Dict[str, bytes]] = []
        self._sessions: Dict[tuple, SubscriberRegistrationSession] = {}
        self._group = subscriber.params.pedersen.group

    # -- outgoing actions ---------------------------------------------------

    def request_token(self, attribute: str, assertion=None, decoy: bool = False) -> None:
        """Ask the IdMgr for a token (certified assertion, or a decoy).

        The start of a registration's trace: a fresh id is minted here
        (unless one is already ambient) and follows the grant and every
        downstream registration frame.
        """
        with tracing(current_trace() or new_trace_id()):
            self._send(
                self.idmgr_name,
                TokenRequest(
                    nym=self.subscriber.nym,
                    attribute=attribute,
                    assertion=assertion,
                    decoy=decoy,
                ).encode(),
            )

    def _publishers(self, publisher: Optional[str]) -> tuple:
        if publisher is None:
            return self.publisher_names
        if publisher not in self.publisher_names:
            raise InvalidParameterError(
                "%r is not one of this client's publishers %s"
                % (publisher, list(self.publisher_names))
            )
        return (publisher,)

    def request_conditions(
        self, attribute: str, publisher: Optional[str] = None
    ) -> None:
        """Ask the publisher(s) which conditions mention ``attribute``.

        Traced like :meth:`request_token`: the query, the condition
        list, and the whole OCBE exchange it triggers share one id.
        """
        with tracing(current_trace() or new_trace_id()):
            frame = ConditionQuery(attribute=attribute).encode()
            for name in self._publishers(publisher):
                self._send(name, frame)

    def register_attribute(
        self, attribute: str, publisher: Optional[str] = None
    ) -> None:
        """Start the Section V-B loop for one held token: query conditions,
        then (on reply) register for *every* matching condition."""
        self.subscriber.wallet_for(attribute)  # fail fast when no token held
        self.results.setdefault(attribute, {})
        self.request_conditions(attribute, publisher)

    def register_all_attributes(self, publisher: Optional[str] = None) -> None:
        """Start the loop for every token in the wallet."""
        for attribute in self.subscriber.attribute_tags():
            self.register_attribute(attribute, publisher)

    # -- incoming dispatch --------------------------------------------------

    def _expected_senders(self, message) -> Optional[tuple]:
        """Who is allowed to send this message type to a subscriber."""
        if isinstance(message, (ConditionList, RegistrationAck, OCBEEnvelope,
                                BroadcastMessage)):
            return self.publisher_names
        if isinstance(message, TokenGrant):
            return (self.idmgr_name,)
        return None

    def _handle_delivery(self, delivery: Delivery) -> None:
        if (
            _frame_type(delivery.payload) is BroadcastMessage
            and delivery.sender not in self.publisher_names
        ):
            return  # another publisher's multicast on a shared channel
        message = decode_message(delivery.payload, self._group)
        expected = self._expected_senders(message)
        if expected is not None and delivery.sender not in expected:
            # The mirror of the publisher's nym-vs-sender check: a peer
            # impersonating our publisher/IdMgr could abort sessions, plant
            # wallet entries or redirect registrations.  Record and drop.
            self.failures.setdefault(
                "sender:%s" % delivery.sender,
                "%s from %r, expected %r"
                % (type(message).__name__, delivery.sender, list(expected)),
            )
            return
        if isinstance(message, ConditionList):
            self._on_condition_list(delivery.sender, message)
        elif isinstance(message, (RegistrationAck, OCBEEnvelope)):
            self._on_session_frame(delivery.sender, delivery.payload, message)
        elif isinstance(message, TokenGrant):
            try:
                self.subscriber.hold_token(message.token, message.x, message.r)
            except RegistrationError as exc:
                # A grant for some other pseudonym: a remote mistake, not a
                # reason to abort the client's pump loop.
                self.failures["token:%s" % message.token.tag] = str(exc)
        elif isinstance(message, BroadcastMessage):
            self._on_broadcast(message)
        else:
            raise ProtocolStateError(
                "subscriber cannot handle %s" % type(message).__name__
            )

    def _on_condition_list(self, sender: str, message: ConditionList) -> None:
        if message.attribute not in self.subscriber.attribute_tags():
            # An unsolicited list for an attribute we hold no token for
            # (register_attribute checks the wallet before querying, so this
            # is remote confusion): ignore rather than crash mid-pump.
            return
        outcomes = self.results.setdefault(message.attribute, {})
        for condition in message.conditions:
            if condition.name != message.attribute:
                continue  # a confused/hostile peer's stray condition: ignore
            key = condition.key()
            if (sender, key) in self._sessions:
                continue  # a session is already in flight; let it finish
            if self.reuse_css and key in self.subscriber.css_store:
                # A durable CSS from a previous run: the publisher's table
                # still holds the matching cell, so registration is already
                # complete -- zero frames, zero unicast.
                outcomes[key] = True
                continue
            session = SubscriberRegistrationSession(
                self.subscriber, condition, rng=self.subscriber.rng
            )
            self._sessions[(sender, key)] = session
            outcomes.setdefault(key, False)
            self._send(sender, session.start(), note=key)

    def _on_session_frame(
        self, sender: str, frame: bytes, message
    ) -> None:
        session = self._sessions.get((sender, message.condition_key))
        if session is None:
            # A duplicate, late, or fabricated frame for a registration we
            # are not running: remote confusion, recorded and absorbed like
            # every other stray frame (never wedge the pump loop).
            self.failures.setdefault(
                "stray:%s" % message.condition_key,
                "unsolicited %s" % type(message).__name__,
            )
            return
        reply = session.handle_message(message)  # already decoded above
        if reply is not None:
            self._send(sender, reply, note=message.condition_key)
        if session.done:
            del self._sessions[(sender, message.condition_key)]
            self.results[session.condition.name][session.condition_key] = bool(
                session.succeeded
            )
            if session.failure_reason:
                self.failures[session.condition_key] = session.failure_reason

    def _on_broadcast(self, message: BroadcastMessage) -> None:
        package = message.package
        self.packages.append(package)
        registry = get_registry()
        try:
            with stage("decrypt", document=package.document):
                with registry.timer("subscriber.decrypt_seconds"):
                    self.documents[package.document] = self.subscriber.receive(
                        package
                    )
        except ReproError as exc:
            # A parseable-but-inconsistent package (e.g. a malformed ACV
            # header) must fail this broadcast, never the pump loop.
            self.documents[package.document] = {}
            self.failures["broadcast:%s" % package.document] = str(exc)
            registry.inc("subscriber.decrypt.error")
        else:
            # Outcome counters: a decrypt that yields no plaintext is not
            # an error -- the subscriber simply holds no matching key.
            if self.documents[package.document]:
                registry.inc("subscriber.decrypt.ok")
            else:
                registry.inc("subscriber.decrypt.miss")
        if self.span_writer is not None:
            self.span_writer.span(
                "broadcast_received", trace=current_trace(),
                span=current_span() or None, ep=self.name,
                document=package.document,
                plaintexts=len(self.documents[package.document]),
            )
        self.broadcasts.append(self.documents[package.document])
        self._evict_history()

    def _evict_history(self) -> None:
        """Enforce :attr:`history_limit`: a subscriber that lives through
        millions of broadcasts must not grow memory with every one."""
        if self.history_limit is None:
            return
        while len(self.packages) > self.history_limit:
            evicted = self.packages.pop(0)
            self.broadcasts.pop(0)
            if all(kept.document != evicted.document for kept in self.packages):
                self.documents.pop(evicted.document, None)

    # -- conveniences -------------------------------------------------------

    def registering(self) -> bool:
        """True while any registration session is still in flight."""
        return bool(self._sessions)

    def latest_plaintexts(self) -> Dict[str, bytes]:
        """Plaintexts from the most recent broadcast (empty if none)."""
        if not self.packages:
            return {}
        return self.documents[self.packages[-1].document]


class IdentityManagerEndpoint(_Endpoint):
    """The IdMgr's network endpoint: token issuance over the wire.

    Requests the IdMgr must refuse (missing assertion, untrusted IdP, bad
    IdP signature) are recorded in :attr:`rejections` and dropped rather
    than raised -- one misconfigured subscriber must not abort the shared
    pump loop.  (The protocol has no token-denial message yet; the
    requester observes the missing grant, the operator reads
    ``rejections``.)
    """

    def __init__(
        self, idmgr, transport: Transport, name: str = "idmgr", persistence=None
    ):
        super().__init__(name, transport, persistence)
        self.idmgr = idmgr
        #: ``[(requester nym, attribute, reason), ...]`` of refused requests.
        self.rejections: List[tuple] = []

    def _handle_delivery(self, delivery: Delivery) -> None:
        if _frame_type(delivery.payload) is BroadcastMessage:
            return  # multicast traffic on a shared channel; skip the parse
        message = decode_message(delivery.payload, self.idmgr.group)
        if not isinstance(message, TokenRequest):
            raise ProtocolStateError(
                "identity manager cannot handle %s" % type(message).__name__
            )
        try:
            if message.decoy:
                token, x, r = self.idmgr.issue_decoy_token(
                    message.nym, message.attribute
                )
            else:
                if message.assertion is None:
                    raise RegistrationError(
                        "non-decoy token request needs an assertion"
                    )
                token, x, r = self.idmgr.issue_token(message.nym, message.assertion)
        except SystemError_ as exc:  # covers Registration/Signature errors too
            self.rejections.append((message.nym, message.attribute, str(exc)))
            return
        self._send(
            delivery.sender,
            TokenGrant(token=token, x=x, r=r).encode(),
            note=message.attribute,
        )


def run_until_idle(
    endpoints: Sequence[_Endpoint], max_rounds: int = 10_000
) -> int:
    """Pump every endpoint until no frames remain in flight.

    This is the single-process stand-in for each entity's event loop; the
    round bound turns a protocol livelock into a loud failure.
    """
    total = 0
    for _ in range(max_rounds):
        progressed = 0
        for endpoint in endpoints:
            progressed += endpoint.pump()
        total += progressed
        if progressed == 0:
            return total
    raise SystemError_("protocol did not quiesce after %d rounds" % max_rounds)
