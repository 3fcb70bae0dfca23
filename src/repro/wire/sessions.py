"""Per-entity session state machines for the registration protocol.

Registration is a conversation in *bytes*: both sides consume and
produce framed wire messages from :mod:`repro.wire.messages` -- so the
two entities can sit on opposite ends of any transport:

* :class:`SubscriberRegistrationSession` drives ONE (token, condition)
  registration on the Sub side:
  ``start()`` emits the ``RegistrationRequest`` frame, and ``handle()``
  turns the Pub's ``RegistrationAck`` into ``AuxCommitments`` and the
  final ``OCBEEnvelope`` into a locally-stored CSS (or a recorded failure
  the Pub never learns about).

* :class:`PublisherRegistrationSession` is the Pub-side message handler
  for ANY number of concurrent subscriber registrations (state is keyed
  by ``(nym, condition key)``); ``handle()`` maps each incoming frame to
  a list of reply frames.

Neither class touches a transport; the facade in
:mod:`repro.system.service` moves the produced frames between inboxes.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import List, Optional

from repro.errors import (
    DecryptionError,
    OCBEError,
    ProtocolStateError,
    RegistrationError,
    SerializationError,
    SignatureError,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import stage
from repro.ocbe.base import receiver_for
from repro.policy.condition import AttributeCondition
from repro.wire.messages import (
    AuxCommitments,
    ConditionList,
    ConditionQuery,
    OCBEEnvelope,
    RegistrationAck,
    RegistrationRequest,
    decode_message,
)

__all__ = ["SubscriberRegistrationSession", "PublisherRegistrationSession"]


class SubscriberRegistrationSession:
    """State machine for one (token, condition) registration, Sub side.

    States: ``start`` -> ``await-ack`` -> ``await-envelope`` -> ``done``.
    ``succeeded`` is knowledge only this end ever has.
    """

    def __init__(
        self,
        subscriber,
        condition: AttributeCondition,
        rng: Optional[random.Random] = None,
    ):
        self.subscriber = subscriber
        self.condition = condition
        self.condition_key = condition.key()
        wallet = subscriber.wallet_for(condition.name)
        self._wallet = wallet
        self._rng = rng if rng is not None else subscriber.rng
        self._group = subscriber.params.pedersen.group
        self._receiver = None
        self.state = "start"
        self.succeeded: Optional[bool] = None
        self.failure_reason: str = ""

    @property
    def done(self) -> bool:
        return self.state == "done"

    def start(self) -> bytes:
        """Emit the opening ``RegistrationRequest`` frame."""
        if self.state != "start":
            raise ProtocolStateError("session already started")
        self.state = "await-ack"
        return RegistrationRequest(
            nym=self.subscriber.nym,
            condition_key=self.condition_key,
            token=self._wallet.token,
        ).encode()

    def handle(self, data: bytes) -> Optional[bytes]:
        """Consume one publisher frame; return the next frame to send, if any."""
        return self.handle_message(decode_message(data, self._group))

    def handle_message(self, message) -> Optional[bytes]:
        """Like :meth:`handle` for an already-decoded message (so a caller
        that dispatched on the message type does not pay a second decode)."""
        if isinstance(message, RegistrationAck):
            return self._on_ack(message)
        if isinstance(message, OCBEEnvelope):
            return self._on_envelope(message)
        raise ProtocolStateError(
            "unexpected %s in state %r" % (type(message).__name__, self.state)
        )

    def _on_ack(self, ack: RegistrationAck) -> Optional[bytes]:
        if self.state not in ("await-ack", "await-envelope"):
            raise ProtocolStateError("RegistrationAck in state %r" % self.state)
        if ack.condition_key != self.condition_key:
            raise ProtocolStateError("ack for foreign condition %r" % ack.condition_key)
        if not ack.ok:
            # A negative ack aborts the exchange in either waiting state.
            # Recorded, not raised: an abort must not wedge the other
            # in-flight sessions sharing the client's inbox.
            self.state = "done"
            self.succeeded = False
            self.failure_reason = ack.reason or "registration rejected"
            return None
        if self.state != "await-ack":
            return None  # duplicate/retransmitted positive ack: absorb
        predicate = self.condition.predicate(self.subscriber.params.attribute_bits)
        self._receiver = receiver_for(
            self.subscriber.ocbe_setup,
            predicate,
            self._wallet.x,
            self._wallet.r,
            self._wallet.token.commitment,
            self._rng,
        )
        aux = self._receiver.commitment_message()
        self.state = "await-envelope"
        return AuxCommitments(
            nym=self.subscriber.nym, condition_key=self.condition_key, aux=aux
        ).encode()

    def _on_envelope(self, message: OCBEEnvelope) -> None:
        if self.state != "await-envelope" or self._receiver is None:
            raise ProtocolStateError("OCBEEnvelope in state %r" % self.state)
        if message.condition_key != self.condition_key:
            raise ProtocolStateError(
                "envelope for foreign condition %r" % message.condition_key
            )
        self.state = "done"
        try:
            css = self._receiver.open(message.envelope)
        except DecryptionError:
            # The committed value does not satisfy the condition: record the
            # failure locally.  The publisher cannot observe this branch.
            self.succeeded = False
            return None
        except (OCBEError, SerializationError, AttributeError, TypeError) as exc:
            # A variant-mismatched or malformed envelope from a buggy/hostile
            # publisher: fail this one registration, never the whole client.
            self.succeeded = False
            self.failure_reason = "malformed envelope: %s" % exc
            return None
        self.subscriber.store_css(self.condition_key, css)
        self.succeeded = True
        return None


class PublisherRegistrationSession:
    """Pub-side handler: frames in, reply frames out, table updated.

    One instance serves every subscriber; per-registration state (the OCBE
    sender awaiting auxiliary commitments) is keyed by ``(nym, condition
    key)``.  *Protocol-level* failures -- an unverifiable token, unknown
    condition, bad auxiliary commitments, an aux message with no matching
    request -- produce a negative :class:`RegistrationAck`.  Frames that
    are not even well-formed protocol messages (garbage bytes, message
    types a publisher never receives) still raise
    :class:`~repro.errors.SerializationError` /
    :class:`~repro.errors.ProtocolStateError`; the endpoint driving this
    session (``_Endpoint.pump``) requeues the rest of its batch before
    propagating those, so hostile traffic cannot destroy queued frames.

    In-flight state is bounded: at most ``max_pending`` offers are held,
    evicting the oldest first, so clients that send ``RegistrationRequest``
    and never follow up with ``AuxCommitments`` cannot grow memory without
    bound.  An evicted registration simply draws a negative ack when its
    aux finally arrives, and the client may retry.
    """

    def __init__(self, publisher, max_pending: int = 4096):
        self.publisher = publisher
        self.max_pending = max_pending
        self._group = publisher.params.pedersen.group
        self._pending: "OrderedDict[Tuple[str, str], object]" = OrderedDict()

    def handle(self, data: bytes, sender: Optional[str] = None) -> List[bytes]:
        """Process one subscriber frame; return the reply frames.

        ``sender`` is the transport-authenticated origin, when the
        transport provides one.  Registration state is keyed by the
        message-carried nym, so a frame whose nym differs from its actual
        sender is rejected -- otherwise any peer could hijack or cancel
        another subscriber's in-flight registration (nyms are public
        strings).
        """
        message = decode_message(data, self._group)
        if isinstance(message, ConditionQuery):
            return [self._on_condition_query(message)]
        if isinstance(message, (RegistrationRequest, AuxCommitments)):
            if sender is not None and message.nym != sender:
                return [
                    RegistrationAck(
                        nym=message.nym,
                        condition_key=message.condition_key,
                        ok=False,
                        reason="nym %r does not match sender %r"
                        % (message.nym, sender),
                    ).encode()
                ]
            if isinstance(message, RegistrationRequest):
                return [self._on_request(message)]
            return [self._on_aux(message)]
        raise ProtocolStateError(
            "publisher cannot handle %s" % type(message).__name__
        )

    def _on_condition_query(self, query: ConditionQuery) -> bytes:
        conditions = tuple(
            self.publisher.conditions_for_attribute(query.attribute)
        )
        return ConditionList(attribute=query.attribute, conditions=conditions).encode()

    def _on_request(self, request: RegistrationRequest) -> bytes:
        key = (request.nym, request.condition_key)
        try:
            condition = self.publisher.condition_by_key(request.condition_key)
            if request.token.nym != request.nym:
                raise RegistrationError(
                    "token pseudonym %r does not match requester %r"
                    % (request.token.nym, request.nym)
                )
            offer = self.publisher.open_registration(request.token, condition)
        except (RegistrationError, SignatureError) as exc:
            return RegistrationAck(
                nym=request.nym,
                condition_key=request.condition_key,
                ok=False,
                reason=str(exc),
            ).encode()
        self._pending.pop(key, None)  # a re-request replaces, not duplicates
        self._pending[key] = offer
        while len(self._pending) > self.max_pending:
            self._pending.popitem(last=False)
        return RegistrationAck(
            nym=request.nym, condition_key=request.condition_key, ok=True
        ).encode()

    def _on_aux(self, message: AuxCommitments) -> bytes:
        key = (message.nym, message.condition_key)
        offer = self._pending.pop(key, None)
        if offer is None:
            return RegistrationAck(
                nym=message.nym,
                condition_key=message.condition_key,
                ok=False,
                reason="no registration in progress for this condition",
            ).encode()
        try:
            with stage("ocbe.build", condition=message.condition_key):
                with get_registry().timer("ocbe.envelope_build_seconds"):
                    envelope = offer.sender.compose(
                        offer.token.commitment, message.aux, offer.css
                    )
            get_registry().inc("ocbe.envelopes")
        except (OCBEError, SerializationError) as exc:
            # Covers a well-formed frame carrying the wrong OCBE variant
            # for this condition (e.g. a bare None aux for a bitwise
            # predicate): each sender's compose_with type-checks the aux
            # first.  Anything else raised in there is a bug, not input.
            return RegistrationAck(
                nym=message.nym,
                condition_key=message.condition_key,
                ok=False,
                reason="invalid auxiliary commitments: %s" % exc,
            ).encode()
        return OCBEEnvelope(
            nym=message.nym, condition_key=message.condition_key, envelope=envelope
        ).encode()
