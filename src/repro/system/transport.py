"""Message transports: routing bytes between entities, with accounting.

The seed version of this module was an accounting *log*; it is now a real
router.  :class:`InMemoryTransport` keeps one FIFO inbox per entity and
delivers opaque byte payloads, so publisher and subscriber can run as
independent endpoints that communicate exclusively through serialized
messages -- the same call pattern a socket or HTTP backend would expose.
The :class:`Transport` protocol pins down that surface so such a backend
can slot in without touching the session layer.

The accounting remains a layer on top of delivery: every transmission is
recorded as a :class:`Message` (direction, kind, size), which keeps the
paper's bandwidth claims testable (O(l'N) broadcast overhead, zero unicast
on rekey) and doubles as the privacy-audit log -- everything the publisher
ever "sees" crossed this boundary.

``broadcast`` models the paper's multicast: one accounted transmission
(receiver ``"*"``), delivered into every registered inbox.  Inboxes queue
``(sender, kind, payload, note, trace)`` records and :meth:`poll` builds
the :class:`Delivery`, so one multicast queues one shared record however
many inboxes it reaches -- an inbox nobody polls costs a slot per
delivery, not an object.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.errors import SystemError_
from repro.obs.trace import current_trace

__all__ = ["Message", "Delivery", "Transport", "InMemoryTransport", "BROADCAST"]

#: The pseudo-receiver used to account one multicast transmission.
BROADCAST = "*"


@dataclass(frozen=True)
class Message:
    """One recorded transmission (the accounting view)."""

    sender: str
    receiver: str
    kind: str
    size: int
    note: str = ""


@dataclass(frozen=True)
class Delivery:
    """One queued payload awaiting pickup (the routing view).

    ``trace`` is the observability trace id that rode the wire frame
    (see :mod:`repro.obs.trace`); ``b""`` when the transmission was
    untraced, so pre-trace comparisons stay field-for-field identical.
    """

    sender: str
    receiver: str
    kind: str
    payload: bytes
    note: str = ""
    trace: bytes = b""


#: What an inbox queues: a :class:`Delivery` without its receiver, which
#: is the inbox's owner.
_Record = Tuple[str, str, bytes, str, bytes]


@runtime_checkable
class Transport(Protocol):
    """What the session/facade layer requires of any message backend.

    Implementations route opaque ``bytes`` between named entities; they
    must preserve per-sender ordering but need not provide any global
    order.  A socket/HTTP backend implements exactly these methods (all
    five -- ``requeue`` included: endpoints call it on handler failure).
    """

    def deliver(
        self, sender: str, receiver: str, kind: str, payload: bytes, note: str = ""
    ) -> None:
        """Enqueue ``payload`` into ``receiver``'s inbox."""
        ...

    def broadcast(
        self, sender: str, kind: str, payload: bytes, note: str = ""
    ) -> None:
        """Deliver one payload to every registered entity except ``sender``."""
        ...

    def poll(self, entity: str, limit: Optional[int] = None) -> List[Delivery]:
        """Drain (up to ``limit``) pending deliveries for ``entity``."""
        ...

    def requeue(self, entity: str, deliveries: List[Delivery]) -> None:
        """Push already-polled deliveries back to the *front* of the inbox
        (in order) -- used when a handler fails mid-batch."""
        ...

    def register(self, entity: str) -> None:
        """Create ``entity``'s inbox (broadcasts only reach registered names)."""
        ...


class InMemoryTransport:
    """In-process router with byte accounting.

    Routing: per-entity FIFO inboxes, polled as :class:`Delivery`.  Accounting:
    the historical :class:`Message` log and per-channel byte counters,
    preserved verbatim from the seed API (including the accounting-only
    :meth:`send` used by older callers and tests).
    """

    def __init__(self) -> None:
        self.messages: List[Message] = []
        self._bytes: Dict[Tuple[str, str], int] = defaultdict(int)
        self._inboxes: Dict[str, Deque[_Record]] = {}

    # -- routing ------------------------------------------------------------

    def register(self, entity: str) -> None:
        """Idempotently create an inbox for ``entity``."""
        self._inboxes.setdefault(entity, deque())

    def entities(self) -> List[str]:
        """All registered entity names."""
        return sorted(self._inboxes)

    def registered(self, entity: str) -> bool:
        """Whether ``entity`` has an inbox."""
        return entity in self._inboxes

    def entity_count(self) -> int:
        """How many inboxes exist (the state a router must bound)."""
        return len(self._inboxes)

    @staticmethod
    def _coerce_payload(payload) -> bytes:
        if not isinstance(payload, (bytes, bytearray)):
            raise SystemError_(
                "transport payloads must be bytes, got %s" % type(payload).__name__
            )
        return bytes(payload)

    def deliver(
        self, sender: str, receiver: str, kind: str, payload: bytes, note: str = ""
    ) -> None:
        """Route ``payload`` to ``receiver`` and account the transmission."""
        payload = self._coerce_payload(payload)
        self.register(sender)
        self.register(receiver)
        self.send(sender, receiver, kind, len(payload), note=note)
        self._inboxes[receiver].append(
            (sender, kind, payload, note, current_trace())
        )

    def broadcast(
        self, sender: str, kind: str, payload: bytes, note: str = "",
        exclude: Optional[AbstractSet[str]] = None,
    ) -> None:
        """One multicast: accounted once, delivered to every other inbox.

        ``exclude`` suppresses local inbox delivery for names reached by
        some other fan-out path (the broker's relay-bound entities, which
        receive the multicast through their relay link instead); the
        single accounted transmission is unchanged.
        """
        payload = self._coerce_payload(payload)
        self.register(sender)
        self.send(sender, BROADCAST, kind, len(payload), note=note)
        skip = exclude if exclude is not None else frozenset()
        record = (sender, kind, payload, note, current_trace())
        for receiver, inbox in self._inboxes.items():
            if receiver != sender and receiver not in skip:
                inbox.append(record)

    def poll(self, entity: str, limit: Optional[int] = None) -> List[Delivery]:
        """Drain pending deliveries for ``entity`` (FIFO)."""
        inbox = self._inboxes.get(entity)
        if not inbox:
            return []
        count = len(inbox) if limit is None else min(limit, len(inbox))
        polled = []
        for _ in range(count):
            sender, kind, payload, note, trace = inbox.popleft()
            polled.append(Delivery(sender, entity, kind, payload, note, trace))
        return polled

    def requeue(self, entity: str, deliveries: List[Delivery]) -> None:
        """Return unprocessed deliveries to the front of the inbox, keeping
        their original order.  Not accounted: the bytes already were."""
        inbox = self._inboxes.setdefault(entity, deque())
        inbox.extendleft(
            (d.sender, d.kind, d.payload, d.note, d.trace) for d in reversed(deliveries)
        )

    def pending(self, entity: Optional[str] = None) -> int:
        """Queued deliveries for one entity, or across the whole router."""
        if entity is not None:
            return len(self._inboxes.get(entity, ()))
        return sum(len(inbox) for inbox in self._inboxes.values())

    # -- accounting ---------------------------------------------------------

    def send(
        self, sender: str, receiver: str, kind: str, size: int, note: str = ""
    ) -> None:
        """Record a transmission of ``size`` bytes (accounting only)."""
        self.messages.append(
            Message(sender=sender, receiver=receiver, kind=kind, size=size, note=note)
        )
        self._bytes[(sender, receiver)] += size

    def bytes_between(self, sender: str, receiver: str) -> int:
        """Total bytes sent on one directed channel."""
        return self._bytes[(sender, receiver)]

    def bytes_sent_by(self, sender: str) -> int:
        """Total bytes originated by an entity."""
        return sum(
            size for (s, _), size in self._bytes.items() if s == sender
        )

    def bytes_received_by(self, receiver: str) -> int:
        """Total bytes delivered to an entity."""
        return sum(
            size for (_, r), size in self._bytes.items() if r == receiver
        )

    def messages_seen_by(self, entity: str) -> List[Message]:
        """The complete view of one entity (sent + received)."""
        return [
            m for m in self.messages if m.sender == entity or m.receiver == entity
        ]

    def kinds_count(self) -> Dict[str, int]:
        """Message counts per kind."""
        counts: Dict[str, int] = defaultdict(int)
        for m in self.messages:
            counts[m.kind] += 1
        return dict(counts)

    def reset(self) -> None:
        """Clear the log, counters and all inboxes."""
        self.messages.clear()
        self._bytes.clear()
        self._inboxes.clear()
