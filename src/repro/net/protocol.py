"""Net-level control messages between clients and the broker.

These frames share the :mod:`repro.wire.codec` format with the
application's messages but occupy a disjoint type-ID range (64+), so a
stream can carry either and a misrouted frame is always identifiable.
The broker speaks *only* this protocol; the application frames it routes
ride inside :class:`NetDeliver` / :class:`NetBroadcast` as opaque bytes
the broker never parses -- what the broker learns about a registration is
exactly what ``InMemoryTransport`` accounting records (sender, receiver,
kind label, size), no more.

Handshake: a client's first frame must be :class:`Hello`; the broker
answers :class:`Welcome`.  One live connection per entity name -- a
second Hello for a connected name is refused, so a peer cannot hijack an
entity's inbox by connecting under its nym (spoof-on-connect).  After the
handshake the broker enforces that every routed frame's declared sender
equals the connection's entity.

Relay federation rides on the same framing.  A relay node opens its
downstream connection with :class:`RelayHello` instead of ``Hello``; the
upstream answers :class:`RelayWelcome` carrying its *path* (the chain of
relay ids from the root), which both sides check for loops.  Entities
attaching below a relay are forwarded up as :class:`RelayAttach` so the
root keeps the one global name table (spoof-on-connect stays a
single-authority decision); broadcasts travel down as
:class:`RelayBroadcast` carrying a root-assigned sequence id that each
hop checks against one high-water integer.  Relays never unwrap routed
payloads -- the messages here carry names, labels and opaque bytes only,
so a relay provably cannot hold keys or CSS state.

Introspection is **one request and one report** at every depth.
:class:`StatsRequest` asks; its ``entity`` field is stamped by the first
hop from the name bound to the asking connection and forwarded up
unchanged, so the root can route the answer.  :class:`StatsReply`
answers: routing state, counters, optionally the accounting log
(``include_log``) and optionally a :mod:`repro.obs.metrics` snapshot
(``metrics``), routed back down by its ``entity`` as the same message at
every hop -- no wrapping, no re-parse.  The rule is one line: *an
attached entity is answered by the root authority, a monitor by the hop
it dialled* -- for stats and metrics alike (a monitor is a connection
whose first frame is a ``StatsRequest``).  The same ``StatsReply`` with
``entity == ""`` travelling *up* a link is a relay's periodic subtree
report (``--metrics-interval``); with a non-empty ``entity`` it only
ever travels down.

:class:`Ack` implements processed-message accounting for quiescence
detection: a client acknowledges deliveries only after its endpoint has
*handled* them, so ``pending == 0 and in_flight == 0`` at the broker
means the whole system is idle (no frames queued, in transit, or being
processed) -- the networked analogue of ``run_until_idle`` returning.

Every message optionally carries a 16-byte **trace id** as a trailing
payload field (:func:`pack_trace` / :func:`read_trace`): the all-zeros
"no trace" value is encoded by *omission*, so untraced traffic is
byte-identical to the pre-trace protocol, a pre-trace decoder never
sees the field, and a pre-trace frame decodes here with
``trace == ZERO_TRACE``.  Any other trailing length is refused as
malformed.  Trace ids are opaque routing metadata (never payload
bytes); :mod:`repro.obs` owns their semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Type

from repro.errors import SerializationError
from repro.obs.trace import TRACE_LEN, ZERO_TRACE
from repro.wire.codec import (
    Cursor,
    decode_frame,
    encode_frame,
    pack_bool,
    pack_bytes,
    pack_str,
    pack_u32,
)

__all__ = [
    "BROADCAST",
    "ENVELOPE_OVERHEAD",
    "MAX_NAME_LEN",
    "MAX_RELAY_PATH",
    "TRACE_LEN",
    "ZERO_TRACE",
    "pack_trace",
    "read_trace",
    "NetMessage",
    "Hello",
    "Welcome",
    "NetDeliver",
    "NetBroadcast",
    "Ack",
    "StatsRequest",
    "StatsReply",
    "TrafficRecord",
    "Shutdown",
    "RelayHello",
    "RelayWelcome",
    "RelayAttach",
    "RelayAttachReply",
    "RelayDetach",
    "RelayBroadcast",
    "NET_MESSAGE_TYPES",
    "decode_net_message",
    "decode_net_payload",
]


#: Worst-case bytes a NetDeliver/NetBroadcast envelope adds around the
#: routed application frame: four u16-length-prefixed strings (sender,
#: receiver, kind, note; <= 65535 bytes each) plus the u32 payload
#: prefix.  Streams carrying envelopes allow ``max_frame +
#: ENVELOPE_OVERHEAD`` so any application frame legal under ``max_frame``
#: survives wrapping; the routed payload itself is checked against
#: ``max_frame`` explicitly on both sides.
ENVELOPE_OVERHEAD = 4 * (2 + 65535) + 4 + TRACE_LEN

#: The reserved multicast receiver name, mirrored from
#: :data:`repro.system.transport.BROADCAST`.  Redeclared here (rather
#: than imported) so the net layer's leaf modules -- in particular a
#: relay process, whose keyless claim is pinned as an import boundary --
#: never pull in :mod:`repro.system` and the crypto stack behind it.
BROADCAST = "*"

#: Longest entity or relay name a server will accept at handshake.  The
#: wire codec allows strings up to 64 KiB; names are operator-chosen
#: identifiers, so anything longer is a hostile or broken peer and the
#: handshake refuses it before the name enters any table.
MAX_NAME_LEN = 128

#: Deepest relay chain a :class:`RelayWelcome` may describe.  Bounds the
#: decode-side allocation and caps how deep a federation tree can grow;
#: a path longer than this is refused as malformed.
MAX_RELAY_PATH = 64


def pack_trace(trace: bytes) -> bytes:
    """Encode a trace id as the optional trailing payload field.

    The no-trace value (empty or all zeros) encodes as *nothing*, so
    untraced frames stay byte-identical to the pre-trace protocol.
    """
    if not trace or not any(trace):
        return b""
    if len(trace) != TRACE_LEN:
        raise SerializationError(
            "trace id must be %d bytes, got %d" % (TRACE_LEN, len(trace))
        )
    return bytes(trace)


def read_trace(cursor: Cursor) -> bytes:
    """Read the optional trailing trace id; call after every other field.

    Nothing left means "no trace" (also how every pre-trace frame
    decodes); exactly :data:`TRACE_LEN` bytes is a trace id; any other
    trailing length is malformed -- an oversized or truncated trace id
    is refused rather than truncated or padded.
    """
    remaining = cursor.remaining()
    if remaining == 0:
        return ZERO_TRACE
    if remaining != TRACE_LEN:
        raise SerializationError(
            "%d trailing bytes are neither empty nor a %d-byte trace id"
            % (remaining, TRACE_LEN)
        )
    return cursor.take(TRACE_LEN)


class NetMessage:
    """Base class: subclasses define ``TYPE_ID`` and the payload codec."""

    TYPE_ID: int = -1

    def payload_bytes(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def from_payload(cls, payload: bytes) -> "NetMessage":
        raise NotImplementedError

    def encode(self) -> bytes:
        return encode_frame(self.TYPE_ID, self.payload_bytes())


@dataclass(frozen=True)
class Hello(NetMessage):
    """Client -> broker: bind this connection to an entity name."""

    entity: str
    trace: bytes = ZERO_TRACE

    TYPE_ID = 64

    def payload_bytes(self) -> bytes:
        return pack_str(self.entity) + pack_trace(self.trace)

    @classmethod
    def from_payload(cls, payload: bytes) -> "Hello":
        cursor = Cursor(payload)
        entity = cursor.read_str()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(entity=entity, trace=trace)


@dataclass(frozen=True)
class Welcome(NetMessage):
    """Broker -> client: handshake outcome (refusals carry a reason)."""

    ok: bool
    entity: str
    reason: str = ""
    trace: bytes = ZERO_TRACE

    TYPE_ID = 65

    def payload_bytes(self) -> bytes:
        return (
            pack_bool(self.ok)
            + pack_str(self.entity)
            + pack_str(self.reason)
            + pack_trace(self.trace)
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "Welcome":
        cursor = Cursor(payload)
        ok = cursor.read_bool()
        entity = cursor.read_str()
        reason = cursor.read_str()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(ok=ok, entity=entity, reason=reason, trace=trace)


@dataclass(frozen=True)
class NetDeliver(NetMessage):
    """One routed application frame (client->broker and broker->client).

    ``payload`` is the application's complete wire frame, opaque to the
    broker; ``kind``/``note`` are the accounting labels the in-memory
    router records.
    """

    sender: str
    receiver: str
    kind: str
    note: str
    payload: bytes
    trace: bytes = ZERO_TRACE

    TYPE_ID = 66

    def payload_bytes(self) -> bytes:
        return (
            pack_str(self.sender)
            + pack_str(self.receiver)
            + pack_str(self.kind)
            + pack_str(self.note)
            + pack_bytes(self.payload)
            + pack_trace(self.trace)
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "NetDeliver":
        cursor = Cursor(payload)
        sender = cursor.read_str()
        receiver = cursor.read_str()
        kind = cursor.read_str()
        note = cursor.read_str()
        body = cursor.read_bytes()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(
            sender=sender,
            receiver=receiver,
            kind=kind,
            note=note,
            payload=body,
            trace=trace,
        )


@dataclass(frozen=True)
class NetBroadcast(NetMessage):
    """Client -> broker: one multicast, fanned out broker-side."""

    sender: str
    kind: str
    note: str
    payload: bytes
    trace: bytes = ZERO_TRACE

    TYPE_ID = 67

    def payload_bytes(self) -> bytes:
        return (
            pack_str(self.sender)
            + pack_str(self.kind)
            + pack_str(self.note)
            + pack_bytes(self.payload)
            + pack_trace(self.trace)
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "NetBroadcast":
        cursor = Cursor(payload)
        sender = cursor.read_str()
        kind = cursor.read_str()
        note = cursor.read_str()
        body = cursor.read_bytes()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(
            sender=sender, kind=kind, note=note, payload=body, trace=trace
        )


@dataclass(frozen=True)
class Ack(NetMessage):
    """Client -> broker: ``count`` pushed deliveries have been processed."""

    count: int
    trace: bytes = ZERO_TRACE

    TYPE_ID = 68

    def payload_bytes(self) -> bytes:
        return pack_u32(self.count) + pack_trace(self.trace)

    @classmethod
    def from_payload(cls, payload: bytes) -> "Ack":
        cursor = Cursor(payload)
        count = cursor.read_u32()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(count=count, trace=trace)


@dataclass(frozen=True)
class StatsRequest(NetMessage):
    """Ask for routing/accounting state (and, with ``metrics``, a
    metrics snapshot) -- the one introspection request.

    ``entity`` is a routing field, not a question: the asker leaves it
    empty, the first hop stamps the name bound to the asking connection
    and every hop above forwards it unchanged, under the same sender
    rule as routed traffic (a connection speaks only for names bound
    through it).  A monitor's request keeps it empty.
    """

    include_log: bool = False
    metrics: bool = False
    entity: str = ""
    trace: bytes = ZERO_TRACE

    TYPE_ID = 69

    def payload_bytes(self) -> bytes:
        return (
            pack_bool(self.include_log)
            + pack_bool(self.metrics)
            + pack_str(self.entity)
            + pack_trace(self.trace)
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "StatsRequest":
        cursor = Cursor(payload)
        include_log = cursor.read_bool()
        metrics = cursor.read_bool()
        entity = cursor.read_str()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(
            include_log=include_log, metrics=metrics, entity=entity, trace=trace
        )


@dataclass(frozen=True)
class TrafficRecord:
    """One accounted transmission, as reported in :class:`StatsReply`."""

    sender: str
    receiver: str
    kind: str
    size: int
    note: str = ""

    def to_bytes(self) -> bytes:
        return (
            pack_str(self.sender)
            + pack_str(self.receiver)
            + pack_str(self.kind)
            + pack_u32(self.size)
            + pack_str(self.note)
        )

    @classmethod
    def read_from(cls, cursor: Cursor) -> "TrafficRecord":
        return cls(
            sender=cursor.read_str(),
            receiver=cursor.read_str(),
            kind=cursor.read_str(),
            size=cursor.read_u32(),
            note=cursor.read_str(),
        )


@dataclass(frozen=True)
class StatsReply(NetMessage):
    """The one introspection report: routing state, counters and
    (optionally) the accounting log and a metrics snapshot.

    * ``pending`` -- deliveries queued node-side, not yet pushed;
    * ``in_flight`` -- deliveries pushed to clients but not yet acked
      (i.e. not yet *processed* by the receiving endpoint);
    * ``delivered_total`` -- monotonic count of enqueued deliveries, so a
      caller can detect that traffic has genuinely stopped;
    * ``dropped`` -- deliveries discarded to hold state bounds;
    * ``log_complete`` -- False when the accounting log was too large to
      fit one frame and only its newest suffix is included;
    * ``counters`` -- named counters of the answering view (the root
      authority's, or one hop's local ones) as a name/value list, so
      every view shares one reply shape;
    * ``entity`` -- the asker the report is routed down to (copied from
      the request).  Empty on a monitor's answer and on the subtree
      report a relay pushes *up* its link every ``--metrics-interval``;
    * ``metrics`` -- canonical :func:`repro.obs.metrics.snapshot_to_json`
      bytes of the answerer's subtree aggregate, empty unless asked for.
      Opaque here: ``snapshot_from_json`` caps the size (1 MiB) and
      validates the shape before a snapshot enters any aggregate, so a
      hostile blob costs its sender the report, never the link.
      Telemetry only -- never payload bytes.
    """

    pending: int
    in_flight: int
    delivered_total: int
    dropped: int = 0
    log_complete: bool = True
    log: Tuple[TrafficRecord, ...] = field(default_factory=tuple)
    counters: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)
    entity: str = ""
    metrics: bytes = b""
    trace: bytes = ZERO_TRACE

    TYPE_ID = 70

    def counter(self, name: str, default: int = 0) -> int:
        """Look up one named counter (missing -> ``default``)."""
        for key, value in self.counters:
            if key == name:
                return value
        return default

    def payload_bytes(self) -> bytes:
        out = (
            pack_u32(self.pending)
            + pack_u32(self.in_flight)
            + pack_u32(self.delivered_total)
            + pack_u32(self.dropped)
            + pack_bool(self.log_complete)
            + pack_u32(len(self.log))
        )
        out += b"".join(record.to_bytes() for record in self.log)
        out += pack_u32(len(self.counters))
        out += b"".join(
            pack_str(name) + pack_u32(value) for name, value in self.counters
        )
        out += pack_str(self.entity) + pack_bytes(self.metrics)
        return out + pack_trace(self.trace)

    @classmethod
    def from_payload(cls, payload: bytes) -> "StatsReply":
        cursor = Cursor(payload)
        pending = cursor.read_u32()
        in_flight = cursor.read_u32()
        delivered_total = cursor.read_u32()
        dropped = cursor.read_u32()
        log_complete = cursor.read_bool()
        count = cursor.read_u32()
        log = tuple(TrafficRecord.read_from(cursor) for _ in range(count))
        counter_count = cursor.read_u32()
        counters = tuple(
            (cursor.read_str(), cursor.read_u32()) for _ in range(counter_count)
        )
        entity = cursor.read_str()
        metrics = cursor.read_bytes()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(
            pending=pending,
            in_flight=in_flight,
            delivered_total=delivered_total,
            dropped=dropped,
            log_complete=log_complete,
            log=log,
            counters=counters,
            entity=entity,
            metrics=metrics,
            trace=trace,
        )


@dataclass(frozen=True)
class Shutdown(NetMessage):
    """Client -> broker: stop serving and close every connection.

    An operator convenience for supervised deployments (the loopback
    examples and tests); an internet-facing broker would gate this behind
    authentication, which the demo runtime does not have.
    """

    trace: bytes = ZERO_TRACE

    TYPE_ID = 71

    def payload_bytes(self) -> bytes:
        return pack_trace(self.trace)

    @classmethod
    def from_payload(cls, payload: bytes) -> "Shutdown":
        cursor = Cursor(payload)
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(trace=trace)


@dataclass(frozen=True)
class RelayHello(NetMessage):
    """Relay -> upstream: bind this connection as a downstream relay link.

    The alternate first frame of a handshake: where an entity sends
    :class:`Hello`, a relay sends this.  ``relay_id`` names the relay in
    the federation tree; upstreams refuse duplicates and any id already
    on their own path (loop refusal, accepting side).
    """

    relay_id: str
    trace: bytes = ZERO_TRACE

    TYPE_ID = 72

    def payload_bytes(self) -> bytes:
        return pack_str(self.relay_id) + pack_trace(self.trace)

    @classmethod
    def from_payload(cls, payload: bytes) -> "RelayHello":
        cursor = Cursor(payload)
        relay_id = cursor.read_str()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(relay_id=relay_id, trace=trace)


@dataclass(frozen=True)
class RelayWelcome(NetMessage):
    """Upstream -> relay: relay handshake outcome.

    ``path`` is the accepting node's own relay-id chain from the root
    (the root broker's path is empty, a first-hop relay's is its own id,
    and so on).  The connecting relay refuses the link if its id appears
    in the returned path -- loop refusal, connecting side -- and appends
    itself to form the path it will hand to *its* downstreams.
    """

    ok: bool
    relay_id: str
    path: Tuple[str, ...] = ()
    reason: str = ""
    trace: bytes = ZERO_TRACE

    TYPE_ID = 73

    def payload_bytes(self) -> bytes:
        out = (
            pack_bool(self.ok)
            + pack_str(self.relay_id)
            + pack_u32(len(self.path))
        )
        out += b"".join(pack_str(hop) for hop in self.path)
        return out + pack_str(self.reason) + pack_trace(self.trace)

    @classmethod
    def from_payload(cls, payload: bytes) -> "RelayWelcome":
        cursor = Cursor(payload)
        ok = cursor.read_bool()
        relay_id = cursor.read_str()
        count = cursor.read_u32()
        if count > MAX_RELAY_PATH:
            raise SerializationError(
                "relay path of %d hops exceeds the %d-hop bound"
                % (count, MAX_RELAY_PATH)
            )
        path = tuple(cursor.read_str() for _ in range(count))
        reason = cursor.read_str()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(
            ok=ok, relay_id=relay_id, path=path, reason=reason, trace=trace
        )


@dataclass(frozen=True)
class RelayAttach(NetMessage):
    """Relay -> upstream: an entity sent Hello below this subtree.

    Forwarded hop by hop to the root broker, which owns the global name
    table and answers :class:`RelayAttachReply`.  Admission therefore
    stays a single-authority decision exactly as for direct connections:
    a name can be live on at most one connection anywhere in the tree.
    """

    entity: str
    trace: bytes = ZERO_TRACE

    TYPE_ID = 74

    def payload_bytes(self) -> bytes:
        return pack_str(self.entity) + pack_trace(self.trace)

    @classmethod
    def from_payload(cls, payload: bytes) -> "RelayAttach":
        cursor = Cursor(payload)
        entity = cursor.read_str()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(entity=entity, trace=trace)


@dataclass(frozen=True)
class RelayAttachReply(NetMessage):
    """Root -> relay: attach verdict, routed back down the asking path."""

    ok: bool
    entity: str
    reason: str = ""
    trace: bytes = ZERO_TRACE

    TYPE_ID = 75

    def payload_bytes(self) -> bytes:
        return (
            pack_bool(self.ok)
            + pack_str(self.entity)
            + pack_str(self.reason)
            + pack_trace(self.trace)
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "RelayAttachReply":
        cursor = Cursor(payload)
        ok = cursor.read_bool()
        entity = cursor.read_str()
        reason = cursor.read_str()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(ok=ok, entity=entity, reason=reason, trace=trace)


@dataclass(frozen=True)
class RelayDetach(NetMessage):
    """Relay -> upstream: a previously attached entity disconnected.

    Frees the name in the root table and redirects the entity's traffic
    back into its root-side inbox (offline queueing) until it reattaches.
    """

    entity: str
    trace: bytes = ZERO_TRACE

    TYPE_ID = 76

    def payload_bytes(self) -> bytes:
        return pack_str(self.entity) + pack_trace(self.trace)

    @classmethod
    def from_payload(cls, payload: bytes) -> "RelayDetach":
        cursor = Cursor(payload)
        entity = cursor.read_str()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(entity=entity, trace=trace)


@dataclass(frozen=True)
class RelayBroadcast(NetMessage):
    """Upstream -> relay: one multicast travelling down the tree.

    ``seq`` is assigned once by the root broker (monotonically
    increasing, never 0) and carried unchanged to every hop; each relay
    keeps a bounded seen-set of sequence ids and drops duplicates, so a
    replayed or multiply-routed broadcast is delivered at most once per
    subtree.  Strictly a downstream message: a relay receiving it from a
    *downstream* peer treats that as a protocol violation (no downstream
    node can inject traffic into a sibling subtree).
    """

    seq: int
    sender: str
    kind: str
    note: str
    payload: bytes
    trace: bytes = ZERO_TRACE

    TYPE_ID = 77

    def payload_bytes(self) -> bytes:
        return (
            pack_u32(self.seq)
            + pack_str(self.sender)
            + pack_str(self.kind)
            + pack_str(self.note)
            + pack_bytes(self.payload)
            + pack_trace(self.trace)
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "RelayBroadcast":
        cursor = Cursor(payload)
        seq = cursor.read_u32()
        sender = cursor.read_str()
        kind = cursor.read_str()
        note = cursor.read_str()
        body = cursor.read_bytes()
        trace = read_trace(cursor)
        cursor.expect_end()
        return cls(
            seq=seq,
            sender=sender,
            kind=kind,
            note=note,
            payload=body,
            trace=trace,
        )


NET_MESSAGE_TYPES: Dict[int, Type[NetMessage]] = {
    cls.TYPE_ID: cls
    for cls in (
        Hello,
        Welcome,
        NetDeliver,
        NetBroadcast,
        Ack,
        StatsRequest,
        StatsReply,
        Shutdown,
        RelayHello,
        RelayWelcome,
        RelayAttach,
        RelayAttachReply,
        RelayDetach,
        RelayBroadcast,
    )
}


def decode_net_payload(type_id: int, payload: bytes) -> NetMessage:
    """Decode an already-split frame (the stream layer's output)."""
    cls = NET_MESSAGE_TYPES.get(type_id)
    if cls is None:
        raise SerializationError("unknown net frame type %d" % type_id)
    return cls.from_payload(payload)


def decode_net_message(frame: bytes) -> NetMessage:
    """Decode one complete net frame from bytes."""
    type_id, payload = decode_frame(frame)
    return decode_net_payload(type_id, payload)
