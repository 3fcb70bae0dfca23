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
    BOOL,
    BYTES,
    STR,
    TRACE,
    U32,
    Record,
    decode_fields,
    encode_frame,
    fixed,
    pack_fields,
    pack_trace,
    read_trace,
    seq,
    struct_of,
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


class NetMessage:
    """Base class: subclasses define ``TYPE_ID`` and their ``FIELDS`` in
    wire order (:mod:`repro.wire.codec`); ``trace`` is always last."""

    TYPE_ID: int = -1
    FIELDS: tuple = ()

    def payload_bytes(self) -> bytes:
        return pack_fields(self.FIELDS, self)

    @classmethod
    def from_payload(cls, payload: bytes) -> "NetMessage":
        return decode_fields(cls.FIELDS, payload, None, cls)

    def encode(self) -> bytes:
        return encode_frame(self.TYPE_ID, self.payload_bytes())


@dataclass(frozen=True)
class Hello(NetMessage):
    """Client -> broker: bind this connection to an entity name."""

    entity: str
    trace: bytes = ZERO_TRACE

    TYPE_ID = 64
    FIELDS = (("entity", STR), ("trace", TRACE))


@dataclass(frozen=True)
class Welcome(NetMessage):
    """Broker -> client: handshake outcome (refusals carry a reason)."""

    ok: bool
    entity: str
    reason: str = ""
    trace: bytes = ZERO_TRACE

    TYPE_ID = 65
    FIELDS = (("ok", BOOL), ("entity", STR), ("reason", STR), ("trace", TRACE))


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
    FIELDS = (
        ("sender", STR),
        ("receiver", STR),
        ("kind", STR),
        ("note", STR),
        ("payload", BYTES),
        ("trace", TRACE),
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
    FIELDS = (
        ("sender", STR),
        ("kind", STR),
        ("note", STR),
        ("payload", BYTES),
        ("trace", TRACE),
    )


@dataclass(frozen=True)
class Ack(NetMessage):
    """Client -> broker: ``count`` pushed deliveries have been processed."""

    count: int
    trace: bytes = ZERO_TRACE

    TYPE_ID = 68
    FIELDS = (("count", U32), ("trace", TRACE))


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
    FIELDS = (
        ("include_log", BOOL),
        ("metrics", BOOL),
        ("entity", STR),
        ("trace", TRACE),
    )


@dataclass(frozen=True)
class TrafficRecord(Record):
    """One accounted transmission, as reported in :class:`StatsReply`."""

    sender: str
    receiver: str
    kind: str
    size: int
    note: str = ""

    FIELDS = (
        ("sender", STR),
        ("receiver", STR),
        ("kind", STR),
        ("size", U32),
        ("note", STR),
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
    FIELDS = (
        ("pending", U32),
        ("in_flight", U32),
        ("delivered_total", U32),
        ("dropped", U32),
        ("log_complete", BOOL),
        ("log", seq(struct_of(TrafficRecord))),
        ("counters", seq(fixed(STR, U32))),
        ("entity", STR),
        ("metrics", BYTES),
        ("trace", TRACE),
    )

    def counter(self, name: str, default: int = 0) -> int:
        """Look up one named counter (missing -> ``default``)."""
        for key, value in self.counters:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class Shutdown(NetMessage):
    """Client -> broker: stop serving and close every connection.

    An operator convenience for supervised deployments (the loopback
    examples and tests); an internet-facing broker would gate this behind
    authentication, which the demo runtime does not have.
    """

    trace: bytes = ZERO_TRACE

    TYPE_ID = 71
    FIELDS = (("trace", TRACE),)


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
    FIELDS = (("relay_id", STR), ("trace", TRACE))


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
    FIELDS = (
        ("ok", BOOL),
        ("relay_id", STR),
        ("path", seq(STR, bound=MAX_RELAY_PATH)),
        ("reason", STR),
        ("trace", TRACE),
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
    FIELDS = (("entity", STR), ("trace", TRACE))


@dataclass(frozen=True)
class RelayAttachReply(NetMessage):
    """Root -> relay: attach verdict, routed back down the asking path."""

    ok: bool
    entity: str
    reason: str = ""
    trace: bytes = ZERO_TRACE

    TYPE_ID = 75
    FIELDS = (("ok", BOOL), ("entity", STR), ("reason", STR), ("trace", TRACE))


@dataclass(frozen=True)
class RelayDetach(NetMessage):
    """Relay -> upstream: a previously attached entity disconnected.

    Frees the name in the root table and redirects the entity's traffic
    back into its root-side inbox (offline queueing) until it reattaches.
    """

    entity: str
    trace: bytes = ZERO_TRACE

    TYPE_ID = 76
    FIELDS = (("entity", STR), ("trace", TRACE))


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
    FIELDS = (
        ("seq", U32),
        ("sender", STR),
        ("kind", STR),
        ("note", STR),
        ("payload", BYTES),
        ("trace", TRACE),
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

