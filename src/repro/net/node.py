"""One forwarding node: a broker is a relay with no upstream.

The paper disseminates by one broadcast of self-protecting packages
with zero-unicast rekey, so nothing between publisher and subscribers
needs a key -- and a keyless tier needs exactly one kind of forwarding
node.  A :class:`Node` accepts downstream connections (entities and
other nodes) and forwards what they send *up*; what "up" means is the
only thing its role decides:

* ``upstream=(host, port)`` -- a *relay*: frames from below go up a
  socket toward the root, answers come back down it.
* ``upstream=None`` -- the *root*: frames from below go into the
  in-process :class:`_Root` authority (an ``InMemoryTransport`` router:
  the global admission table, the offline inboxes, the accounting log,
  the broadcast sequence), which hands its answers back through the same
  ``_down_unicast`` / ``_down_broadcast`` / ``_attach_reply`` /
  ``_stats_reply_down`` a socket upstream feeds.

Everything else exists once, at every depth:

* **First-frame dispatch.**  ``Hello`` binds an entity (forwarded up as
  ``RelayAttach``: admission is one root decision, so spoof-on-connect
  is global across attach points); ``RelayHello`` binds a downstream
  node (answered with this node's root *path*; both sides refuse a link
  that would close a loop); a plain ``StatsRequest`` is a *monitor*,
  answered from local counters without entering any table.  Anything
  else, or silence past ``handshake_timeout``, drops the connection --
  never the node.
* **One introspection answer**, ``_answer(request)``, for stats, log
  and metrics alike: an attached entity is answered by the root
  authority, a monitor by the hop it dialled.
* **One bounded outbound FIFO and one send loop per connection**; a
  peer that stops reading is disconnected and counted at ``max_backlog``.
* **Acks propagate up only when the subtree is done**: every counted
  frame queued downward holds a token of the unit it derives from, so
  the root's ``pending == 0 and in_flight == 0`` means the whole tree
  is quiet.
* **Broadcasts cross each hop exactly once**: the root stamps every
  multicast with a strictly increasing sequence id and one high-water
  integer per hop refuses every replayed, stale or forged id.
* **Keyless**: routed payloads stay opaque bytes, and this module must
  import no crypto, GKM, policy or entity code (an import boundary
  pinned by ``tests/net/test_relay.py``).

DESIGN.md ("Node") has the lifecycle, the per-hop invariant table and
which frames bounce or count as dropped when a connection goes away.
``python -m repro.net.broker`` / ``repro.net.relay`` both run :func:`main`.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import logging
import os
import signal
import socket
import sys
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import (
    InvalidParameterError,
    NetworkError,
    ReproError,
    SerializationError,
)
from repro.net._cli import parse_endpoint, write_port_file
from repro.net.protocol import (
    BROADCAST,
    ENVELOPE_OVERHEAD,
    MAX_NAME_LEN,
    MAX_RELAY_PATH,
    Ack,
    Hello,
    NetBroadcast,
    NetDeliver,
    NetMessage,
    RelayAttach,
    RelayAttachReply,
    RelayBroadcast,
    RelayDetach,
    RelayHello,
    RelayWelcome,
    Shutdown,
    StatsReply,
    StatsRequest,
    TrafficRecord,
    Welcome,
    decode_net_payload,
)
from repro.net.stream import FrameDecoder, FrameStream, open_frame_stream
from repro.obs.metrics import (
    MetricsRegistry,
    merge_snapshots,
    snapshot_from_json,
    snapshot_to_json,
)
from repro.obs.trace import SpanWriter, tracing
from repro.system.transport import Delivery, InMemoryTransport
from repro.wire.codec import DEFAULT_MAX_FRAME_PAYLOAD

__all__ = ["Node", "main", "request_local_metrics", "request_local_stats"]

logger = logging.getLogger("repro.net.node")


class _Unit:
    """One counted unit received from above, awaiting subtree acks.

    ``outstanding`` counts downstream pushes derived from the unit that
    are not yet acked; the unit is acked upstream exactly when it reaches
    zero (a unit that fans out to nothing is acked immediately).
    """

    __slots__ = ("outstanding",)

    def __init__(self) -> None:
        self.outstanding = 0


class _Down:
    """Node-side state for one downstream connection (entity or node)."""

    def __init__(self, kind: str, name: str, stream: FrameStream):
        self.kind = kind  # "entity" | "relay"
        self.name = name
        self.stream = stream
        #: For relay links: the latest metrics snapshot the downstream
        #: node pushed up (its whole subtree); None until the first push.
        self.last_metrics: Optional[dict] = None
        #: (message, counted) awaiting transmission, FIFO.  ``counted``
        #: marks routed units that participate in quiescence accounting
        #: (NetDeliver/RelayBroadcast); control replies are uncounted.
        self.outbound: Deque[Tuple[NetMessage, bool]] = deque()
        self.wake = asyncio.Event()
        #: The units backing the counted frames queued/sent on this
        #: connection, in the same FIFO order -- appended at *queue* time
        #: so a frame is never in neither ``pending`` nor ``in_flight``;
        #: each downstream ack pops one and may complete its unit.
        self.tokens: Deque[_Unit] = deque()
        #: For relay links: entity names bound through this link.
        self.entities: Set[str] = set()
        self.sender_task: Optional[asyncio.Task] = None
        self.closed = False


async def _send(stream: FrameStream, message: NetMessage) -> None:
    await stream.send(message.TYPE_ID, message.payload_bytes())


def _name_refusal(what: str, name: str) -> Optional[str]:
    """Why ``name`` can never be bound, whoever asks (None = well-formed).

    The one syntactic check behind every handshake -- ``Hello``,
    ``RelayHello`` and the ``RelayAttach`` a link forwards -- applied
    before the name enters any table.
    """
    if not name:
        return "%s must be non-empty" % what
    if len(name) > MAX_NAME_LEN:
        return "%s of %d bytes exceeds %d" % (what, len(name), MAX_NAME_LEN)
    if name == BROADCAST:
        return "%s %r is reserved for multicast" % (what, BROADCAST)
    return None


class _Root:
    """The root authority: what "up" means for a node with no upstream.

    ``InMemoryTransport`` behind the node's listener -- literally: every
    admission, routing and accounting decision is delegated to the same
    router the single-process tests use, so the network deployment and
    the in-memory one share one behaviour by construction and the
    paper's bandwidth claims (O(l'N) broadcast frames, zero unicast on
    rekey) stay measurable on the real network path.

    The authority sees the tree as a set of *live* names -- exactly the
    node's ``_bind`` table, whether a name is attached at depth 0 or
    below any chain of links -- and hands every answer to the node's
    downstream half.  A name that is not live keeps a bounded offline
    inbox in the router; its next attach drains it.
    """

    def __init__(self, node: "Node", max_inbox: int, max_entities: int, max_log: int):
        self.node = node
        self.max_inbox = max_inbox
        #: Bound on distinct entity names (inboxes): together with
        #: ``max_inbox`` and ``max_frame`` this caps total queued state, so
        #: a connected peer cannot grow root memory by spraying
        #: deliveries at fabricated receiver names.
        self.max_entities = max_entities
        #: Accounting-log record bound: a long-running root trims the
        #: oldest records (flagged via ``log_complete=False`` in stats)
        #: rather than growing per-delivery state forever.
        self.max_log = max_log
        #: Routing + accounting: the same router the in-process tests use.
        self.route = InMemoryTransport()
        self.broadcast_seq = 0
        self.bounced_requeues = 0
        self.log_trimmed = False

    async def handle(self, message: NetMessage, via: Optional[_Down]) -> None:
        """Take one frame the node forwards up (``via``: where it came from)."""
        if isinstance(message, NetDeliver):
            await self._unicast(message, via)
        elif isinstance(message, NetBroadcast):
            await self._broadcast(message)
        elif isinstance(message, RelayAttach):
            await self._attach(message.entity)
        elif isinstance(message, StatsRequest):
            await self.node._stats_reply_down(self.node._answer(message))
        elif isinstance(message, Shutdown):
            logger.info("shutdown requested")
            self.node.shutdown()
        # RelayDetach needs no action: liveness *is* the node's binding
        # table, and the node unbinds before it reports the detach.

    async def _attach(self, entity: str) -> None:
        """Admit an entity that said Hello somewhere in the tree.

        One rule for every attach point, so a name can be live on at most
        one connection anywhere in the federation.
        """
        node = self.node
        refusal = None
        if entity in node._bind:
            # Spoof-on-connect: the name is bound to a live connection.
            refusal = "entity %r is already connected" % entity
        elif (
            not self.route.registered(entity)
            and self.route.entity_count() >= self.max_entities
        ):
            # The same bound _admit applies to receivers: inboxes survive
            # disconnects, so churning Hellos under fresh names must not
            # mint unbounded root state either.
            refusal = "entity bound (%d) reached" % self.max_entities
        if refusal is not None:
            logger.warning("refusing attach of %r: %s", entity, refusal)
            reply = RelayAttachReply(ok=False, entity=entity, reason=refusal)
            await node._attach_reply(reply)
            return
        self.route.register(entity)
        await node._attach_reply(RelayAttachReply(ok=True, entity=entity))
        down = node._bind.get(entity)
        if down is None:
            return  # the connection vanished mid-handshake; nothing bound
        # Admission spans are the root's alone: obs.analyze recognizes
        # the root's span log by them.
        if down.kind == "entity":
            node._count("connect")
            if node._obs is not None:
                node._obs.span("connect", peer=entity)
        elif node._obs is not None:
            node._obs.span("attach", peer=entity, relay=down.name)
        # Flush-on-attach: the offline backlog drains down behind the
        # reply (the connection's queue is FIFO, so the entity sees
        # Welcome before its backlog).  ``owed``: the inbox bound already
        # held these frames, so moving them cannot trip the backlog one.
        for delivery in self.route.poll(entity, None):
            frame = NetDeliver(
                sender=delivery.sender,
                receiver=entity,
                kind=delivery.kind,
                note=delivery.note,
                payload=delivery.payload,
                trace=delivery.trace,
            )
            await node._down_unicast(frame, owed=True)

    def _admit(self, receiver: str) -> bool:
        """Allow routing to ``receiver``, creating its inbox if room.

        The router auto-registers unknown receivers; without this gate a
        hostile-but-authenticated peer could mint one bounded inbox per
        fabricated name, unbounded names.
        """
        route = self.route
        if route.registered(receiver) or route.entity_count() < self.max_entities:
            return True
        self.node.dropped_total += 1
        logger.warning("dropping delivery to %r: entity bound reached", receiver)
        return False

    async def _unicast(self, message: NetDeliver, via: Optional[_Down]) -> None:
        """Route one unicast: down the tree if its receiver is live, else
        into the receiver's offline inbox.

        A frame is *fresh* traffic only if its sender is bound through
        the connection it arrived on.  Anything else is a **bounce**: a
        frame this root routed down that the subtree could no longer
        deliver (its entity detached while the frame was in flight), now
        returning behind the ``RelayDetach`` on the same FIFO link.  It
        is requeued toward the entity's current location *without* a
        second accounting record -- the bytes were accounted when first
        routed, and the audit log must stay topology-independent.  (A
        hostile relay could shape forgeries like bounces; the relay tier
        is routing infrastructure, trusted exactly as far as the root
        itself is for metadata -- never for content, which stays
        self-protecting.)
        """
        node = self.node
        if message.receiver == BROADCAST:
            raise SerializationError("unicast frame addressed to %r" % BROADCAST)
        live = message.receiver in node._bind
        if via is None or node._bind.get(message.sender) is not via:
            self.bounced_requeues += 1
            node._count("bounce")
            if not self._admit(message.receiver):
                return
            if live:  # reattached elsewhere meanwhile
                await node._down_unicast(message)
            else:
                self.park(message.receiver, [message])
            return
        if not self._admit(message.receiver):
            return  # over the name bound: accounted as dropped
        node._count("deliver")
        size = len(message.payload)
        if live:
            # Same accounting record as an offline delivery (the audit log
            # must not depend on topology), but the bytes travel down the
            # tree instead of into a root-side inbox.
            self.route.send(
                message.sender, message.receiver, message.kind, size, note=message.note
            )
            self._trim_log()
            await node._down_unicast(message)
            return
        # tracing(): the router stamps the *ambient* trace onto the
        # Delivery it queues, so the frame's id must be ambient here for
        # the flush-on-attach to carry it onward.
        with tracing(message.trace):
            self.route.deliver(
                message.sender,
                message.receiver,
                message.kind,
                message.payload,
                note=message.note,
            )
        node.delivered_total += 1
        self._trim_inbox(message.receiver)

    async def _broadcast(self, message: NetBroadcast) -> None:
        """One multicast: one ``"*"`` accounting record, a copy into every
        offline inbox, and one sequence-stamped frame into the tree.

        Sequence assignment and the whole downward fan-out run without
        yielding to the event loop, so ids are queued in increasing order
        on every link -- the order the per-hop high-water dedup relies on.
        """
        node = self.node
        node._count("broadcast")
        self.broadcast_seq += 1
        before = self.route.pending()
        with tracing(message.trace):
            self.route.broadcast(
                message.sender,
                message.kind,
                message.payload,
                note=message.note,
                exclude=node._bind.keys(),
            )
        queued = self.route.pending() - before
        if queued:
            node.delivered_total += queued
            for entity in self.route.entities():
                if entity not in node._bind:
                    self._trim_inbox(entity)
        self._trim_log()
        await node._down_broadcast(
            RelayBroadcast(
                seq=self.broadcast_seq,
                sender=message.sender,
                kind=message.kind,
                note=message.note,
                payload=message.payload,
                trace=message.trace,
            )
        )

    def park(self, receiver: str, frames: List[NetDeliver]) -> None:
        """Return undelivered frames to the *front* of ``receiver``'s
        offline inbox, in order (they predate anything queued since).

        No accounting record and no ``delivered_total``: both were
        recorded when the frames were first routed.
        """
        deliveries = [
            Delivery(
                sender=frame.sender,
                receiver=receiver,
                kind=frame.kind,
                payload=frame.payload,
                note=frame.note,
                trace=frame.trace if any(frame.trace) else b"",
            )
            for frame in frames
        ]
        self.route.requeue(receiver, deliveries)
        self._trim_inbox(receiver)

    def _trim_inbox(self, entity: str) -> None:
        """Hold the per-entity offline queue bound by discarding the oldest."""
        excess = self.route.pending(entity) - self.max_inbox
        if excess > 0:
            self.route.poll(entity, excess)
            self.node.dropped_total += excess
            logger.warning("inbox %r over bound: dropped %d oldest", entity, excess)
        self._trim_log()

    def _trim_log(self) -> None:
        log_excess = len(self.route.messages) - self.max_log
        if log_excess > 0:
            del self.route.messages[:log_excess]
            self.log_trimmed = True

    def stats(self, include_log: bool, reserve: int = 0) -> StatsReply:
        """The root's routing/accounting state (what an attached entity's
        ``StatsRequest`` is answered with, at any depth)."""
        node = self.node
        log: tuple = ()
        log_complete = not self.log_trimmed
        if include_log:
            # The reply must itself fit one frame: fill a byte budget from
            # the newest record backwards and flag truncation rather than
            # blow the cap (which would drop the requester's connection).
            # The slack covers the fixed header, the counters and the
            # routing field; ``reserve`` is whatever else rides in the
            # same reply (every stream allows ENVELOPE_OVERHEAD beyond
            # max_frame, which absorbs the floor at tiny frame caps).
            budget = max(node.max_frame - 512, node.max_frame // 2) - reserve
            records = []
            for m in reversed(self.route.messages):
                record = TrafficRecord(m.sender, m.receiver, m.kind, m.size, m.note)
                budget -= len(record.to_bytes())
                if budget < 0:
                    log_complete = False
                    break
                records.append(record)
            log = tuple(reversed(records))
        return StatsReply(
            pending=self.route.pending(),
            in_flight=node._in_flight(),
            delivered_total=node.delivered_total,
            dropped=node.dropped_total,
            log_complete=log_complete,
            log=log,
            counters=(
                ("leaf_connections", node._count_downs("entity")),
                ("relay_links", node._count_downs("relay")),
                ("relay_entities", sum(len(d.entities) for d in node._downs)),
                ("relay_broadcasts_down", node.relay_broadcasts_down),
                ("broadcast_seq", self.broadcast_seq),
                ("slow_consumer_disconnects", node.slow_consumer_disconnects),
                ("bounced_requeues", self.bounced_requeues),
            ),
        )


class Node:
    """One forwarding node; the root of the tree iff ``upstream is None``."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        relay_id: str = "",
        upstream: Optional[Tuple[str, int]] = None,
        max_frame: int = DEFAULT_MAX_FRAME_PAYLOAD,
        max_inbox: int = 10_000,
        max_entities: int = 10_000,
        handshake_timeout: float = 10.0,
        max_log: int = 100_000,
        max_backlog: int = 10_000,
        max_relays: int = 256,
        metrics_interval: float = 0.0,
        obs_path: Optional[str] = None,
    ):
        if (upstream is None) != (not relay_id):
            raise InvalidParameterError(
                "a node with an upstream needs a relay_id, and the root has none"
            )
        self.host = host
        self.port = port  # updated to the bound port by start()
        self.relay_id = relay_id
        self.upstream = upstream
        self.max_frame = max_frame
        #: A connection must complete its handshake within this budget, or
        #: a peer could park unlimited pre-authentication connections
        #: (each holding a socket and buffers) that no other bound sees.
        self.handshake_timeout = handshake_timeout
        #: Slow-consumer policy: a connected peer whose outbound queue
        #: crosses this bound is disconnected and counted, never queued
        #: for without limit.
        self.max_backlog = max_backlog
        #: Bound on simultaneously connected downstream relay links.
        self.max_relays = max_relays
        #: Seconds between metrics rounds (0 = off): each round mirrors
        #: the subtree aggregate into the local span log and, below the
        #: root, pushes it upstream pre-merged -- so every node only ever
        #: aggregates its direct links.
        self.metrics_interval = metrics_interval
        #: Per-instance registry: several nodes in one test process must
        #: not share counters.
        self.metrics = MetricsRegistry()
        #: Metric namespace by role; gauges *sum* up the tree, so the
        #: root's must not mix into ``relay.*`` (see _metrics_snapshot).
        self._ns = "broker" if upstream is None else "relay"
        label = "broker" if upstream is None else "relay:%s" % relay_id
        self._obs = SpanWriter(obs_path, label) if obs_path else None
        self._root: Optional[_Root] = None
        if upstream is None:
            self._root = _Root(self, max_inbox, max_entities, max_log)
        #: Relay-id chain from the root down to (and including) this
        #: node; set by the upstream handshake and handed to downstream
        #: nodes for loop refusal.  Empty at the root.
        self.path: Tuple[str, ...] = ()
        # -- local counters (the per-hop invariant surface) ------------------
        self.broadcasts_down = 0  # RelayBroadcast frames accepted (fresh)
        self.broadcast_deliveries = 0  # local entity copies fanned out
        self.relay_broadcasts_down = 0  # copies forwarded to downstream links
        self.unicast_down = 0  # NetDeliver frames routed downward
        self.forwarded_up = 0  # routed frames forwarded toward the root
        self.bounced_up = 0  # downward frames returned (stale binding)
        self.dupes_dropped = 0  # broadcast sequence ids refused
        self.slow_consumer_disconnects = 0
        self.dropped_total = 0  # frames discarded to hold a bound
        self.delivered_total = 0  # counted frames queued (down or offline)
        # -- connection state ------------------------------------------------
        self._up: Optional[FrameStream] = None
        self._up_task: Optional[asyncio.Task] = None
        self._metrics_task: Optional[asyncio.Task] = None
        #: Teardown tails of dropped connections (the loop holds tasks
        #: weakly, so they stay referenced here until done).
        self._closing: Set[asyncio.Task] = set()
        self._downs: Set[_Down] = set()
        #: Entity name -> downstream connection (direct, or the link
        #: below which it is attached).  At the root this *is* the global
        #: table of live names.
        self._bind: Dict[str, _Down] = {}
        #: Attach requests forwarded up, awaiting the root's verdict:
        #: entity -> FIFO of ("hello", (_Down, Future)) | ("link", _Down).
        #: The way up is FIFO, so replies pop in request order.
        self._pending: Dict[str, Deque[Tuple[str, object]]] = {}
        #: Highest broadcast sequence id accepted so far.
        self._high_water = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Join the tree upstream (if any), then bind the listener.

        Upstream first: a node that cannot reach (or is refused by) its
        upstream must fail fast rather than accept downstreams it can
        never serve.  Returns the (host, port) actually bound.
        """
        if self.upstream is not None:
            await self._join_upstream()
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        if self._up is not None:
            self._up_task = loop.create_task(self._upstream_loop())
        # The root has nowhere to push reports *to*: its rounds only
        # matter when there is a span log to mirror them into.
        pushes_or_logs = self._up is not None or self._obs is not None
        if self.metrics_interval > 0 and pushes_or_logs:
            self._metrics_task = loop.create_task(self._metrics_loop())
        where = "/".join(self.path)
        logger.info("%s /%s listening on %s:%d", self._ns, where, self.host, self.port)
        return self.host, self.port

    async def _join_upstream(self) -> None:
        cap = self.max_frame + ENVELOPE_OVERHEAD
        stream = await open_frame_stream(*self.upstream, cap)
        try:
            await _send(stream, RelayHello(relay_id=self.relay_id))
            frame = await asyncio.wait_for(stream.recv(), self.handshake_timeout)
            if frame is None:
                raise NetworkError("upstream closed during the relay handshake")
            welcome = decode_net_payload(*frame)
            if not isinstance(welcome, RelayWelcome):
                problem = "answered with %s" % type(welcome).__name__
            elif not welcome.ok:
                problem = "refused relay %r: %s" % (self.relay_id, welcome.reason)
            elif self.relay_id in welcome.path:
                # Loop refusal, connecting side: joining here would make
                # this node its own ancestor.
                problem = "relay loop refused: %r is already on the path %s" % (
                    self.relay_id,
                    "/".join(welcome.path),
                )
            elif len(welcome.path) >= MAX_RELAY_PATH:
                problem = "relay chain reached the %d-hop bound" % MAX_RELAY_PATH
            else:
                problem = None
            if problem is not None:
                raise NetworkError("upstream handshake: %s" % problem)
        except asyncio.TimeoutError:
            await stream.aclose()
            raise NetworkError(
                "upstream did not answer the relay handshake within %.1fs"
                % self.handshake_timeout
            )
        except BaseException:
            await stream.aclose()
            raise
        self._up = stream
        self.path = tuple(welcome.path) + (self.relay_id,)

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (a Shutdown frame at the root,
        upstream loss below it) then close."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.aclose()

    def shutdown(self) -> None:
        """Request a graceful stop (idempotent, callable from any task)."""
        self._shutdown.set()

    async def aclose(self) -> None:
        """Close the listener, the upstream link and every downstream."""
        self._shutdown.set()
        if self._metrics_task is not None:
            self._metrics_task.cancel()
            self._metrics_task = None
        if self._obs is not None:
            self._obs.metrics(self._metrics_snapshot())  # final flush
            self._obs.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._up_task is not None and self._up_task is not asyncio.current_task():
            self._up_task.cancel()
        if self._up is not None:
            await self._up.aclose()
        for down in list(self._downs):
            down.closed = True
            if down.sender_task is not None:
                down.sender_task.cancel()
            await down.stream.aclose()
        self._downs.clear()
        self._bind.clear()
        self._pending.clear()
        if self._closing:
            await asyncio.gather(*self._closing, return_exceptions=True)

    # -- the way up ------------------------------------------------------------

    async def _send_up(self, message: NetMessage, via: Optional[_Down] = None) -> bool:
        """Forward one frame toward the root authority.

        At the root that is an in-process call; below it, a socket whose
        loss ends this node (its subtree reconnects elsewhere).
        """
        if self._shutdown.is_set():
            return False
        if self._root is not None:
            await self._root.handle(message, via)
            return True
        try:
            await _send(self._up, message)
            return True
        except (NetworkError, ConnectionError, OSError) as exc:
            logger.warning("upstream send failed: %s", exc)
            self.shutdown()
            return False

    async def _ack_up(self, count: int) -> None:
        if count > 0 and self._root is None:
            await self._send_up(Ack(count=count))

    async def _upstream_loop(self) -> None:
        """Dispatch frames arriving from the root side."""
        try:
            while True:
                frame = await self._up.recv()
                if frame is None:
                    logger.info("upstream closed; %r shutting down", self.relay_id)
                    return
                message = decode_net_payload(*frame)
                if isinstance(message, NetDeliver):
                    await self._down_unicast(message)
                elif isinstance(message, RelayBroadcast):
                    await self._down_broadcast(message)
                elif isinstance(message, RelayAttachReply):
                    await self._attach_reply(message)
                elif isinstance(message, StatsReply):
                    await self._stats_reply_down(message)
                else:
                    raise SerializationError(
                        "upstream may not send %s" % type(message).__name__
                    )
        except (ReproError, ConnectionError, OSError) as exc:
            logger.warning("upstream link failed: %s", exc)
        finally:
            self.shutdown()

    # -- answers from above ----------------------------------------------------

    async def _down_unicast(self, message: NetDeliver, owed: bool = False) -> None:
        down = self._bind.get(message.receiver)
        if down is None:
            # Stale routing above (our RelayDetach raced this frame on the
            # other direction of the link): bounce it back up.  The
            # detach precedes this bounce on the FIFO way up, so the
            # root re-routes from fresh state -- into the entity's
            # offline inbox -- and no ping-pong loop can form.
            self.bounced_up += 1
            await self._send_up(message)
            await self._ack_up(1)
            return
        self.unicast_down += 1
        self._span("deliver", message, receiver=message.receiver)
        unit = _Unit()
        self._push(down, message, unit, owed)
        if unit.outstanding == 0:
            # Push refused (slow-consumer drop): the subtree is gone and
            # the unit is done as far as the upstream is concerned.
            await self._ack_up(1)

    async def _down_broadcast(self, message: RelayBroadcast) -> None:
        if message.seq <= self._high_water:
            # Per-hop dedup.  The root assigns ids monotonically, links
            # are FIFO and this node lives exactly as long as its one
            # upstream link, so a genuine id is always above everything
            # seen: at or below the high-water mark is a replay, a
            # re-route or a forgery.
            self.dupes_dropped += 1
            await self._ack_up(1)
            return
        self._high_water = message.seq
        self.broadcasts_down += 1
        self._span("broadcast", message, seq=message.seq)
        unit = _Unit()
        for down in list(self._downs):
            if down.kind == "relay":
                # One frame per downstream link, same sequence id: the
                # next hop dedups and fans out for its own subtree.
                if self._push(down, message, unit):
                    self.relay_broadcasts_down += 1
            elif down.name != message.sender:
                # (The origin never receives its own multicast.)
                copy = NetDeliver(
                    sender=message.sender,
                    receiver=down.name,
                    kind=message.kind,
                    note=message.note,
                    payload=message.payload,
                    trace=message.trace,
                )
                if self._push(down, copy, unit):
                    self.broadcast_deliveries += 1
        if unit.outstanding == 0:
            await self._ack_up(1)

    async def _attach_reply(self, message: RelayAttachReply) -> None:
        entity = message.entity
        queue = self._pending.get(entity)
        if not queue:
            # Nobody is waiting (the connection vanished mid-handshake).
            # If the root admitted the name it now believes the entity
            # lives here: undo, or the name would be wedged.
            if message.ok:
                await self._send_up(RelayDetach(entity=entity))
            return
        kind, waiter = queue.popleft()
        if not queue:
            del self._pending[entity]
        if kind == "link":
            link = waiter
            if link.closed:
                if message.ok:
                    await self._send_up(RelayDetach(entity=entity))
                return
            if message.ok:
                self._bind[entity] = link
                link.entities.add(entity)
            self._push(link, message)
            return
        # kind == "hello": a directly connecting entity's handshake.
        down, future = waiter
        dead = future.done() or down.closed  # timed out or already gone
        if message.ok and not dead:
            self._bind[entity] = down
            self._downs.add(down)
            down.sender_task = asyncio.get_running_loop().create_task(
                self._down_send_loop(down)
            )
            # Welcome goes through the same FIFO queue as the deliveries
            # the root flushes right behind its reply, so the entity sees
            # Welcome first.
            self._push(down, Welcome(ok=True, entity=entity))
            logger.info("entity %r attached at /%s", entity, "/".join(self.path))
        elif message.ok and dead:
            await self._send_up(RelayDetach(entity=entity))
        if not future.done():
            future.set_result(message)

    async def _stats_reply_down(self, reply: StatsReply) -> None:
        down = self._bind.get(reply.entity)
        if down is not None:  # else raced a detach; nobody is waiting
            self._push(down, reply)

    # -- downstream connections ------------------------------------------------

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Envelope headroom: an application frame at exactly max_frame must
        # survive NetDeliver wrapping; the routed payload itself is bounded
        # separately in _require_payload.
        stream = FrameStream(reader, writer, self.max_frame + ENVELOPE_OVERHEAD)
        down: Optional[_Down] = None
        try:
            first = await asyncio.wait_for(stream.recv(), self.handshake_timeout)
            if first is None:
                return  # connected and left; not an error
            message = decode_net_payload(*first)
            if isinstance(message, Hello):
                down = await self._entity_handshake(stream, message)
            elif isinstance(message, RelayHello):
                down = await self._relay_handshake(stream, message)
            elif isinstance(message, StatsRequest):
                await self._monitor_loop(stream, message)
            else:
                raise SerializationError(
                    "first frame must be Hello, RelayHello or StatsRequest, got %s"
                    % type(message).__name__
                )
            if down is not None:
                await self._read_loop(down)
        except asyncio.TimeoutError:
            peer = stream.peername()
            logger.warning("dropping connection %s: no handshake in time", peer)
        except (ReproError, ConnectionError, OSError) as exc:
            # Hostile/garbage input or a vanished peer: drop this
            # connection, never the node.
            who = "pre-hello" if down is None else "%s %s" % (down.kind, down.name)
            logger.warning(
                "dropping connection %s (%s): %s", stream.peername(), who, exc
            )
        finally:
            if down is not None:
                self._drop_down(down, "connection closed")
            await stream.aclose()

    async def _entity_handshake(
        self, stream: FrameStream, hello: Hello
    ) -> Optional[_Down]:
        """Forward the Hello up as RelayAttach; the root decides.

        Only malformed names are refused locally -- admission stays a
        single-authority decision so an entity cannot bypass
        spoof-on-connect by picking a different attach point.
        """
        entity = hello.entity

        async def refuse(reason: str) -> None:
            logger.warning("refusing hello from %s: %s", stream.peername(), reason)
            name = entity[:MAX_NAME_LEN]
            await _send(stream, Welcome(ok=False, entity=name, reason=reason))

        refusal = _name_refusal("entity name", entity)
        if refusal is not None:
            await refuse(refusal)
            return None
        down = _Down("entity", entity, stream)
        future = asyncio.get_running_loop().create_future()
        self._pending.setdefault(entity, deque()).append(("hello", (down, future)))
        if not await self._send_up(RelayAttach(entity=entity)):
            down.closed = True
            await refuse("upstream unavailable")
            return None
        try:
            reply = await asyncio.wait_for(future, self.handshake_timeout)
        except asyncio.TimeoutError:
            down.closed = True  # _attach_reply will detach if ok arrives late
            await refuse("attach timed out")
            return None
        if not reply.ok:
            await refuse(reply.reason)
            return None
        # _attach_reply already bound us, started the send loop and
        # queued the Welcome ahead of any flushed backlog.
        return down

    async def _relay_handshake(
        self, stream: FrameStream, hello: RelayHello
    ) -> Optional[_Down]:
        relay_id = hello.relay_id
        path = "/".join(self.path)
        if relay_id in self.path:
            # Loop refusal, accepting side: the connecting node is an
            # ancestor of (or is) this node.
            refusal = "relay loop refused: %r is on the path %s" % (relay_id, path)
        elif any(d.kind == "relay" and d.name == relay_id for d in self._downs):
            refusal = "relay %r is already connected" % relay_id
        elif len(self.path) >= MAX_RELAY_PATH:
            refusal = "relay chain reached the %d-hop bound" % MAX_RELAY_PATH
        elif self._count_downs("relay") >= self.max_relays:
            refusal = "relay bound (%d) reached" % self.max_relays
        else:
            refusal = _name_refusal("relay id", relay_id)
        if refusal is not None:
            logger.warning(
                "refusing relay hello from %s: %s", stream.peername(), refusal
            )
            name = relay_id[:MAX_NAME_LEN]
            await _send(stream, RelayWelcome(ok=False, relay_id=name, reason=refusal))
            return None
        down = _Down("relay", relay_id, stream)
        self._downs.add(down)
        down.sender_task = asyncio.get_running_loop().create_task(
            self._down_send_loop(down)
        )
        # The connecting node appends itself to this path to form the one
        # it hands its own downstreams.
        self._push(down, RelayWelcome(ok=True, relay_id=relay_id, path=self.path))
        self._count("relay.connect")
        if self._root is not None and self._obs is not None:
            self._obs.span("relay_connect", relay=relay_id)  # root-only, as above
        logger.info("relay %r connected below /%s", relay_id, path)
        return down

    async def _read_loop(self, down: _Down) -> None:
        """Forward what one downstream connection sends up.

        The sender-spoof rule is one rule: a connection may only speak
        *for* names bound through it -- an entity for itself, a link for
        the entities attached below it.  The one exception is a
        ``NetDeliver`` from a link, forwarded whatever its sender: it is
        either legitimate up-traffic or a bounce returning behind its
        ``RelayDetach``, and the root, holding the authoritative table,
        tells them apart.
        """
        link = down.kind == "relay"
        while True:
            frame = await down.stream.recv()
            if frame is None:
                return
            message = decode_net_payload(*frame)
            if isinstance(message, (NetDeliver, NetBroadcast)):
                if not (link and isinstance(message, NetDeliver)):
                    self._require_sender(down, message.sender)
                self._require_payload(message.payload)
                self.forwarded_up += 1
                await self._send_up(message, down)
            elif isinstance(message, Ack):
                await self._ack_up(self._release(down, message.count))
            elif isinstance(message, Shutdown):
                # The root decides; its shutdown cascades back down as
                # upstream EOF on every node.
                logger.info("shutdown requested via %s %r", down.kind, down.name)
                await self._send_up(message)
            elif isinstance(message, StatsRequest):
                # Answered by the root, so introspection is attach-point
                # blind.  The first hop stamps the asker's name for the
                # way back; every hop above holds it to the sender rule.
                if not link and not message.entity:
                    message = dataclasses.replace(message, entity=down.name)
                self._require_sender(down, message.entity)
                await self._send_up(message)
            elif link and isinstance(message, RelayAttach):
                entity = message.entity
                refusal = _name_refusal("entity name", entity)
                if refusal is None:
                    self._pending.setdefault(entity, deque()).append(("link", down))
                    await self._send_up(message)
                else:
                    name = entity[:MAX_NAME_LEN]
                    self._push(down, RelayAttachReply(False, name, refusal))
            elif link and isinstance(message, RelayDetach):
                if self._bind.get(message.entity) is down:
                    del self._bind[message.entity]
                    down.entities.discard(message.entity)
                await self._send_up(message)
            elif link and isinstance(message, StatsReply) and not message.entity:
                # Periodic push from the downstream node: kept (not
                # forwarded as-is) -- our own snapshot merges it in, so
                # reports aggregate hop by hop toward the root.  A blob
                # over the cap or malformed costs the report, never the
                # link: telemetry must not be able to cut the data path.
                try:
                    down.last_metrics = snapshot_from_json(message.metrics)
                    self._count("relay.metrics_reports")
                except SerializationError as exc:
                    logger.warning("refusing report from relay %r: %s", down.name, exc)
            else:
                # Including RelayBroadcast, or a StatsReply addressed to
                # an entity, from a link: both only ever travel
                # downstream; from below they are forged injections (or a
                # loop the handshake should have refused).
                raise SerializationError(
                    "%s %r may not send %s"
                    % (down.kind, down.name, type(message).__name__)
                )

    async def _monitor_loop(self, stream: FrameStream, message: NetMessage) -> None:
        """Serve a monitor: local counters only, never the name table or
        the quiescence state, so probing a node cannot disturb either."""
        while True:
            # (The sender rule again: no name is bound through a monitor.)
            if not isinstance(message, StatsRequest) or message.entity:
                raise SerializationError(
                    "monitor connection may only send an unaddressed StatsRequest"
                )
            await _send(stream, self._answer(message))
            frame = await stream.recv()
            if frame is None:
                return
            message = decode_net_payload(*frame)

    def _require_sender(self, down: _Down, name: str) -> None:
        if self._bind.get(name) is not down:
            raise SerializationError(
                "%s %r tried to send as %r" % (down.kind, down.name, name)
            )

    def _require_payload(self, payload: bytes) -> None:
        """The *routed* frame must fit ``max_frame`` on its own, so every
        admitted delivery survives re-wrapping toward any receiver name."""
        if len(payload) > self.max_frame:
            raise SerializationError(
                "routed payload of %d bytes exceeds the %d-byte cap"
                % (len(payload), self.max_frame)
            )

    # -- push / ack bookkeeping ------------------------------------------------

    def _push(
        self,
        down: _Down,
        message: NetMessage,
        unit: Optional[_Unit] = None,
        owed: bool = False,
    ) -> bool:
        """Queue one frame downstream, enforcing the backlog bound.

        ``unit`` marks a counted frame; ``owed`` one that some other
        bound already held for this peer, which is exempt from this one.
        Never yields to the event loop: a fan-out is queued on every
        connection before any other task can queue behind it.
        """
        if down.closed:
            return False
        if len(down.outbound) >= self.max_backlog and not owed:
            self.slow_consumer_disconnects += 1
            self._drop_down(down, "backlog over %d frames" % self.max_backlog)
            return False
        if unit is not None:
            unit.outstanding += 1
            down.tokens.append(unit)
            if not owed:  # (an owed frame was counted when first held)
                self.delivered_total += 1
        down.outbound.append((message, unit is not None))
        down.wake.set()
        return True

    def _release(self, down: _Down, count: int) -> int:
        """Pop ``count`` tokens (a downstream Ack, or a drop); returns how
        many units that completed, for the caller to ack upstream."""
        done = 0
        for _ in range(min(count, len(down.tokens))):
            unit = down.tokens.popleft()
            unit.outstanding -= 1
            if unit.outstanding == 0:
                done += 1
        return done

    def _drop_down(self, down: _Down, reason: str) -> None:
        """Tear one downstream connection out of every table.

        The subtree behind it is gone: its names detach upstream and all
        its unacked tokens count as done (at-most-once delivery), so the
        in-flight accounting above drains instead of wedging.  The table
        surgery is synchronous; reporting upward and closing the socket
        finish in a background tail.
        """
        if down.closed:
            return
        down.closed = True
        self._downs.discard(down)
        if down.sender_task not in (None, asyncio.current_task()):
            # A send in progress may be partially written (at-most-once:
            # that frame is forgotten); the queue behind it was never
            # touched and is accounted below.
            down.sender_task.cancel()
        members = [down.name] if down.kind == "entity" else sorted(down.entities)
        names = [name for name in members if self._bind.get(name) is down]
        for name in names:
            del self._bind[name]
        down.entities.clear()
        unsent = [message for message, counted in down.outbound if counted]
        down.outbound.clear()
        if self._root is not None and down.kind == "entity" and names:
            # Never sent, and the authority is right here: back to the
            # entity's offline inbox for its reconnect to drain.
            self._root.park(down.name, unsent)
        else:
            self.dropped_total += len(unsent)
        done = self._release(down, len(down.tokens))
        self._count("disconnect" if down.kind == "entity" else "relay.drop")
        tail = self._finish_drop(down, names, done)
        task = asyncio.get_running_loop().create_task(tail)
        self._closing.add(task)
        task.add_done_callback(self._closing.discard)
        logger.info("dropped downstream %s %r: %s", down.kind, down.name, reason)

    async def _finish_drop(self, down: _Down, names: List[str], done: int) -> None:
        # Detach before anything else: a frame routed down for one of
        # these names meanwhile bounces, and the bounce must find the
        # RelayDetach ahead of it on the FIFO way up.
        for name in names:
            await self._send_up(RelayDetach(entity=name))
        await self._ack_up(done)
        await down.stream.aclose()

    async def _down_send_loop(self, down: _Down) -> None:
        """Drain one downstream connection's outbound queue in order.

        ``send`` awaits ``drain()``, so a slow consumer backpressures this
        task while its queue absorbs (bounded) backlog.
        """
        while True:
            await down.wake.wait()
            down.wake.clear()
            while down.outbound:
                item = down.outbound.popleft()
                try:
                    await _send(down.stream, item[0])
                except SerializationError:
                    # Token FIFOs cannot survive a skipped counted frame
                    # (acks would misalign), and an envelope over the cap
                    # here means something above already violated its
                    # bounds: drop the connection, not just the frame.
                    self._drop_down(down, "undeliverable frame (over the cap)")
                    return
                except (NetworkError, ConnectionError, OSError):
                    # Never transmitted: it stays with the unsent
                    # remainder for the drop path (the read loop observes
                    # the close) to account.
                    down.outbound.appendleft(item)
                    return

    # -- metrics and stats -----------------------------------------------------

    def _count(self, name: str) -> None:
        self.metrics.inc("%s.%s" % (self._ns, name))

    def _span(self, event: str, message: NetMessage, **fields) -> None:
        """One hop record of a routed frame (labels and size, never bytes)."""
        if self._obs is not None:
            fields.update(sender=message.sender, kind=message.kind)
            self._obs.span(event, message.trace, size=len(message.payload), **fields)

    def _count_downs(self, kind: str) -> int:
        return sum(1 for d in self._downs if d.kind == kind)

    def _in_flight(self) -> int:
        return sum(len(d.tokens) for d in self._downs)

    def local_stats(self) -> StatsReply:
        """This hop's own counters (the per-hop invariant surface).

        Deliberately *not* the root's accounting: no log -- a relay
        keeps none, which is the point.
        """
        return StatsReply(
            pending=sum(len(d.outbound) for d in self._downs),
            in_flight=self._in_flight(),
            delivered_total=self.delivered_total,
            dropped=self.dropped_total,
            log_complete=True,
            log=(),
            counters=(
                ("depth", len(self.path)),
                ("entities_attached", self._count_downs("entity")),
                ("downstream_relays", self._count_downs("relay")),
                ("bound_names", len(self._bind)),
                ("broadcasts_down", self.broadcasts_down),
                ("broadcast_deliveries", self.broadcast_deliveries),
                ("unicast_down", self.unicast_down),
                ("forwarded_up", self.forwarded_up),
                ("bounced_up", self.bounced_up),
                ("dupes_dropped", self.dupes_dropped),
                ("slow_consumer_disconnects", self.slow_consumer_disconnects),
            ),
        )

    def _metrics_snapshot(self) -> dict:
        """This node's subtree aggregate: own registry + the last report
        pushed by every downstream link.

        The stats reply of the node's role -- the root authority's, or
        this hop's local one -- folds in as gauges at snapshot time (one
        source of truth; no double bookkeeping on the hot path).  Gauges
        *sum* under the merge, so at the root ``relay.forwarded_up`` reads
        as the whole tree's forwarding work and ``relay.nodes`` as the
        relay population -- which is why the root reports under
        ``broker.*`` and a hop's ``depth`` is left out.
        """
        if self._root is not None:
            stats = self._root.stats(include_log=False)
            gauges = dict(stats.counters)
        else:
            stats = self.local_stats()
            gauges = dict(stats.counters, nodes=1)
            del gauges["depth"]
        gauges.update(
            pending=stats.pending,
            in_flight=stats.in_flight,
            delivered_total=stats.delivered_total,
            dropped_total=stats.dropped,
        )
        for name, value in gauges.items():
            self.metrics.set_gauge("%s.%s" % (self._ns, name), value)
        reports = [d.last_metrics for d in self._downs if d.last_metrics is not None]
        return merge_snapshots([self.metrics.snapshot()] + reports)

    def _answer(self, request: StatsRequest) -> StatsReply:
        """Every ``StatsReply`` this node sends is built here.

        An attached entity (``request.entity``, stamped by its first hop
        and only ever answered at the root) gets the root authority's
        view; a monitor, or this node's own upstream push, this hop's.
        ``metrics`` adds the subtree aggregate to either.
        """
        blob = snapshot_to_json(self._metrics_snapshot()) if request.metrics else b""
        if request.entity:
            reply = self._root.stats(request.include_log, reserve=len(blob))
        else:
            reply = self.local_stats()
        return dataclasses.replace(
            reply, entity=request.entity, metrics=blob, trace=request.trace
        )

    async def _metrics_loop(self) -> None:
        """Every ``metrics_interval`` seconds: mirror the subtree aggregate
        into the local span log (if any) and push it upstream (if any)."""
        while True:
            await asyncio.sleep(self.metrics_interval)
            if self._obs is not None:
                self._obs.metrics(self._metrics_snapshot())
            if self._up is not None:
                self._count("metrics_pushes")
                await self._send_up(self._answer(StatsRequest(metrics=True)))


def request_local_stats(
    host: str,
    port: int,
    timeout: float = 10.0,
    max_frame: int = DEFAULT_MAX_FRAME_PAYLOAD,
    metrics: bool = False,
) -> StatsReply:
    """Synchronously fetch one node's local counters (and, with
    ``metrics``, its subtree aggregate) on a throwaway connection.

    The request is the connection's *first* frame -- the node's monitor
    path -- so sampling a hop never registers a name or perturbs
    quiescence accounting.  Usable from any thread (plain sockets, no
    asyncio).
    """
    where = "%s:%d" % (host, port)
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            sock.sendall(StatsRequest(metrics=metrics).encode())
            decoder = FrameDecoder(max_frame + ENVELOPE_OVERHEAD)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    raise NetworkError("node %s closed before replying" % where)
                frames = decoder.feed(chunk)
                if frames:
                    message = decode_net_payload(*frames[0])
                    if not isinstance(message, StatsReply):
                        raise NetworkError(
                            "node monitor answered with %s" % type(message).__name__
                        )
                    return message
    except (ConnectionError, OSError, socket.timeout) as exc:
        raise NetworkError("monitor probe to %s failed: %s" % (where, exc)) from exc


def request_local_metrics(
    host: str,
    port: int,
    timeout: float = 10.0,
    max_frame: int = DEFAULT_MAX_FRAME_PAYLOAD,
) -> dict:
    """One node's subtree aggregate as the decoded snapshot dict."""
    reply = request_local_stats(host, port, timeout, max_frame, metrics=True)
    return snapshot_from_json(reply.metrics)


# -- CLI ---------------------------------------------------------------------


async def _amain(args: argparse.Namespace, relay: bool) -> int:
    node_kw = dict(
        max_frame=args.max_frame,
        handshake_timeout=args.handshake_timeout,
        max_backlog=args.max_backlog,
        metrics_interval=args.metrics_interval,
        obs_path=os.path.join(args.obs_dir, "obs.jsonl") if args.obs_dir else None,
    )
    if relay:
        node_kw.update(relay_id=args.relay_id, upstream=parse_endpoint(args.upstream))
    else:
        node_kw.update(
            max_inbox=args.max_inbox,
            max_entities=args.max_entities,
            max_relays=args.max_relays,
        )
    node = Node(args.host, args.port, **node_kw)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, node.shutdown)
    try:
        host, port = await node.start()
    except NetworkError as exc:
        print("failed to start: %s" % exc, file=sys.stderr, flush=True)
        return 1
    if args.port_file:
        write_port_file(args.port_file, host, port)
    # Machine-parseable: supervisors and tests chain processes off this
    # line (essential with --port 0).
    print("ENDPOINT %s:%d" % (host, port), flush=True)
    try:
        await node.serve_forever()
    finally:
        await node.aclose()
    return 0


def main(argv=None, *, relay: bool = False) -> int:
    """The ``python -m repro.net.broker`` / ``repro.net.relay`` entry
    point; ``relay`` says which of the two was invoked (a relay *must*
    name its upstream, the root cannot have one)."""
    name = "relay" if relay else "broker"
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.%s" % name,
        description="Run %s node of the keyless forwarding tree."
        % ("one relay" if relay else "the root (broker)"),
    )
    if relay:
        parser.add_argument("--relay-id", required=True, help="unique id in the tree")
        parser.add_argument(
            "--upstream", required=True, metavar="HOST:PORT", help="the node to join"
        )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral; see --port-file)"
    )
    parser.add_argument("--port-file", help="write the bound host:port here")
    cap = DEFAULT_MAX_FRAME_PAYLOAD
    parser.add_argument("--max-frame", type=int, default=cap, help="frame payload cap")
    if not relay:
        parser.add_argument(
            "--max-inbox", type=int, default=10_000, help="offline inbox bound (frames)"
        )
        parser.add_argument(
            "--max-entities", type=int, default=10_000, help="distinct entity names"
        )
        parser.add_argument(
            "--max-relays", type=int, default=256, help="downstream relay link bound"
        )
    parser.add_argument(
        "--handshake-timeout", type=float, default=10.0, help="seconds to handshake"
    )
    parser.add_argument(
        "--max-backlog", type=int, default=10_000, help="slow-consumer queue bound"
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=0.0,
        help="seconds between metrics rounds: an obs.jsonl record (with "
        "--obs-dir) and, on a relay, a subtree report pushed upstream (0 = off)",
    )
    parser.add_argument("--obs-dir", help="directory for the obs.jsonl span log")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return asyncio.run(_amain(args, relay))
    except KeyboardInterrupt:
        return 0
