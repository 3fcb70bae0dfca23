"""``TcpTransport``: the socket backend for the ``Transport`` protocol.

The session/endpoint layer (:mod:`repro.system.service`) is synchronous
and poll-driven; the network is asyncio.  This class bridges the two: it
owns a background event-loop thread, one broker connection per locally
registered entity, and a local FIFO inbox per entity that the reader
tasks fill as ``NetDeliver`` frames arrive.  The five ``Transport``
methods then behave exactly like ``InMemoryTransport``'s, so
``DisseminationService`` / ``SubscriberClient`` /
``IdentityManagerEndpoint`` run unchanged over real sockets.

Delivery acknowledgement (for broker-side quiescence detection) is
*lazy*: deliveries handed out by ``poll`` are acked at the **next** call
into the transport for that entity, i.e. only after the endpoint's pump
has processed the batch and sent whatever replies it produced.  TCP's
per-connection ordering then guarantees the broker sees the replies
before the ack, so ``pending == in_flight == 0`` at the broker really
means nothing is queued, in transit, or being processed anywhere.

Accounting stays broker-side (it is the audit log of what the network
actually carried); :meth:`stats` fetches it and :meth:`snapshot` replays
it into an ``InMemoryTransport`` so tests and benchmarks can query
``bytes_between`` etc. identically for both backends.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import queue
import threading
import time
import warnings
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import NetworkError, SerializationError
from repro.net.protocol import (
    ENVELOPE_OVERHEAD,
    Ack,
    Hello,
    NetBroadcast,
    NetDeliver,
    NetMessage,
    Shutdown,
    StatsReply,
    StatsRequest,
    Welcome,
    decode_net_payload,
)
from repro.net.stream import FrameStream, open_frame_stream
from repro.obs.metrics import get_registry, snapshot_from_json
from repro.obs.trace import current_trace
from repro.system.transport import Delivery, InMemoryTransport
from repro.wire.codec import DEFAULT_MAX_FRAME_PAYLOAD

__all__ = ["TcpTransport"]


class _EntityConn:
    """One entity's connection: stream, local inbox, ack bookkeeping."""

    __slots__ = ("entity", "stream", "inbox", "owed_acks", "ack_exempt",
                 "reader", "stats_q", "alive", "error")

    def __init__(self, entity: str, stream: FrameStream):
        self.entity = entity
        self.stream = stream
        #: Arrived-but-unpolled deliveries.  Appended from the loop thread,
        #: popped from the caller thread (deque ops are atomic).
        self.inbox: Deque[Delivery] = deque()
        #: Deliveries handed out by poll() but not yet acked to the broker.
        self.owed_acks = 0
        #: Inbox-front deliveries carried over from a dead predecessor
        #: connection: the broker already wrote their in_flight off at
        #: disconnect, so acking them against this connection would
        #: over-ack and fake quiescence while real pushes are unprocessed.
        self.ack_exempt = 0
        self.reader: Optional[asyncio.Task] = None
        self.stats_q: "queue.Queue[StatsReply]" = queue.Queue()
        self.alive = True
        self.error: Optional[str] = None


class TcpTransport:
    """A synchronous ``Transport`` speaking to a root :class:`~repro.net.node.Node`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_frame: int = DEFAULT_MAX_FRAME_PAYLOAD,
        timeout: float = 10.0,
    ):
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.timeout = timeout
        self._conns: Dict[str, _EntityConn] = {}
        #: Per-entity attach point overriding the root endpoint: entities
        #: assigned to a relay of the federation tree connect there
        #: instead (same Hello/Welcome handshake; the relay forwards the
        #: admission decision to the root).
        self._attach: Dict[str, Tuple[str, int]] = {}
        self._entity_locks: Dict[str, threading.Lock] = {}
        self._reconnect_at: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="TcpTransport(%s:%d)" % (host, port),
            daemon=True,
        )
        self._thread.start()

    # -- plumbing ------------------------------------------------------------

    def _run(self, coro):
        """Run a coroutine on the loop thread, synchronously."""
        if self._closed:
            coro.close()
            raise NetworkError("transport is closed")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(self.timeout)
        except concurrent.futures.TimeoutError as exc:
            # (An alias of the builtin TimeoutError only from 3.11 on --
            # catch the concurrent.futures name, which is correct on every
            # supported version.)
            future.cancel()
            raise NetworkError(
                "broker %s:%d did not respond within %.1fs"
                % (self.host, self.port, self.timeout)
            ) from exc

    async def _send(self, conn: _EntityConn, message: NetMessage) -> None:
        if not conn.alive:
            raise NetworkError(
                "connection for %r is down: %s" % (conn.entity, conn.error)
            )
        await conn.stream.send(message.TYPE_ID, message.payload_bytes())

    async def _connect(self, entity: str) -> _EntityConn:
        host, port = self._attach.get(entity, (self.host, self.port))
        # Headroom mirrors the broker's: envelopes may exceed max_frame by
        # their routing fields; routed payloads may not exceed it at all.
        stream = await open_frame_stream(
            host, port, self.max_frame + ENVELOPE_OVERHEAD
        )
        try:
            await stream.send(Hello.TYPE_ID, Hello(entity=entity).payload_bytes())
            frame = await stream.recv()
            if frame is None:
                raise NetworkError("broker closed the connection during handshake")
            welcome = decode_net_payload(*frame)
            if not isinstance(welcome, Welcome):
                raise NetworkError(
                    "expected Welcome, got %s" % type(welcome).__name__
                )
            if not welcome.ok:
                raise NetworkError(
                    "broker refused entity %r: %s" % (entity, welcome.reason)
                )
        except Exception as exc:
            # Never leak the half-open socket, whatever failed; and keep
            # register()'s contract of raising NetworkError only.
            await stream.aclose()
            if isinstance(exc, NetworkError):
                raise
            raise NetworkError("broker handshake failed: %s" % exc) from exc
        conn = _EntityConn(entity, stream)
        conn.reader = asyncio.get_running_loop().create_task(self._read_loop(conn))
        get_registry().inc("net.transport.connect")
        return conn

    async def _read_loop(self, conn: _EntityConn) -> None:
        try:
            while True:
                frame = await conn.stream.recv()
                if frame is None:
                    conn.error = "broker closed the connection"
                    return
                message = decode_net_payload(*frame)
                if isinstance(message, NetDeliver):
                    conn.inbox.append(
                        Delivery(
                            sender=message.sender,
                            receiver=message.receiver,
                            kind=message.kind,
                            payload=message.payload,
                            note=message.note,
                            trace=message.trace if any(message.trace) else b"",
                        )
                    )
                elif isinstance(message, StatsReply):
                    conn.stats_q.put(message)
                else:
                    conn.error = "unexpected %s from broker" % type(message).__name__
                    return
        except (SerializationError, NetworkError, ConnectionError, OSError) as exc:
            conn.error = str(exc)
        finally:
            conn.alive = False
            # Close our half too, or the broker would keep the name bound
            # and keep pushing frames into a socket nobody reads.
            await conn.stream.aclose()

    def _conn(self, entity: str) -> _EntityConn:
        conn = self._conns.get(entity)
        if conn is None:
            raise NetworkError("entity %r is not registered on this transport"
                               % entity)
        return conn

    def _flush_acks(self, conn: _EntityConn) -> None:
        """Ack previously polled (now processed) deliveries.

        Only called from points where the batch a previous ``poll`` handed
        out is known to be fully processed -- the next ``poll`` for the
        entity, or an explicit :meth:`flush_acks` between pump rounds --
        so the ack always trails the replies the processing produced, and
        the broker's ``in_flight`` stays above zero for as long as any
        endpoint is still chewing on a delivery.
        """
        if conn.owed_acks > 0 and conn.alive:
            owed, conn.owed_acks = conn.owed_acks, 0
            self._run(self._send(conn, Ack(count=owed)))

    def flush_acks(self) -> None:
        """Ack processed deliveries for every local entity.

        Callers invoke this between pump rounds (when nothing polled is
        still in processing); :func:`repro.net.runtime.wait_until_quiet`
        does it on every probe so idle entities do not hold the broker's
        ``in_flight`` count up forever.
        """
        for conn in list(self._conns.values()):
            self._flush_acks(conn)

    def _coerce_payload(self, payload) -> bytes:
        """Bytes-only like the in-memory router, plus the frame-size cap
        (checked here, before any socket write, for a precise error)."""
        payload = InMemoryTransport._coerce_payload(payload)
        if len(payload) > self.max_frame:
            raise SerializationError(
                "payload of %d bytes exceeds the transport's %d-byte frame cap"
                % (len(payload), self.max_frame)
            )
        return payload

    # -- the Transport protocol ----------------------------------------------

    def register(self, entity: str) -> None:
        """Connect ``entity`` to the broker (idempotent).

        A dead connection (broker restart, TCP blip, hostile-frame drop)
        is replaced by a fresh one, draining the broker-held backlog the
        way the broker's reconnect semantics promise; locally arrived but
        unpolled deliveries carry over.  Raises :class:`NetworkError` if
        the broker refuses the name -- e.g. a live connection elsewhere
        already holds it (spoof-on-connect).
        """
        # One lock per entity: concurrent registers of the same name
        # serialize (the loser finds the winner's connection and returns)
        # while the global lock is never held across the network
        # round-trip, so other entities' traffic cannot stall on it.
        with self._lock:
            entity_lock = self._entity_locks.setdefault(entity, threading.Lock())
        with entity_lock:
            with self._lock:
                existing = self._conns.get(entity)
            if existing is not None and existing.alive:
                return
            # The dead entry stays in _conns until the replacement exists:
            # a failed reconnect must leave the entity registered (so the
            # next poll retries) and its unpolled inbox intact.
            conn = self._run(self._connect(entity))
            if existing is not None:
                # Frames that reached the old connection but were never
                # polled are still valid deliveries, and they predate
                # whatever backlog the new connection is already pulling
                # in -- so they go to the *front*.  The acks they owed
                # died with the broker-side connection state, so they must
                # NOT be acked against the new one (ack_exempt).
                conn.inbox.extendleft(reversed(existing.inbox))
                conn.ack_exempt = existing.ack_exempt + len(existing.inbox)
            with self._lock:
                self._conns[entity] = conn

    def deliver(
        self, sender: str, receiver: str, kind: str, payload: bytes, note: str = ""
    ) -> None:
        """Send one frame to ``receiver`` via the broker."""
        payload = self._coerce_payload(payload)
        self.register(sender)
        self._run(
            self._send(
                self._conn(sender),
                NetDeliver(
                    sender=sender, receiver=receiver, kind=kind,
                    note=note, payload=payload, trace=current_trace(),
                ),
            )
        )

    def broadcast(self, sender: str, kind: str, payload: bytes, note: str = "") -> None:
        """One multicast: fan-out and single-transmission accounting happen
        broker-side."""
        payload = self._coerce_payload(payload)
        self.register(sender)
        self._run(
            self._send(
                self._conn(sender),
                NetBroadcast(sender=sender, kind=kind, note=note,
                             payload=payload, trace=current_trace()),
            )
        )

    def _reconnect_if_due(self, entity: str) -> Optional[_EntityConn]:
        """Try to replace a dead connection, at most once a second.

        A receive-only endpoint (a subscriber waiting for broadcasts)
        never calls the send path where register() would otherwise repair
        a dropped connection, so poll() must drive recovery itself.
        """
        now = time.monotonic()
        with self._lock:
            if now < self._reconnect_at.get(entity, 0.0):
                return None
            self._reconnect_at[entity] = now + 1.0
        try:
            self.register(entity)
        except NetworkError:
            return None  # broker still away; the backoff stands
        get_registry().inc("net.transport.reconnect")
        with self._lock:
            self._reconnect_at.pop(entity, None)
            return self._conns.get(entity)

    def poll(self, entity: str, limit: Optional[int] = None) -> List[Delivery]:
        """Drain deliveries that have *arrived* for ``entity`` (FIFO).

        Non-blocking, like the in-memory router: frames still in the
        broker or on the wire are simply not here yet.  A dead connection
        is (rate-limitedly) reconnected so the broker-held backlog flows
        again.  Also flushes the ack for the previous batch (see the
        module docstring).
        """
        conn = self._conns.get(entity)
        if conn is None:
            return []
        if not conn.alive:
            conn = self._reconnect_if_due(entity) or conn
        self._flush_acks(conn)
        drained: List[Delivery] = []
        while conn.inbox and (limit is None or len(drained) < limit):
            drained.append(conn.inbox.popleft())
        # Carried-over deliveries sit at the inbox front, so they are
        # exactly the first `ack_exempt` items drained.
        exempt = min(len(drained), conn.ack_exempt)
        conn.ack_exempt -= exempt
        conn.owed_acks += len(drained) - exempt
        return drained

    def requeue(self, entity: str, deliveries: List[Delivery]) -> None:
        """Push polled-but-unprocessed deliveries back to the inbox front.

        They will be handed out (and eventually acked) again, so the ack
        debt they carried is cancelled here; any shortfall (items that
        were ack-exempt when polled) returns to the exemption pool so the
        re-poll cannot over-ack.
        """
        conn = self._conn(entity)
        conn.inbox.extendleft(reversed(deliveries))
        from_owed = min(len(deliveries), conn.owed_acks)
        conn.owed_acks -= from_owed
        conn.ack_exempt += len(deliveries) - from_owed

    # -- beyond the protocol: introspection and control ----------------------

    def set_attach_point(self, entity: str, host: str, port: int) -> None:
        """Route ``entity``'s connection to a relay instead of the root.

        Must be called before the entity's first :meth:`register` (a
        live connection is not migrated -- reconnects after a disconnect
        do use the new endpoint).  The entity's behaviour is otherwise
        identical: admission, routing and accounting stay root decisions,
        the relay tier only fans bytes out.
        """
        with self._lock:
            self._attach[entity] = (host, port)

    def disconnect(self, entity: str) -> None:
        """Close one entity's broker connection and forget it locally.

        This is the load engine's "flap" kill step: the broker observes a
        clean disconnect, frees the name for a future Hello and keeps
        queueing broadcasts into the entity's (bounded) broker-side
        inbox; a later :meth:`register` reconnects and drains that
        backlog.  Unpolled local deliveries and owed acks are dropped
        with the connection -- exactly the state a killed process loses.
        No-op for an unregistered name.
        """
        with self._lock:
            entity_lock = self._entity_locks.setdefault(entity, threading.Lock())
        with entity_lock:
            with self._lock:
                conn = self._conns.pop(entity, None)
                self._reconnect_at.pop(entity, None)
            if conn is not None:
                self._teardown(conn)

    def _teardown(self, conn: _EntityConn) -> None:
        """Stop one connection's reader and close its socket."""
        if conn.reader is not None:
            self._loop.call_soon_threadsafe(conn.reader.cancel)
        try:
            asyncio.run_coroutine_threadsafe(
                conn.stream.aclose(), self._loop
            ).result(self.timeout)
        except (concurrent.futures.TimeoutError, concurrent.futures.CancelledError):
            pass  # best-effort: the reader's teardown also closes it

    def entities(self) -> List[str]:
        """Locally registered entity names."""
        return sorted(self._conns)

    def pending(self, entity: Optional[str] = None) -> int:
        """Locally arrived-but-unpolled deliveries (not broker state)."""
        if entity is not None:
            conn = self._conns.get(entity)
            return len(conn.inbox) if conn else 0
        return sum(len(conn.inbox) for conn in self._conns.values())

    def stats(
        self,
        include_log: bool = False,
        via: Optional[str] = None,
        metrics: bool = False,
    ) -> StatsReply:
        """Fetch the root's routing/accounting state.

        ``via`` names the entity whose connection carries the request
        (default: any registered entity); the root answers whatever the
        entity's attach point.  ``metrics`` adds the root's metrics
        snapshot to the reply.  A reply whose accounting log
        was truncated to fit one frame (``log_complete=False``) is still
        returned -- the counters are exact either way -- but the
        truncation is surfaced as a :class:`UserWarning` and a
        ``net.stats.truncated`` counter, so byte-level accounting built
        on the log cannot silently pass over an incomplete record.
        """
        names = [via] if via is not None else self.entities()
        if not names:
            raise NetworkError("stats needs at least one registered entity")
        conn = self._conn(names[0])
        while not conn.stats_q.empty():  # drop stale replies
            conn.stats_q.get_nowait()
        request = StatsRequest(include_log=include_log, metrics=metrics)
        self._run(self._send(conn, request))
        try:
            reply = conn.stats_q.get(timeout=self.timeout)
        except queue.Empty as exc:
            raise NetworkError("broker stats request timed out") from exc
        if not reply.log_complete:
            get_registry().inc("net.stats.truncated")
            warnings.warn(
                "broker accounting log was truncated to fit one frame; "
                "log-derived byte accounting is incomplete (counters are "
                "still exact)",
                UserWarning,
                stacklevel=2,
            )
        return reply

    def metrics(self, via: Optional[str] = None) -> dict:
        """The root aggregate (its own registry merged with the latest
        report pushed by each relay subtree) as a snapshot dict."""
        return snapshot_from_json(self.stats(metrics=True, via=via).metrics)

    def snapshot(self) -> InMemoryTransport:
        """The broker's accounting log, replayed into an in-memory router.

        Gives the network backend the exact query surface
        (``bytes_between``, ``messages``, ``kinds_count`` ...) the
        in-process tests and benchmarks already use.
        """
        stats = self.stats(include_log=True)
        if not stats.log_complete:
            # A truncated log would silently understate byte counts; an
            # audit surface must fail loudly instead.
            raise NetworkError(
                "broker accounting log exceeds one frame; raise the broker's "
                "--max-frame (or audit incrementally) for logs this long"
            )
        replay = InMemoryTransport()
        for record in stats.log:
            replay.send(
                record.sender, record.receiver, record.kind, record.size,
                note=record.note,
            )
        return replay

    def request_broker_shutdown(self) -> None:
        """Ask the broker to stop (supervised/loopback deployments)."""
        conn = self._conn(self.entities()[0]) if self._conns else None
        if conn is None:
            raise NetworkError("no connection to request shutdown on")
        self._run(self._send(conn, Shutdown()))

    def close(self) -> None:
        """Drop every connection and stop the loop thread."""
        if self._closed:
            return
        with self._lock:
            conns, self._conns = list(self._conns.values()), {}
            for conn in conns:
                try:
                    self._flush_acks(conn)
                except NetworkError:
                    pass
                self._teardown(conn)
            self._closed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(self.timeout)
        if not self._thread.is_alive():  # (never close a loop still running)
            # Releases the selector and the self-pipe, which otherwise
            # live as long as the process.
            self._loop.close()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
