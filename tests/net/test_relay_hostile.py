"""Hostile peers against the relay tier.

A relay faces raw TCP on both sides: a forged or misbehaving *upstream*
(replayed sequence ids, loop-inducing welcomes) and hostile
*downstreams* (oversized handshakes, injected multicast, readers that
simply stop).  Every case must end with exactly the offending link or
connection dropped -- never the tree -- and with the per-hop counters
telling the truth about what was refused.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro.errors import NetworkError
from repro.net.protocol import (
    MAX_NAME_LEN,
    Ack,
    Hello,
    NetDeliver,
    RelayAttach,
    RelayAttachReply,
    RelayBroadcast,
    RelayHello,
    RelayWelcome,
    StatsReply,
    StatsRequest,
    Welcome,
    decode_net_payload,
)
from repro.net.relay import request_local_metrics, request_local_stats
from repro.net.runtime import BrokerThread, RelayThread
from repro.net.stream import FrameDecoder
from repro.net.transport import TcpTransport
from repro.obs.metrics import MAX_SNAPSHOT_BYTES


def read_frames(sock, count, timeout=5.0):
    """Read up to ``count`` frames off a raw socket (EOF/timeout returns
    what arrived)."""
    decoder = FrameDecoder()
    frames = []
    sock.settimeout(timeout)
    deadline = time.monotonic() + timeout
    while len(frames) < count and time.monotonic() < deadline:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            break
        if not chunk:
            break
        frames.extend(decoder.feed(chunk))
    return frames


def assert_closed(sock, timeout=5.0):
    sock.settimeout(timeout)
    assert sock.recv(65536) == b"", "expected the server to close the connection"


def poll_until(probe, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if probe():
            return True
        time.sleep(interval)
    return probe()


class FakeUpstream:
    """A scripted stand-in for the root broker (or a parent relay).

    Accepts one downstream connection, auto-answers ``RelayHello`` with a
    configurable :class:`RelayWelcome` and ``RelayAttach`` with an ok
    reply, records everything else it receives, and lets the test inject
    arbitrary frames downstream -- including ones a healthy root would
    never send.
    """

    def __init__(self, welcome=None, attach_ok=True):
        self.welcome = welcome
        self.attach_ok = attach_ok
        self.received = []
        self._cond = threading.Condition()
        self._conn = None
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.host, self.port = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        with self._cond:
            self._conn = conn
            self._cond.notify_all()
        decoder = FrameDecoder()
        while True:
            try:
                chunk = conn.recv(65536)
            except OSError:
                return
            if not chunk:
                return
            for frame in decoder.feed(chunk):
                message = decode_net_payload(*frame)
                if isinstance(message, RelayHello):
                    welcome = self.welcome or RelayWelcome(
                        ok=True, relay_id=message.relay_id, path=()
                    )
                    conn.sendall(welcome.encode())
                elif isinstance(message, RelayAttach):
                    conn.sendall(
                        RelayAttachReply(
                            ok=self.attach_ok, entity=message.entity,
                            reason="" if self.attach_ok else "scripted refusal",
                        ).encode()
                    )
                with self._cond:
                    self.received.append(message)
                    self._cond.notify_all()

    def send(self, message):
        with self._cond:
            self._cond.wait_for(lambda: self._conn is not None, timeout=5.0)
            assert self._conn is not None, "no downstream relay connected"
            self._conn.sendall(message.encode())

    def wait_received(self, kind, count=1, timeout=5.0):
        with self._cond:
            self._cond.wait_for(
                lambda: sum(isinstance(m, kind) for m in self.received) >= count,
                timeout=timeout,
            )
            return [m for m in self.received if isinstance(m, kind)]

    def close(self):
        self._listener.close()
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass


class TestForgedUpstreamTraffic:
    def test_replayed_seq_dropped_forged_payload_never_delivered(self):
        """Two RelayBroadcasts under one sequence id: the second is a
        replay (or a forgery riding a seen id) and must die at this hop
        -- the attached entity sees exactly the first payload."""
        fake = FakeUpstream()
        try:
            with RelayThread("r1", fake.host, fake.port) as relay:
                carol = socket.create_connection((relay.host, relay.port), 5)
                try:
                    carol.sendall(Hello(entity="carol").encode())
                    [frame] = read_frames(carol, 1)
                    welcome = decode_net_payload(*frame)
                    assert isinstance(welcome, Welcome) and welcome.ok
                    fake.wait_received(RelayAttach)
                    fake.send(RelayBroadcast(
                        seq=9, sender="pub", kind="pkg", note="",
                        payload=b"genuine",
                    ))
                    fake.send(RelayBroadcast(
                        seq=9, sender="pub", kind="pkg", note="",
                        payload=b"forged-replay",
                    ))
                    frames = read_frames(carol, 2, timeout=1.0)
                    assert len(frames) == 1
                    delivery = decode_net_payload(*frames[0])
                    assert isinstance(delivery, NetDeliver)
                    assert delivery.payload == b"genuine"
                    carol.sendall(Ack(count=1).encode())
                    # Both units ack upstream: delivered once, dropped once.
                    assert len(fake.wait_received(Ack, count=2)) >= 2
                    local = request_local_stats(relay.host, relay.port)
                    assert local.counter("broadcasts_down") == 1
                    assert local.counter("dupes_dropped") == 1
                    assert local.counter("broadcast_deliveries") == 1
                finally:
                    carol.close()
        finally:
            fake.close()

    def test_stale_seq_below_high_water_never_delivered(self):
        """Sequence ids arrive strictly increasing on a FIFO link, so an
        id *below* one already accepted -- never seen before, or long
        evicted from any bounded window -- is a forgery or a replay and
        must die at this hop exactly like a repeated one."""
        fake = FakeUpstream()
        try:
            with RelayThread("r1", fake.host, fake.port) as relay:
                carol = socket.create_connection((relay.host, relay.port), 5)
                try:
                    carol.sendall(Hello(entity="carol").encode())
                    [frame] = read_frames(carol, 1)
                    assert decode_net_payload(*frame).ok
                    fake.wait_received(RelayAttach)
                    fake.send(RelayBroadcast(
                        seq=9, sender="pub", kind="pkg", note="",
                        payload=b"genuine",
                    ))
                    fake.send(RelayBroadcast(
                        seq=3, sender="pub", kind="pkg", note="",
                        payload=b"forged-stale",
                    ))
                    frames = read_frames(carol, 2, timeout=1.0)
                    assert [decode_net_payload(*f).payload for f in frames] == [
                        b"genuine"
                    ]
                    carol.sendall(Ack(count=1).encode())
                    assert len(fake.wait_received(Ack, count=2)) >= 2
                    local = request_local_stats(relay.host, relay.port)
                    assert local.counter("broadcasts_down") == 1
                    assert local.counter("dupes_dropped") == 1
                finally:
                    carol.close()
        finally:
            fake.close()

    def test_welcome_naming_own_id_on_path_is_loop_refused(self):
        """Connecting side of loop refusal: an upstream whose advertised
        path already contains this relay's id must be refused -- joining
        would make the node its own ancestor."""
        fake = FakeUpstream(
            welcome=RelayWelcome(ok=True, relay_id="r1", path=("r0", "r1"))
        )
        try:
            with pytest.raises(NetworkError, match="loop"):
                RelayThread("r1", fake.host, fake.port)
        finally:
            fake.close()

    def test_upstream_refusal_fails_startup(self):
        fake = FakeUpstream(
            welcome=RelayWelcome(ok=False, relay_id="r1", reason="no capacity")
        )
        try:
            with pytest.raises(NetworkError, match="refused"):
                RelayThread("r1", fake.host, fake.port)
        finally:
            fake.close()


class TestHostileDownstream:
    def test_oversized_relay_hello_refused_at_broker(self):
        with BrokerThread() as broker:
            sock = socket.create_connection((broker.host, broker.port), 5)
            try:
                sock.sendall(
                    RelayHello(relay_id="r" * (MAX_NAME_LEN + 1)).encode()
                )
                [frame] = read_frames(sock, 1)
                welcome = decode_net_payload(*frame)
                assert isinstance(welcome, RelayWelcome)
                assert not welcome.ok and "exceeds" in welcome.reason
                assert_closed(sock)
            finally:
                sock.close()

    def test_oversized_relay_hello_refused_at_relay(self):
        with BrokerThread() as broker:
            with RelayThread("r1", broker.host, broker.port) as relay:
                sock = socket.create_connection((relay.host, relay.port), 5)
                try:
                    sock.sendall(
                        RelayHello(relay_id="r" * (MAX_NAME_LEN + 1)).encode()
                    )
                    [frame] = read_frames(sock, 1)
                    welcome = decode_net_payload(*frame)
                    assert isinstance(welcome, RelayWelcome)
                    assert not welcome.ok and "exceeds" in welcome.reason
                    assert_closed(sock)
                finally:
                    sock.close()

    def test_self_id_refused_on_accept(self):
        """A RelayHello carrying an id already on the accepting relay's
        path (including its own) is the accepting side of loop refusal."""
        with BrokerThread() as broker:
            with RelayThread("r1", broker.host, broker.port) as relay:
                sock = socket.create_connection((relay.host, relay.port), 5)
                try:
                    sock.sendall(RelayHello(relay_id="r1").encode())
                    [frame] = read_frames(sock, 1)
                    welcome = decode_net_payload(*frame)
                    assert isinstance(welcome, RelayWelcome)
                    assert not welcome.ok and "loop" in welcome.reason
                finally:
                    sock.close()

    def test_forged_relay_broadcast_up_drops_link_at_broker(self):
        """Multicast only ever travels downstream; a downstream link
        injecting RelayBroadcast is hostile and loses the link -- while
        root entities keep working."""
        with BrokerThread() as broker:
            with TcpTransport(broker.host, broker.port) as transport:
                transport.register("alice")
                transport.register("bob")
                sock = socket.create_connection((broker.host, broker.port), 5)
                try:
                    sock.sendall(RelayHello(relay_id="evil").encode())
                    [frame] = read_frames(sock, 1)
                    assert decode_net_payload(*frame).ok
                    sock.sendall(RelayBroadcast(
                        seq=1, sender="alice", kind="pkg", note="",
                        payload=b"injected",
                    ).encode())
                    assert_closed(sock)
                finally:
                    sock.close()
                # The injection reached nobody and the broker still routes.
                assert transport.poll("bob") == []
                transport.deliver("alice", "bob", "k", b"still fine")
                assert poll_until(
                    lambda: [d.payload for d in transport.poll("bob")]
                    == [b"still fine"]
                )
                assert transport.stats(via="alice").counter("relay_links") == 0

    def test_forged_relay_broadcast_up_drops_link_at_relay(self):
        """Same rule one hop down: a fake downstream relay injecting
        multicast loses its link; the relay's real entities are
        untouched."""
        with BrokerThread() as broker:
            with RelayThread("r1", broker.host, broker.port) as relay:
                with TcpTransport(broker.host, broker.port) as transport:
                    transport.set_attach_point("carol", relay.host, relay.port)
                    transport.register("alice")
                    transport.register("carol")
                    sock = socket.create_connection(
                        (relay.host, relay.port), 5
                    )
                    try:
                        sock.sendall(RelayHello(relay_id="evil").encode())
                        [frame] = read_frames(sock, 1)
                        welcome = decode_net_payload(*frame)
                        assert welcome.ok and welcome.path == ("r1",)
                        sock.sendall(RelayBroadcast(
                            seq=77, sender="alice", kind="pkg", note="",
                            payload=b"injected",
                        ).encode())
                        assert_closed(sock)
                    finally:
                        sock.close()
                    assert transport.poll("carol") == []
                    transport.deliver("alice", "carol", "k", b"across the hop")
                    assert poll_until(
                        lambda: [d.payload for d in transport.poll("carol")]
                        == [b"across the hop"]
                    )
                    local = request_local_stats(relay.host, relay.port)
                    assert local.counter("downstream_relays") == 0
                    assert local.counter("entities_attached") == 1


def slow_socket(host, port):
    """Connect with a tiny receive buffer (set *before* connect, so the
    window scale is negotiated small): once this peer stops reading, the
    kernel can absorb almost nothing and the server's backlog bound is
    what actually gets exercised."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(5)
    sock.connect((host, port))
    return sock


class TestSlowConsumers:
    # The stalled peer's kernel buffers absorb traffic before any
    # server-side backlog builds (tcp_wmem autotunes to megabytes even
    # against a tiny receive window), so the storm must comfortably
    # exceed that absorbency for the bounded-backlog policy to be what
    # actually trips.
    STORM = 160
    PAYLOAD = b"\xab" * 65536

    def test_slow_relay_link_disconnected_at_broker(self):
        """A relay that stops reading mid-storm is disconnected by the
        bounded-backlog policy and counted in root stats -- it cannot
        buffer the broker out of memory."""
        with BrokerThread(max_backlog=8) as broker:
            with TcpTransport(broker.host, broker.port) as transport:
                transport.register("pub")
                sock = slow_socket(broker.host, broker.port)
                try:
                    sock.sendall(RelayHello(relay_id="stalled").encode())
                    [frame] = read_frames(sock, 1)
                    assert decode_net_payload(*frame).ok
                    sock.sendall(RelayAttach(entity="victim").encode())
                    [frame] = read_frames(sock, 1)
                    reply = decode_net_payload(*frame)
                    assert isinstance(reply, RelayAttachReply) and reply.ok
                    # ... and never read another byte.
                    for _ in range(self.STORM):
                        transport.broadcast("pub", "pkg", self.PAYLOAD)

                    def dropped():
                        stats = transport.stats(via="pub")
                        return (
                            stats.counter("slow_consumer_disconnects") >= 1
                            and stats.counter("relay_links") == 0
                        )

                    assert poll_until(dropped), (
                        "broker never applied the slow-consumer policy"
                    )
                    # One accounting rule at every depth: the counted
                    # frames still queued for the dropped link are
                    # counted dropped, not silently forgotten.
                    assert transport.stats(via="pub").dropped >= 1
                finally:
                    sock.close()
                # The victim fell back to offline queueing at the root;
                # the broker itself keeps serving.
                assert transport.stats(via="pub").counter("relay_entities") == 0
                transport.register("probe")
                transport.deliver("pub", "probe", "k", b"alive")
                assert poll_until(
                    lambda: [d.payload for d in transport.poll("probe")]
                    == [b"alive"]
                )

    def test_slow_entity_below_relay_disconnected_locally(self):
        """A paused entity reader below a relay trips the *relay's*
        backlog bound: the relay sheds that one connection (counted
        locally, detached at the root) and the rest of the tree stays
        healthy and quiet."""
        with BrokerThread() as broker:
            with RelayThread(
                "r1", broker.host, broker.port, max_backlog=8
            ) as relay:
                with TcpTransport(broker.host, broker.port) as transport:
                    transport.register("pub")
                    victim = slow_socket(relay.host, relay.port)
                    try:
                        victim.sendall(Hello(entity="victim").encode())
                        [frame] = read_frames(victim, 1)
                        assert decode_net_payload(*frame).ok
                        # ... and never read another byte.
                        for _ in range(self.STORM):
                            transport.broadcast("pub", "pkg", self.PAYLOAD)

                        def shed():
                            local = request_local_stats(
                                relay.host, relay.port
                            )
                            return (
                                local.counter("slow_consumer_disconnects") >= 1
                                and local.counter("entities_attached") == 0
                            )

                        assert poll_until(shed), (
                            "relay never applied the slow-consumer policy"
                        )
                    finally:
                        victim.close()
                    # Detach propagated: the root counts no relay-attached
                    # entities, keeps the link, and drains to in_flight 0
                    # (the dropped connection's units were acked as done).
                    def settled():
                        stats = transport.stats(via="pub")
                        return (
                            stats.counter("relay_entities") == 0
                            and stats.counter("relay_links") == 1
                            and stats.in_flight == 0
                        )

                    assert poll_until(settled)
                    local = request_local_stats(relay.host, relay.port)
                    assert local.counter("downstream_relays") == 0


@contextlib.contextmanager
def node_at(depth, **target_kw):
    """Yield ``(target, root)``: the node under attack at ``depth`` and
    the root of its tree (the same object at depth 0).  One ``Node``
    serves both roles, so every hostile case below runs against both
    from one body."""
    if depth == 0:
        with BrokerThread(**target_kw) as broker:
            yield broker, broker
    else:
        with BrokerThread() as broker:
            with RelayThread("r1", broker.host, broker.port, **target_kw) as relay:
                yield relay, broker


def assert_serves(target, root):
    """The node still admits and routes: an entity attached at
    ``target`` hears one attached at the root."""
    with TcpTransport(root.host, root.port) as transport:
        transport.set_attach_point("healthy-b", target.host, target.port)
        transport.register("healthy-a")
        transport.register("healthy-b")
        transport.deliver("healthy-a", "healthy-b", "probe", b"ping")
        assert poll_until(
            lambda: [d.payload for d in transport.poll("healthy-b")] == [b"ping"]
        )


@pytest.mark.parametrize("depth", [0, 1], ids=["root", "relay"])
class TestEveryDepth:
    def test_silent_connection_is_dropped(self, depth):
        """No first frame within the handshake budget: evicted, or parked
        pre-authentication connections would bypass every bound."""
        with node_at(depth, handshake_timeout=0.3) as (target, root):
            sock = socket.create_connection((target.host, target.port), 5)
            try:
                began = time.monotonic()
                assert_closed(sock, timeout=5.0)
                assert time.monotonic() - began < 4.0
            finally:
                sock.close()
            assert_serves(target, root)

    def test_frames_before_hello_are_rejected(self, depth):
        with node_at(depth) as (target, root):
            sock = socket.create_connection((target.host, target.port), 5)
            try:
                sock.sendall(NetDeliver(
                    sender="x", receiver="y", kind="k", note="", payload=b"p",
                ).encode())
                assert_closed(sock)
            finally:
                sock.close()
            assert_serves(target, root)

    @pytest.mark.parametrize(
        "name, why",
        [("e" * (MAX_NAME_LEN + 1), "exceeds"), ("*", "reserved"), ("", "non-empty")],
        ids=["oversized", "reserved", "empty"],
    )
    def test_malformed_entity_name_refused(self, depth, name, why):
        """The one name check behind every handshake: refused with a
        reason before the name enters any table, at any depth."""
        with node_at(depth) as (target, root):
            sock = socket.create_connection((target.host, target.port), 5)
            try:
                sock.sendall(Hello(entity=name).encode())
                [frame] = read_frames(sock, 1)
                welcome = decode_net_payload(*frame)
                assert isinstance(welcome, Welcome)
                assert not welcome.ok and why in welcome.reason
                assert_closed(sock)
            finally:
                sock.close()
            local = request_local_stats(target.host, target.port)
            assert local.counter("bound_names") == 0
            assert_serves(target, root)

    def test_slow_entity_is_disconnected_and_accounted(self, depth):
        """An entity that stops reading trips its node's backlog bound:
        that one connection is shed and counted, the tree drains to
        in_flight 0 -- and what was still queued for it is accounted by
        the depth's rule: parked in the offline inbox at the root (the
        authority is right there), counted dropped below a relay."""
        storm, payload = TestSlowConsumers.STORM, TestSlowConsumers.PAYLOAD
        with node_at(depth, max_backlog=8) as (target, root):
            with TcpTransport(root.host, root.port) as transport:
                transport.register("pub")
                victim = slow_socket(target.host, target.port)
                try:
                    victim.sendall(Hello(entity="victim").encode())
                    [frame] = read_frames(victim, 1)
                    assert decode_net_payload(*frame).ok
                    # ... and never read another byte.
                    for _ in range(storm):
                        transport.broadcast("pub", "pkg", payload)

                    def shed():
                        local = request_local_stats(target.host, target.port)
                        # ("pub" itself stays bound at the root.)
                        return (
                            local.counter("slow_consumer_disconnects") >= 1
                            and local.counter("bound_names") == (0 if depth else 1)
                        )

                    assert poll_until(shed), "slow-consumer policy never applied"
                finally:
                    victim.close()
                assert poll_until(
                    lambda: transport.stats(via="pub").in_flight == 0
                )
                stats = transport.stats(via="pub")
                local = request_local_stats(target.host, target.port)
                if depth == 0:
                    assert stats.counter("leaf_connections") == 1
                    assert stats.pending >= 1 and stats.dropped == 0
                else:
                    assert stats.counter("relay_entities") == 0
                    assert local.dropped >= 1

    def test_backlog_queued_while_offline_is_owed_not_slow(self, depth):
        """Frames the offline-inbox bound already held do not trip the
        backlog bound when an attach moves them onto the connection: a
        reconnect must drain its backlog, not be shed for having one."""
        with contextlib.ExitStack() as stack:
            # The bound under test is the root's: an attach flushes the
            # backlog onto the root's queue for the leaf, or for the link.
            root = target = stack.enter_context(BrokerThread(max_backlog=8))
            if depth:
                target = stack.enter_context(
                    RelayThread("r1", root.host, root.port)
                )
            transport = stack.enter_context(TcpTransport(root.host, root.port))
            transport.set_attach_point("late", target.host, target.port)
            transport.register("pub")
            for index in range(40):
                transport.deliver("pub", "late", "k", bytes([index]))
            assert poll_until(lambda: transport.stats(via="pub").pending == 40)
            transport.register("late")
            got = []
            assert poll_until(
                lambda: got.extend(transport.poll("late")) or len(got) == 40
            )
            assert [d.payload[0] for d in got] == list(range(40))
            stats = transport.stats(via="pub")
            assert stats.counter("slow_consumer_disconnects") == 0
            assert stats.counter("relay_links") == depth

    def test_monitor_first_frame_answers_from_local_counters(self, depth):
        """A connection opening with a plain StatsRequest is a monitor:
        answered from the node's own counters without registering a name
        or moving in_flight -- at the root exactly as at a relay."""
        with node_at(depth) as (target, root):
            with TcpTransport(root.host, root.port) as transport:
                transport.register("watcher")
                before = transport.stats(via="watcher")
                local = request_local_stats(target.host, target.port)
                assert local.counter("depth") == depth
                assert local.log == () and local.log_complete
                # The monitor loop keeps answering on the same connection.
                sock = socket.create_connection((target.host, target.port), 5)
                try:
                    for _ in range(2):
                        sock.sendall(StatsRequest().encode())
                        [frame] = read_frames(sock, 1)
                        assert isinstance(decode_net_payload(*frame), StatsReply)
                    after = transport.stats(via="watcher")
                finally:
                    sock.close()
                for counter in ("leaf_connections", "relay_links", "relay_entities"):
                    assert after.counter(counter) == before.counter(counter)
                assert after.in_flight == before.in_flight == 0
                assert after.pending == before.pending == 0

    def test_stats_request_for_an_unbound_name_is_refused(self, depth):
        """The routing field is under the one sender rule: a connection
        asks only for names bound through it.  An entity naming another
        entity, and a link naming an entity attached elsewhere, each lose
        their connection -- and the named victim never sees a reply."""
        with node_at(depth) as (target, root):
            with TcpTransport(root.host, root.port) as transport:
                transport.set_attach_point("victim", target.host, target.port)
                transport.register("victim")
                entity = socket.create_connection((target.host, target.port), 5)
                link = socket.create_connection((target.host, target.port), 5)
                try:
                    entity.sendall(Hello(entity="mallory").encode())
                    link.sendall(RelayHello(relay_id="evil").encode())
                    for sock in (entity, link):
                        [frame] = read_frames(sock, 1)
                        assert decode_net_payload(*frame).ok
                        sock.sendall(StatsRequest(entity="victim").encode())
                        assert_closed(sock)
                finally:
                    entity.close()
                    link.close()
                # Nothing was routed to the victim's connection, which
                # still asks -- and is answered -- for itself.
                assert transport._conns["victim"].stats_q.empty()
                assert transport.stats(via="victim").in_flight == 0
            assert_serves(target, root)

    def test_addressed_stats_reply_travelling_up_drops_the_link(self, depth):
        """A StatsReply naming an entity only ever travels *down*; from
        below it is a forged answer aimed at someone else's connection
        (same posture as RelayBroadcast from below)."""
        with node_at(depth) as (target, root):
            with TcpTransport(root.host, root.port) as transport:
                transport.set_attach_point("victim", target.host, target.port)
                transport.register("victim")
                sock = socket.create_connection((target.host, target.port), 5)
                try:
                    sock.sendall(RelayHello(relay_id="evil").encode())
                    [frame] = read_frames(sock, 1)
                    assert decode_net_payload(*frame).ok
                    forged = StatsReply(
                        pending=0, in_flight=0, delivered_total=0, entity="victim"
                    )
                    sock.sendall(forged.encode())
                    assert_closed(sock)
                finally:
                    sock.close()
                assert transport._conns["victim"].stats_q.empty()
            local = request_local_stats(target.host, target.port)
            assert local.counter("downstream_relays") == 0
            assert_serves(target, root)

    def test_over_cap_metrics_report_is_dropped_not_the_link(self, depth):
        """Telemetry cannot cut the data path: a pushed report whose
        metrics blob is over the snapshot cap (or malformed) is refused
        with a typed error and forgotten; the link that carried it keeps
        serving, and a well-formed report after it is merged."""
        with node_at(depth) as (target, root):
            sock = socket.create_connection((target.host, target.port), 5)
            try:
                sock.sendall(RelayHello(relay_id="chatty").encode())
                [frame] = read_frames(sock, 1)
                assert decode_net_payload(*frame).ok

                def push(blob):
                    report = StatsReply(
                        pending=0, in_flight=0, delivered_total=0, metrics=blob
                    )
                    sock.sendall(report.encode())

                def merged():
                    # (A real relay target counts itself: relay.nodes == depth.)
                    snapshot = request_local_metrics(target.host, target.port)
                    return snapshot["gauges"].get("relay.nodes", 0) - depth

                push(b" " * (MAX_SNAPSHOT_BYTES + 1))
                push(b"not json")
                push(b"")
                # Still a link: the node answers an attach through it.
                sock.sendall(RelayAttach(entity="below").encode())
                [frame] = read_frames(sock, 1)
                reply = decode_net_payload(*frame)
                assert isinstance(reply, RelayAttachReply) and reply.ok
                assert merged() == 0
                push(b'{"gauges":{"relay.nodes":3}}')
                assert poll_until(lambda: merged() == 3)
            finally:
                sock.close()
            assert_serves(target, root)
