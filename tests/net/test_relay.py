"""The relay fan-out tier, end to end over loopback TCP.

Broker federation must be invisible to entities: the same Hello/Welcome
handshake, the same delivery/broadcast/stats semantics, the same
accounting log -- whether an entity sits at the root or three hops down
a relay chain.  And the tier itself must stay keyless and stateless:
these tests pin the module-dependency boundary (a relay process never
imports crypto/GKM/policy code) as well as the wire behaviour.
"""

import subprocess
import sys
import time

import pytest

from repro.errors import NetworkError
from repro.net.relay import request_local_stats
from repro.net.runtime import (
    BrokerThread,
    ProcessSupervisor,
    RelayThread,
    wait_for_file,
    wait_until_quiet,
)
from repro.net.transport import TcpTransport


def _drain(transport, entity, count, timeout=10.0):
    """Poll until ``count`` deliveries arrived for ``entity``."""
    got = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and len(got) < count:
        got.extend(transport.poll(entity))
        if len(got) < count:
            time.sleep(0.01)
    assert len(got) == count, "wanted %d deliveries, got %d" % (count, len(got))
    return got


@pytest.fixture
def chain():
    """Root broker + a two-deep relay chain + one shared transport."""
    with BrokerThread() as broker:
        with RelayThread("r1", broker.host, broker.port) as r1:
            with RelayThread("r2", r1.host, r1.port) as r2:
                with TcpTransport(broker.host, broker.port) as transport:
                    yield broker, r1, r2, transport


def test_unicast_across_hops(chain):
    broker, r1, r2, transport = chain
    transport.set_attach_point("bob", r1.host, r1.port)
    transport.set_attach_point("carol", r2.host, r2.port)
    for name in ("alice", "bob", "carol"):
        transport.register(name)
    transport.deliver("alice", "carol", "k", b"down-two-hops")
    transport.deliver("carol", "alice", "k", b"up-two-hops")
    transport.deliver("carol", "bob", "k", b"down-then-up")
    (to_carol,) = _drain(transport, "carol", 1)
    (to_alice,) = _drain(transport, "alice", 1)
    (to_bob,) = _drain(transport, "bob", 1)
    assert (to_carol.sender, to_carol.payload) == ("alice", b"down-two-hops")
    assert (to_alice.sender, to_alice.payload) == ("carol", b"up-two-hops")
    assert (to_bob.sender, to_bob.payload) == ("carol", b"down-then-up")
    stats = wait_until_quiet(transport)
    assert stats.pending == 0 and stats.in_flight == 0


def test_broadcast_exactly_once_at_any_depth(chain):
    broker, r1, r2, transport = chain
    transport.set_attach_point("bob", r1.host, r1.port)
    transport.set_attach_point("carol", r2.host, r2.port)
    for name in ("alice", "bob", "carol"):
        transport.register(name)
    rounds = 5
    for index in range(rounds):
        transport.broadcast("carol", "pkg", b"round-%d" % index)
    for name in ("alice", "bob"):
        got = _drain(transport, name, rounds)
        assert [d.payload for d in got] == [
            b"round-%d" % i for i in range(rounds)
        ]
    # The origin never hears its own multicast back.
    assert transport.poll("carol") == []
    wait_until_quiet(transport)
    # Each multicast crossed each hop exactly once.
    for relay in (r1, r2):
        local = request_local_stats(relay.host, relay.port)
        assert local.counter("broadcasts_down") == rounds
        assert local.counter("dupes_dropped") == 0
        assert local.counter("unicast_down") == 0


def test_accounting_identical_to_single_broker(chain):
    """The audit log is topology-independent: same traffic, same bytes."""
    broker, r1, r2, transport = chain
    transport.set_attach_point("carol", r2.host, r2.port)
    transport.register("alice")
    transport.register("carol")
    transport.deliver("alice", "carol", "k", b"12345", note="n")
    transport.broadcast("alice", "pkg", b"payload")
    _drain(transport, "carol", 2)
    wait_until_quiet(transport)
    snap = transport.snapshot()
    assert snap.bytes_between("alice", "carol") == 5
    assert snap.bytes_between("alice", "*") == 7
    # One accounted transmission per broadcast, despite the relay fan-out.
    assert snap.kinds_count() == {"k": 1, "pkg": 1}


def test_spoof_on_connect_is_global_across_attach_points(chain):
    """Admission is one root decision; a relay is not a second door."""
    broker, r1, r2, transport = chain
    transport.register("alice")  # direct, at the root
    with TcpTransport(broker.host, broker.port) as second:
        second.set_attach_point("alice", r2.host, r2.port)
        with pytest.raises(NetworkError, match="already connected"):
            second.register("alice")
    # And the other direction: a relay-attached name blocks a root Hello.
    transport.set_attach_point("bob", r1.host, r1.port)
    transport.register("bob")
    with TcpTransport(broker.host, broker.port) as second:
        with pytest.raises(NetworkError, match="already connected"):
            second.register("bob")


def test_reconnect_through_relay_drains_backlog(chain):
    """Frames queued while a relay-attached entity is away must flush on
    re-attach, in order, before anything fresh.

    The root restores offline queueing for the name the moment the
    relay's ``RelayDetach`` propagates up (a multicast racing the detach
    is in-flight toward a dead connection: at-most-once, same as a
    direct attach), so the test waits for that barrier -- the same one
    the load engine uses before a down-window rekey.
    """
    broker, r1, r2, transport = chain
    transport.set_attach_point("carol", r2.host, r2.port)
    transport.register("alice")
    transport.register("carol")
    transport.disconnect("carol")
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if transport.stats(via="alice").counter("relay_entities") == 0:
            break
        time.sleep(0.01)
    assert transport.stats(via="alice").counter("relay_entities") == 0
    for index in range(3):
        transport.broadcast("alice", "pkg", b"missed-%d" % index)
    transport.register("carol")  # re-attach through the same relay
    got = _drain(transport, "carol", 3)
    assert [d.payload for d in got] == [b"missed-%d" % i for i in range(3)]
    wait_until_quiet(transport)


def test_stats_through_relay_are_root_stats(chain):
    """An attached entity's StatsRequest is answered by the root -- the
    relay forwards both ways, so observability is attach-point blind."""
    broker, r1, r2, transport = chain
    transport.set_attach_point("carol", r2.host, r2.port)
    transport.register("alice")
    transport.register("carol")
    transport.deliver("alice", "carol", "k", b"x")
    _drain(transport, "carol", 1)
    wait_until_quiet(transport)
    via_relay = transport.stats(include_log=True, via="carol")
    via_root = transport.stats(include_log=True, via="alice")
    assert via_relay.log == via_root.log
    assert via_relay.counter("relay_links") == 1
    assert via_relay.counter("relay_entities") == 1
    # Metrics ride the same request, so they are attach-point blind too:
    # carol, two links down, gets the root aggregate -- not r2's subtree.
    aggregate = transport.metrics(via="carol")
    assert aggregate == transport.metrics(via="alice")
    assert aggregate["gauges"]["broker.relay_entities"] == 1


def test_relay_local_stats_expose_hop_counters(chain):
    broker, r1, r2, transport = chain
    transport.set_attach_point("carol", r2.host, r2.port)
    transport.register("alice")
    transport.register("carol")
    transport.broadcast("alice", "pkg", b"x")
    _drain(transport, "carol", 1)
    wait_until_quiet(transport)
    shallow = request_local_stats(r1.host, r1.port)
    deep = request_local_stats(r2.host, r2.port)
    assert shallow.counter("depth") == 1
    assert deep.counter("depth") == 2
    assert deep.counter("entities_attached") == 1
    assert shallow.counter("downstream_relays") == 1
    # A relay keeps no accounting log -- that is the point of the tier.
    assert shallow.log == () and shallow.log_complete


@pytest.mark.parametrize("module", ["repro.net.relay", "repro.net.node"])
def test_relay_process_never_imports_key_material(module):
    """The keyless claim as an import boundary: a relay process -- and
    the one node module behind every forwarding role -- must not load
    crypto, GKM, policy or publisher code: it cannot hold what it never
    links."""
    probe = (
        "import sys; import %s; " % module +
        "bad = [m for m in sys.modules if any(t in m for t in ("
        "'crypto', 'gkm', 'policy', 'ocbe', 'publisher', 'subscriber', "
        "'documents'))]; "
        "sys.exit('leaked: %s' % bad if bad else 0)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_relay_dies_with_its_upstream():
    """Root shutdown cascades: a relay with no upstream must exit rather
    than keep accepting entities it can never serve."""
    broker = BrokerThread()
    relay = RelayThread("r1", broker.host, broker.port)
    try:
        broker.stop()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if relay.node._shutdown.is_set():
                break
            time.sleep(0.01)
        assert relay.node._shutdown.is_set()
    finally:
        relay.stop()


def test_relay_refuses_to_start_without_upstream():
    with pytest.raises(NetworkError):
        # Nothing listens on the (bound-then-closed) port.
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        RelayThread("r1", "127.0.0.1", port)


def test_cli_prints_machine_parseable_endpoint(tmp_path):
    """``--port 0`` must print an exact ``ENDPOINT host:port`` line on
    stdout, for supervisors chaining relay processes -- broker and relay
    both.  (The supervisor merges stderr logging into the same capture,
    so the line's *presence* is the contract, not its position.)"""
    supervisor = ProcessSupervisor()
    try:
        broker_port_file = str(tmp_path / "broker.port")
        supervisor.spawn_module(
            "repro.net.broker", "--port", "0",
            "--port-file", broker_port_file, name="broker",
        )
        endpoint = wait_for_file(broker_port_file).strip()
        relay_port_file = str(tmp_path / "relay.port")
        supervisor.spawn_module(
            "repro.net.relay", "--relay-id", "r1",
            "--upstream", endpoint, "--port", "0",
            "--port-file", relay_port_file, name="relay",
        )
        relay_endpoint = wait_for_file(relay_port_file).strip()
        host, port = relay_endpoint.rsplit(":", 1)
        # The ENDPOINT stdout line of each process matches its port file.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            broker_out = supervisor.output("broker")
            relay_out = supervisor.output("relay")
            if "ENDPOINT" in broker_out and "ENDPOINT" in relay_out:
                break
            time.sleep(0.05)
        assert ("ENDPOINT %s" % endpoint) in broker_out.splitlines()
        assert ("ENDPOINT %s" % relay_endpoint) in relay_out.splitlines()
        # And the printed endpoint really serves: probe its local stats.
        local = request_local_stats(host, int(port))
        assert local.counter("depth") == 1
    finally:
        supervisor.shutdown()


def test_deep_chain_loop_refusal_and_path():
    """Paths grow down the chain; joining anywhere on your own path is
    refused from either side."""
    with BrokerThread() as broker:
        with RelayThread("r1", broker.host, broker.port) as r1:
            with RelayThread("r2", r1.host, r1.port) as r2:
                assert r1.node.path == ("r1",)
                assert r2.node.path == ("r1", "r2")
                # A relay that would close a cycle is refused on accept.
                with pytest.raises(NetworkError, match="loop"):
                    RelayThread("r1", r2.host, r2.port)
