"""Runtime pieces: pump loops, stop signals, the CLI processes themselves."""

import json
import os
import signal
import threading
import time

import pytest

from repro.errors import SerializationError, SystemError_
from repro.net._cli import parse_endpoint
from repro.net.bootstrap import write_json
from repro.net.runtime import (
    BrokerThread,
    ProcessSupervisor,
    RelayThread,
    StopRequested,
    pump_until,
    wait_for_file,
)
from repro.net.transport import TcpTransport


class _NullEndpoint:
    def pump(self):
        return 0


class TestPumpUntil:
    def test_timeout_raises(self):
        with pytest.raises(SystemError_, match="not reached"):
            pump_until([_NullEndpoint()], lambda: False, timeout=0.05)

    def test_stop_event_interrupts(self):
        """SIGTERM handling in the entity servers rides on this: a set stop
        event must break a lifecycle phase instead of spinning to timeout."""
        stop = threading.Event()
        timer = threading.Timer(0.05, stop.set)
        timer.start()
        try:
            began = time.monotonic()
            with pytest.raises(StopRequested):
                pump_until([_NullEndpoint()], lambda: False, timeout=30.0, stop=stop)
            assert time.monotonic() - began < 5.0
        finally:
            timer.cancel()

    def test_predicate_wins_over_stop(self):
        stop = threading.Event()
        stop.set()
        assert pump_until([_NullEndpoint()], lambda: True, stop=stop) == 0


def test_thread_helper_closes_its_event_loop():
    """Stopping the helper releases the loop it created: the selector
    and self-pipe descriptors must not accumulate across start/stop
    cycles (the helpers back every loopback test and benchmark)."""

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    def cycle():
        with BrokerThread() as broker:
            with RelayThread("r1", broker.host, broker.port) as relay:
                pass
        return broker, relay

    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    cycle()  # warm-up: lazily created module state settles first
    before = open_fds()
    for _ in range(5):
        for helper in cycle():
            assert helper._loop.is_closed()
            assert not helper._thread.is_alive()
    assert open_fds() == before


def test_transport_closes_its_event_loop():
    """Same leak, client side: ``TcpTransport.close()`` releases the
    loop its constructor created, and stays idempotent."""

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    def cycle(broker):
        transport = TcpTransport(broker.host, broker.port)
        transport.register("probe")
        transport.close()
        transport.close()
        return transport

    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    with BrokerThread() as broker:
        cycle(broker)  # warm-up: lazily created module state settles first
        before = open_fds()
        for _ in range(5):
            transport = cycle(broker)
            assert transport._loop.is_closed()
            assert not transport._thread.is_alive()
        # (The in-process broker closes its end of each connection a
        # moment after the client does.)
        deadline = time.monotonic() + 5.0
        while open_fds() != before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert open_fds() == before


class TestFrameCapSemantics:
    def test_payload_at_cap_routes_to_any_receiver_name(self):
        """The envelope headroom guarantee: a payload exactly at max_frame
        must reach every receiver, however long their entity names make
        the NetDeliver wrapper."""
        cap = 1024
        long_name = "receiver-with-a-very-long-entity-name" * 3
        with BrokerThread(max_frame=cap) as broker:
            with TcpTransport(broker.host, broker.port, max_frame=cap) as transport:
                transport.register("a")
                transport.register("b")
                transport.register(long_name)
                payload = b"x" * cap  # exactly at the cap
                transport.broadcast("a", "k", payload)
                deadline = time.monotonic() + 5
                for name in ("b", long_name):
                    got = []
                    while not got and time.monotonic() < deadline:
                        got = transport.poll(name)
                        time.sleep(0.005)
                    assert [d.payload for d in got] == [payload], name
                from repro.net.runtime import wait_until_quiet

                stats = wait_until_quiet(transport, timeout=10.0)
                assert stats.dropped == 0

    def test_payload_over_cap_rejected_before_the_socket(self):
        cap = 1024
        with BrokerThread(max_frame=cap) as broker:
            with TcpTransport(broker.host, broker.port, max_frame=cap) as transport:
                transport.register("a")
                with pytest.raises(SerializationError, match="cap"):
                    transport.deliver("a", "b", "k", b"x" * (cap + 1))
                with pytest.raises(SerializationError, match="cap"):
                    transport.broadcast("a", "k", b"x" * (cap + 1))
                # The connection is untouched: legal traffic still flows.
                transport.deliver("a", "a", "k", b"fine")
                deadline = time.monotonic() + 5
                got = []
                while not got and time.monotonic() < deadline:
                    got = transport.poll("a")
                    time.sleep(0.005)
                assert [d.payload for d in got] == [b"fine"]


@pytest.mark.parametrize("unmatched_attribute", [True])
def test_cli_servers_full_run_and_graceful_sigterm(tmp_path, unmatched_attribute):
    """The python -m entry points, driven exactly as an operator would:
    broker + idmgr + publisher(--serve) as servers, one subscriber running
    its lifecycle to a report.  The scenario deliberately gives the user an
    attribute no policy condition mentions -- the subscriber must complete
    anyway.  Afterwards every server must exit 0 on SIGTERM."""
    scenario = {
        "group": "nist-p192",
        "seed": 77,
        "attribute_bits": 8,
        "gkm_field": "fast",
        "policies": [
            {"condition": "role = doc", "segments": ["s"], "document": "d"},
        ],
        # "shoe_size" matches no condition: regression for the wedged
        # registration-phase predicate.
        "users": {"u": {"role": "doc", "shoe_size": 43}},
    }
    scenario_path = str(tmp_path / "scenario.json")
    bundle_path = str(tmp_path / "bundle.json")
    port_file = str(tmp_path / "port")
    report_path = str(tmp_path / "report.json")
    write_json(scenario_path, scenario)

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    with ProcessSupervisor() as supervisor:
        supervisor.spawn_module(
            "repro.net.broker", "--port", "0", "--port-file", port_file,
            name="broker", env=env,
        )
        broker_at = wait_for_file(port_file).strip()
        common = ["--broker", broker_at, "--scenario", scenario_path,
                  "--bundle", bundle_path]
        idmgr = supervisor.spawn_module(
            "repro.net.idmgr", *common, name="idmgr", env=env)
        publisher = supervisor.spawn_module(
            "repro.net.publisher", *common, "--serve", name="publisher", env=env)
        supervisor.spawn_module(
            "repro.net.subscriber", *common, "--user", "u",
            "--expect-broadcasts", "0", "--report", report_path,
            name="subscriber", env=env,
        )
        assert supervisor.wait("subscriber", timeout=120) == 0
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["results"]["role"] == {"role = doc": True}
        assert report["results"]["shoe_size"] == {}  # queried, none matched

        # Graceful shutdown of the long-running servers.
        for process, name in ((idmgr, "idmgr"), (publisher, "publisher")):
            process.send_signal(signal.SIGTERM)
            assert process.wait(15) == 0, name
        broker_proc = supervisor.processes[0][1]
        broker_proc.send_signal(signal.SIGTERM)
        assert broker_proc.wait(15) == 0


def test_parse_endpoint_rejects_garbage():
    from repro.errors import InvalidParameterError

    assert parse_endpoint("127.0.0.1:80") == ("127.0.0.1", 80)
    for bad in ("no-port", "host:", ":", "host:abc"):
        with pytest.raises(InvalidParameterError):
            parse_endpoint(bad)
