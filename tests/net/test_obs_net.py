"""Observability at the net layer: trace trailers on every frame type,
metrics collection through broker and relay, and the stats-truncation
warning."""

import dataclasses
import time

import pytest

from repro.errors import SerializationError
from repro.net.protocol import (
    TRACE_LEN,
    ZERO_TRACE,
    pack_trace,
)
from repro.obs.trace import new_trace_id, tracing
from tests.net.samples import SAMPLES, decode_net_frame

TRACE = bytes(range(1, TRACE_LEN + 1))


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_trace_round_trips_on_every_frame_type(message):
    traced = dataclasses.replace(message, trace=TRACE)
    decoded = decode_net_frame(traced.encode())
    assert decoded == traced
    assert decoded.trace == TRACE


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_untraced_frames_stay_pre_trace_identical(message):
    """The all-zeros trace encodes by omission: a frame that carries no
    trace is byte-identical to the pre-trace protocol, and decodes with
    ``trace == ZERO_TRACE``."""
    plain = dataclasses.replace(message, trace=ZERO_TRACE).encode()
    assert plain == dataclasses.replace(message, trace=b"").encode()
    decoded = decode_net_frame(plain)
    assert decoded.trace == ZERO_TRACE
    # And a traced frame costs exactly TRACE_LEN extra bytes.
    assert len(dataclasses.replace(message, trace=TRACE).encode()) == (
        len(plain) + TRACE_LEN
    )


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("junk", [1, TRACE_LEN - 1, TRACE_LEN + 1, 64],
                         ids=["1B", "15B", "17B", "64B"])
def test_hostile_trace_lengths_refused(message, junk):
    """Trailing bytes that are neither empty nor one exact trace id are
    malformed -- never truncated, padded, or silently absorbed."""
    payload = dataclasses.replace(message, trace=b"").payload_bytes()
    with pytest.raises(SerializationError):
        type(message).from_payload(payload + b"\xaa" * junk)


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_explicit_zero_trace_refused(message):
    """"No trace" has exactly one encoding, omission: sixteen explicit
    zero bytes are bytes no encoder writes."""
    payload = dataclasses.replace(message, trace=b"").payload_bytes()
    with pytest.raises(SerializationError, match="all-zero trace"):
        type(message).from_payload(payload + ZERO_TRACE)


def test_pack_trace_refuses_wrong_length():
    with pytest.raises(SerializationError, match="16 bytes"):
        pack_trace(b"\x01" * 15)
    with pytest.raises(SerializationError, match="16 bytes"):
        pack_trace(b"\x01" * 17)
    assert pack_trace(b"") == b""
    assert pack_trace(ZERO_TRACE) == b""


# -- through real sockets ----------------------------------------------------


def _drain(transport, entity, deadline_s=10.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        got = transport.poll(entity)
        if got:
            return got
        time.sleep(0.01)
    raise AssertionError("no delivery for %r" % entity)


def test_trace_rides_deliveries_over_tcp():
    from repro.net.runtime import BrokerThread
    from repro.net.transport import TcpTransport

    trace = new_trace_id()
    with BrokerThread() as broker:
        with TcpTransport(broker.host, broker.port) as transport:
            transport.register("a")
            transport.register("b")
            with tracing(trace):
                transport.deliver("a", "b", "k", b"frame")
            [delivery] = _drain(transport, "b")
            assert delivery.trace == trace
            # An untraced send arrives with no trace, not a zero-filled one.
            transport.deliver("a", "b", "k", b"frame2")
            [delivery] = _drain(transport, "b")
            assert delivery.trace == b""


def test_broker_answers_metrics_request():
    from repro.net.runtime import BrokerThread
    from repro.net.transport import TcpTransport

    with BrokerThread() as broker:
        with TcpTransport(broker.host, broker.port) as transport:
            transport.register("probe")
            snapshot = transport.metrics(via="probe")
            assert snapshot["counters"]["broker.connect"] >= 1
            assert snapshot["gauges"]["broker.leaf_connections"] == 1


def test_relay_metrics_push_aggregates_at_root():
    """A relay pushes its subtree report upstream on --metrics-interval;
    the broker's root aggregate then counts it (relay.nodes gauges sum
    to the relay population)."""
    from repro.net.relay import request_local_metrics
    from repro.net.runtime import BrokerThread, RelayThread
    from repro.net.transport import TcpTransport

    with BrokerThread() as broker:
        with RelayThread("r1", broker.host, broker.port,
                         metrics_interval=0.05) as relay:
            local = request_local_metrics(relay.host, relay.port)
            assert local["gauges"]["relay.nodes"] == 1
            with TcpTransport(broker.host, broker.port) as transport:
                transport.register("probe")
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    snapshot = transport.metrics(via="probe")
                    if snapshot["gauges"].get("relay.nodes"):
                        break
                    time.sleep(0.05)
                assert snapshot["gauges"]["relay.nodes"] == 1
                assert snapshot["counters"]["broker.relay.metrics_reports"] >= 1


def test_stats_truncation_surfaces_as_warning():
    """Satellite fix: a truncated accounting log in StatsReply is no
    longer silent -- ``stats()`` warns and counts, while the counters in
    the same reply stay exact."""
    from repro.net.runtime import BrokerThread
    from repro.net.transport import TcpTransport
    from repro.obs.metrics import get_registry

    with BrokerThread(max_frame=600) as broker:
        with TcpTransport(broker.host, broker.port, max_frame=600) as transport:
            transport.register("a")
            transport.register("b")
            for i in range(40):
                transport.deliver("a", "b", "k" * 40, b"p", note="n" * 40)
            _drain(transport, "b")
            transport.flush_acks()
            before = get_registry().counter("net.stats.truncated").value
            with pytest.warns(UserWarning, match="truncated"):
                stats = transport.stats(include_log=True)
            assert not stats.log_complete
            assert get_registry().counter("net.stats.truncated").value > before
            # The log was trimmed, never the counters.
            assert stats.delivered_total >= 1
