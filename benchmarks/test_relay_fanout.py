"""Relay fan-out latency vs chain depth, and the deep chain at scale.

The federation tier's reason to exist is fan-out: one broadcast frame
travels the chain once per hop and the *deepest* relay pays the
per-subscriber push, so adding depth must cost hops (microseconds), not
population (the N pushes happen exactly once wherever the subscribers
sit).  Two experiments pin that:

* ``test_fanout_latency_vs_depth`` -- raw transport, N=256 subscribers
  all attached at the deepest relay of a depth-1/2/3 chain, measuring
  storm completion wall time.  The acceptance number: depth-3 completes
  within 2x depth-1 (the fast CI job runs this file directly; the
  nightly slow tier repeats it).

* ``test_deep_chain_churn_at_scale`` -- the full churn scenario
  (registration, revoke storms, flap waves; bucketed GKM) at N=256
  behind a 3-deep chain of real relay OS processes, with every
  invariant (lockout, derivation, zero-unicast rekey, per-hop
  exactly-once) asserted by the engine after each phase -- then the
  same population on the single in-memory broker, asserting the relay
  tier added *zero* protocol traffic: byte-identical accounting.
"""

import time

from repro.bench.runner import Measurement
from repro.load import bucketed, churn_scenario, run_scenario, with_relays
from repro.net.relay import request_local_stats
from repro.net.runtime import BrokerThread, RelayThread, wait_until_quiet
from repro.net.transport import TcpTransport

N_SUBS = 256
ROUNDS = 4          # broadcasts per storm
STORMS = 2          # repeat the storm; min wall is the stable number
PAYLOAD = b"\xcd" * 4096
DEPTHS = (1, 2, 3)


def _chain(broker, depth):
    """``depth`` relays, each hanging off the previous (relay1 at root)."""
    relays = []
    upstream_host, upstream_port = broker.host, broker.port
    for index in range(depth):
        relay = RelayThread(
            "relay%d" % (index + 1), upstream_host, upstream_port
        )
        relays.append(relay)
        upstream_host, upstream_port = relay.host, relay.port
    return relays


def _storm_wall(transport, receivers):
    """Broadcast ``ROUNDS`` frames; wall time until everyone has them all."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        transport.broadcast("pub", "pkg", PAYLOAD)
    deadline = t0 + 120.0
    got = {name: 0 for name in receivers}
    while not all(count == ROUNDS for count in got.values()):
        assert time.perf_counter() < deadline, (
            "fan-out stalled: %d/%d complete"
            % (sum(1 for c in got.values() if c == ROUNDS), len(got)),
        )
        for name in receivers:
            if got[name] < ROUNDS:
                got[name] += len(transport.poll(name))
    return time.perf_counter() - t0


def test_fanout_latency_vs_depth():
    timings = {}
    for depth in DEPTHS:
        with BrokerThread() as broker:
            relays = _chain(broker, depth)
            deepest = relays[-1]
            try:
                with TcpTransport(broker.host, broker.port) as transport:
                    transport.register("pub")  # the origin, at the root
                    receivers = ["sub%03d" % i for i in range(N_SUBS)]
                    for name in receivers:
                        # Worst case: the whole population at the far end
                        # of the chain, every frame riding the full depth.
                        transport.set_attach_point(
                            name, deepest.host, deepest.port
                        )
                        transport.register(name)
                    walls = [
                        _storm_wall(transport, receivers)
                        for _ in range(STORMS)
                    ]
                    wait_until_quiet(transport)
                    # Exactly-once per hop: every relay forwarded each
                    # multicast once, deduped nothing, and only the
                    # deepest paid the per-subscriber push.
                    for index, relay in enumerate(relays):
                        local = request_local_stats(relay.host, relay.port)
                        assert local.counter("depth") == index + 1
                        assert (
                            local.counter("broadcasts_down")
                            == STORMS * ROUNDS
                        )
                        assert local.counter("dupes_dropped") == 0
                        assert local.counter("unicast_down") == 0
                        expected = (
                            STORMS * ROUNDS * N_SUBS
                            if relay is deepest else 0
                        )
                        assert (
                            local.counter("broadcast_deliveries") == expected
                        )
            finally:
                for relay in reversed(relays):
                    relay.stop()
        timings[depth] = Measurement(
            mean=sum(walls) / len(walls),
            minimum=min(walls),
            maximum=max(walls),
            rounds=len(walls),
        )

    print("\nfan-out storm (%d x %d frames x %d subscribers, %d-byte payload)"
          % (STORMS, ROUNDS, N_SUBS, len(PAYLOAD)))
    for depth in DEPTHS:
        m = timings[depth]
        print("  depth %d: min %7.1fms  mean %7.1fms"
              % (depth, m.minimum * 1e3, m.mean_ms))

    # The acceptance number: two extra hops cost two extra loopback
    # frame forwards for the *inbound* frame only -- the N-subscriber
    # push happens exactly once either way -- so a 3-deep chain must
    # complete the storm within 2x the single-relay wall.  Min-of-storms
    # is the comparison: the first storm on a fresh chain can pay
    # one-off warmup (allocator, socket autotuning) that is not a
    # depth effect.
    assert timings[3].minimum <= 2.0 * timings[1].minimum, (
        "depth-3 fan-out %.1fms exceeded 2x depth-1 %.1fms"
        % (timings[3].minimum * 1e3, timings[1].minimum * 1e3)
    )


def test_deep_chain_churn_at_scale():
    """The ISSUE-6 acceptance run: churn at N=256 behind 3 chained relay
    processes, every engine invariant asserted per phase, and accounting
    byte-identical to the relay-free in-memory run."""
    base = bucketed(churn_scenario(subscribers=256))
    chained = with_relays(base, 3)
    assert chained.phases[0].count >= 256
    assert len(chained.topology) == 3

    tcp = run_scenario(chained, driver="tcp")
    print()
    print(tcp.format())

    memory = run_scenario(base, driver="memory")

    # The relay tier is pure routing: same protocol traffic, byte for
    # byte, frame for frame, as the single in-memory broker -- no
    # unicast rekeys appeared, no frame crossed the accounting log
    # twice.  (Per-hop exactly-once was already asserted per phase by
    # check_relay_hops inside the engine.)
    assert tcp.bytes_by_kind() == memory.bytes_by_kind()
    assert [p.frames for p in tcp.phases] == [p.frames for p in memory.phases]
    for report in (tcp, memory):
        assert report.params["members_total"] >= 256
        assert all(p.rekeys >= 1 for p in report.phases)
