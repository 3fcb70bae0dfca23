"""Socket-runtime overhead vs the in-memory router.

Companion to ``test_wire_overhead.py``: that file pins the paper's
bandwidth claims (bytes on the router); this one measures what the
``repro.net`` layer adds on top -- registrations/sec and broadcast
fan-out latency over loopback TCP through the broker, against the same
protocol run on ``InMemoryTransport``.  Both backends carry *identical*
frames, which the kind-count/byte comparisons verify; the network can
only add transport cost, never traffic.

Numbers are printed for the record (EXPERIMENTS-style); assertions are
functional (everything completes, traffic identical) plus generous
sanity ceilings, so the suite stays robust on loaded CI hosts.
"""

import random
import time

from repro.documents.model import Document
from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.net.runtime import BrokerThread, pump_until, wait_until_quiet
from repro.net.transport import TcpTransport
from repro.policy.acp import parse_policy
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher
from repro.system.service import (
    DisseminationService,
    SubscriberClient,
    run_until_idle,
)
from repro.system.subscriber import Subscriber
from repro.system.transport import InMemoryTransport

N_SUBS = 8
ATTRIBUTE_BITS = 8

REGISTRATION_KINDS = (
    "condition-query",
    "condition-list",
    "token+condition-request",
    "registration-ack",
    "ocbe-bit-commitments",
    "ocbe-envelope",
)


def _build_entities(seed):
    rng = random.Random(seed)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    publisher = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=ATTRIBUTE_BITS, rng=rng,
    )
    publisher.add_policy(parse_policy("clearance >= 3", ["body"], "doc"))
    subs = []
    for i in range(N_SUBS):
        name = "user%d" % i
        idp.enroll(name, "clearance", 5)
        sub = Subscriber(idmgr.assign_pseudonym(), publisher.params, rng=rng)
        token, x, r = idmgr.issue_token(
            sub.nym, idp.assert_attribute(name, "clearance"), rng=rng
        )
        sub.hold_token(token, x, r)
        subs.append(sub)
    return publisher, subs


def _run_lifecycle(transport, publisher, subs, networked):
    """Register everyone, broadcast once; returns phase timings."""
    service = DisseminationService(publisher, transport)
    clients = [SubscriberClient(sub, transport, "pub") for sub in subs]
    endpoints = [service, *clients]

    t0 = time.perf_counter()
    for client in clients:
        client.register_all_attributes()
    if networked:
        pump_until(
            endpoints,
            lambda: all(
                not c.registering() and c.results.get("clearance") for c in clients
            ),
            timeout=120.0,
        )
        wait_until_quiet(transport, endpoints, timeout=120.0)
    else:
        run_until_idle(endpoints)
    t_register = time.perf_counter() - t0

    document = Document.of("doc", {"body": b"payload" * 64})
    t0 = time.perf_counter()
    service.publish(document)
    if networked:
        pump_until(endpoints, lambda: all(c.packages for c in clients), timeout=120.0)
    else:
        run_until_idle(endpoints)
    t_broadcast = time.perf_counter() - t0

    for client in clients:
        assert client.latest_plaintexts()["body"] == b"payload" * 64
    return t_register, t_broadcast


class TestNetThroughput:
    def test_loopback_tcp_vs_inmemory(self):
        memory = InMemoryTransport()
        publisher, subs = _build_entities(seed=0xBEEF)
        mem_register, mem_broadcast = _run_lifecycle(
            memory, publisher, subs, networked=False
        )

        publisher, subs = _build_entities(seed=0xBEEF)
        with BrokerThread() as broker:
            with TcpTransport(broker.host, broker.port) as tcp:
                tcp_register, tcp_broadcast = _run_lifecycle(
                    tcp, publisher, subs, networked=True
                )
                network = tcp.snapshot()

        print("\n-- %d subscribers, l=%d ----------------------------------"
              % (N_SUBS, ATTRIBUTE_BITS))
        print("registrations/sec   in-memory %8.1f   loopback TCP %8.1f"
              % (N_SUBS / mem_register, N_SUBS / tcp_register))
        print("registration wall   in-memory %7.3fs   loopback TCP %7.3fs"
              % (mem_register, tcp_register))
        print("broadcast fan-out   in-memory %7.1fms  loopback TCP %7.1fms"
              % (mem_broadcast * 1e3, tcp_broadcast * 1e3))

        # Identical protocol traffic on both backends: same message mix...
        assert network.kinds_count() == memory.kinds_count()
        # ...and the same O(l) registration byte trajectory (transcript
        # sizes are value-independent by design; tiny per-run variation
        # comes only from length-prefixed signature scalars).
        mem_bytes = sum(
            m.size for m in memory.messages if m.kind in REGISTRATION_KINDS
        )
        net_bytes = sum(
            m.size for m in network.messages if m.kind in REGISTRATION_KINDS
        )
        print("registration bytes  in-memory %8d   loopback TCP %8d"
              % (mem_bytes, net_bytes))
        assert abs(net_bytes - mem_bytes) <= 0.02 * mem_bytes
        # Broadcast stays one multicast transmission on the network too.
        assert len([m for m in network.messages
                    if m.kind == "broadcast-package"]) == 1
        # Generous sanity ceiling, not a perf gate: the socket hop must not
        # change the complexity class of an 8-subscriber registration run.
        assert tcp_register < max(60.0, 50 * mem_register)

    def test_fanout_latency_grows_gently_with_population(self):
        """Broadcast latency over TCP: one frame in, N pushes out.  The
        per-subscriber cost must look linear-ish, never quadratic."""
        timings = {}
        for n in (4, 16):
            rng = random.Random(1000 + n)
            with BrokerThread() as broker:
                with TcpTransport(broker.host, broker.port) as tcp:
                    tcp.register("pub")
                    receivers = ["sub%02d" % i for i in range(n)]
                    for name in receivers:
                        tcp.register(name)
                    payload = rng.randbytes(4096)
                    t0 = time.perf_counter()
                    deadline = t0 + 60.0
                    tcp.broadcast("pub", "pkg", payload)
                    got = {name: 0 for name in receivers}
                    while not all(got.values()):
                        assert time.perf_counter() < deadline, (
                            "fan-out stalled: %s" % {
                                k: v for k, v in got.items() if not v
                            },
                        )
                        for name in receivers:
                            got[name] += len(tcp.poll(name))
                    timings[n] = time.perf_counter() - t0
        print("\nbroadcast fan-out latency: %s"
              % {n: "%.1fms" % (t * 1e3) for n, t in timings.items()})
        per_sub = {n: t / n for n, t in timings.items()}
        assert per_sub[16] < 50 * per_sub[4], "fan-out cost exploded"
