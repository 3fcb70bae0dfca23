"""The five benchmark workloads: worlds built from ``repro``'s public classes.

Every world is closed loop with one operation in flight, driven by the
harness thread.  The seed drives attribute draws, who is revoked and the
payload bytes; the program sees only those generated inputs.  Attribute
draws are *stratified*: a fixed share of every population sits below the
body threshold, between the thresholds and above the VIP threshold, and
the seed only decides who and with which value -- so the amount of work
(rows per ACV, derives per publish, bytes per header) is the same on
every seed and a timing can be compared across seeds.

A world checks its own outputs against an oracle that knows only the
drawn values and the two thresholds: after each operation every client's
plaintexts are compared byte for byte with what that member must (or must
not) hold.  :meth:`World.run_op` returns that verdict; the parts of an
operation that count as its latency run inside the harness's clock
(``with clock:``), oracle checks and input generation run outside it.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from perf import SRC
from repro.documents import Document
from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.policy import parse_condition, parse_policy
from repro.store import SubscriberPersistence
from repro.system import (
    DisseminationService,
    IdentityManager,
    IdentityManagerEndpoint,
    IdentityProvider,
    InMemoryTransport,
    Publisher,
    Subscriber,
    SubscriberClient,
    run_until_idle,
)

GROUP = "nist-p192"
ATTRIBUTE_BITS = 8
BODY_MIN = 40
VIP_MIN = 80
#: Value bands: entitled to nothing / the body segments / body and VIP.
BANDS = ((0, BODY_MIN - 1), (BODY_MIN, VIP_MIN - 1), (VIP_MIN, 99))
#: Population share of each band (quarters), the same in every world
#: unless a workload says otherwise.
SHARES = (1, 2, 1)


def draw_bands(rng: random.Random, count: int, shares=SHARES) -> List[int]:
    """``count`` band indices in the fixed ``shares`` mix, shuffled."""
    total = sum(shares)
    bands: List[int] = []
    for band, share in enumerate(shares):
        bands.extend([band] * (count * share // total))
    # Rounding remainder goes to the middle band (none at the shipped sizes).
    bands.extend([1] * (count - len(bands)))
    rng.shuffle(bands)
    return bands


def draw_value(rng: random.Random, band: int) -> int:
    low, high = BANDS[band]
    return rng.randint(low, high)


class Member:
    """One subscriber and what the oracle knows about it."""

    __slots__ = ("user", "nym", "band", "value", "subscriber", "client",
                 "persistence", "assertion", "publisher")

    def __init__(self, user: str, nym: str, band: int, value: int):
        self.user = user
        self.nym = nym
        self.band = band
        self.value = value
        self.subscriber: Optional[Subscriber] = None
        self.client: Optional[SubscriberClient] = None
        self.persistence = None
        self.assertion = None
        self.publisher = ""


class Feed:
    """One publisher with the feed policy pair over its own attribute:
    ``>= BODY_MIN`` unlocks the body segments, ``>= VIP_MIN`` the VIP ones.
    """

    def __init__(self, world: "World", name: str, body: Sequence[str],
                 vip: Sequence[str], segment_bytes: int):
        self.name = name
        self.attribute = "%s_clr" % name
        self.document = "%s-feed" % name
        self.body = tuple(body)
        self.vip = tuple(vip)
        self.segment_bytes = segment_bytes
        self.publisher = Publisher(
            name, world.idmgr.params, world.idmgr.public_key,
            gkm_field=FAST_FIELD, attribute_bits=ATTRIBUTE_BITS,
            rng=world.rng("publisher/%s" % name),
        )
        texts = {BODY_MIN: self.body, VIP_MIN: self.vip}
        #: condition key -> threshold, the oracle's view of the policies.
        self.thresholds: Dict[str, int] = {}
        for threshold, segments in texts.items():
            text = "%s >= %d" % (self.attribute, threshold)
            self.publisher.add_policy(
                parse_policy(text, list(segments), self.document)
            )
            self.thresholds[parse_condition(text).key()] = threshold
        self.service = DisseminationService(self.publisher, world.transport)
        self._payload_rng = world.rng("payload/%s" % name)

    def next_document(self) -> Document:
        """A fresh document of the fixed shape with seeded payload bytes."""
        return Document.of(self.document, {
            segment: self._payload_rng.randbytes(self.segment_bytes)
            for segment in self.body + self.vip
        })

    def expected(self, member: Member, document: Document) -> Dict[str, bytes]:
        """What ``member`` must decrypt from ``document`` (oracle)."""
        segments: Tuple[str, ...] = ()
        if member.value >= BODY_MIN:
            segments += self.body
        if member.value >= VIP_MIN:
            segments += self.vip
        return {name: document.get(name).content for name in segments}


class World:
    """Shared world plumbing; subclasses are the workloads."""

    #: Workload name and the throughput unit one operation completes.
    name = ""
    unit = ""
    #: Whether the world runs over ``TcpTransport`` (``net.*`` applies).
    networked = False

    def __init__(self, seed: int, size: dict, workdir: str):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.members: List[Member] = []
        self._users = 0

    def rng(self, role: str) -> random.Random:
        return random.Random("%d/%s/%s" % (self.seed, self.name, role))

    # -- construction --------------------------------------------------------

    def build(self) -> None:
        group = get_group(GROUP)
        self.idp = IdentityProvider("idp", group, rng=self.rng("idp"))
        self.idmgr = IdentityManager(group, rng=self.rng("idmgr"))
        self.idmgr.trust_idp(self.idp)
        self.transport = self.make_transport()
        self.populate()

    def make_transport(self):
        return InMemoryTransport()

    def populate(self) -> None:
        raise NotImplementedError

    def new_member(self, feed: Feed, band: int, value: int) -> Member:
        """Enroll a user and build its subscriber; no credentials yet."""
        member = Member("u%05d" % self._users, self.idmgr.assign_pseudonym(),
                        band, value)
        self._users += 1
        member.publisher = feed.name
        self.idp.enroll(member.user, feed.attribute, value)
        member.assertion = self.idp.assert_attribute(member.user, feed.attribute)
        member.subscriber = Subscriber(
            member.nym, feed.publisher.params,
            rng=self.rng("subscriber/%s" % member.user),
        )
        return member

    def connect(self, member: Member, **client_kw) -> None:
        member.client = SubscriberClient(
            member.subscriber, self.transport, member.publisher, **client_kw
        )

    def grant(self, feed: Feed, member: Member) -> None:
        """Registration without the OCBE exchange, public calls only: the
        publisher mints a CSS per condition and the member keeps the ones
        its value satisfies -- exactly what an OCBE open would yield."""
        token, x, r = self.idmgr.issue_token(member.nym, member.assertion)
        member.subscriber.hold_token(token, x, r)
        for condition in feed.publisher.conditions_for_attribute(feed.attribute):
            offer = feed.publisher.open_registration(token, condition)
            if member.value >= feed.thresholds[condition.key()]:
                member.subscriber.store_css(condition.key(), offer.css)

    # -- the operation -------------------------------------------------------

    def run_op(self, clock) -> bool:
        """One operation; True when every oracle check passed."""
        raise NotImplementedError

    def between_ops(self) -> None:
        """Untimed settling between two samples."""

    def wire_bytes(self) -> int:
        """Accounted transport bytes so far, from the transport's own log."""
        return sum(message.size for message in self.transport.messages)

    def cache_stats(self) -> Dict[str, int]:
        totals = {"hits": 0, "misses": 0, "extends": 0}
        for feed in self.feeds:
            stats = feed.publisher.acv_cache_stats()
            for key in totals:
                totals[key] += stats[key]
        return totals

    def server_stats(self) -> Dict[str, int]:
        """Server-process counters (networked worlds only)."""
        return {}

    def close(self) -> None:
        """Release what the world opened (servers, connections)."""


# -- fan-out worlds ------------------------------------------------------------


class FanoutWorld(World):
    """One publisher, a fixed provisioned membership, one publish per op."""

    unit = "deliveries"
    shares = SHARES
    body = ("body",)
    vip = ("vip",)

    def populate(self) -> None:
        self.feed = Feed(self, "alpha", self.body, self.vip,
                         self.size["segment_bytes"])
        self.feeds = [self.feed]
        rng = self.rng("population")
        for band in draw_bands(rng, self.size["members"], self.shares):
            self.join(band, draw_value(rng, band))

    def join(self, band: int, value: int) -> Member:
        member = self.new_member(self.feed, band, value)
        self.attach(member)
        # history_limit=1: a client that kept every package would grow the
        # process by one decoded header per member per publish.
        self.connect(member, history_limit=1)
        self.grant(self.feed, member)
        self.members.append(member)
        return member

    def attach(self, member: Member) -> None:
        """Hook: choose the member's attach point before it connects."""

    def clients(self) -> list:
        return [member.client for member in self.members]

    def units_per_op(self) -> int:
        return len(self.members)

    def deliver(self, package) -> None:
        run_until_idle(self.clients())

    def publish_and_deliver(self, document: Document):
        package = self.feed.service.publish(document)
        self.deliver(package)
        return package

    def check(self, document: Document, package, revoked=()) -> bool:
        """Every client holds this package, every entitled member exactly
        the right plaintexts and everyone else none."""
        marker = package.subdocuments[0].ciphertext
        ok = True
        for member in self.members:
            client = member.client
            held = client.packages and (
                client.packages[-1].subdocuments[0].ciphertext == marker
            )
            want = {} if member in revoked else self.feed.expected(member, document)
            if not held or client.latest_plaintexts() != want or client.failures:
                ok = False
        return ok

    def run_op(self, clock) -> bool:
        document = self.feed.next_document()
        with clock:
            package = self.publish_and_deliver(document)
        return self.check(document, package)


class SteadyFanout(FanoutWorld):
    name = "steady_fanout"


class BulkPayload(FanoutWorld):
    """Few members, all entitled to everything, large segments."""

    name = "bulk_payload"
    shares = (0, 0, 1)
    body = ("body1", "body2")
    vip = ("vip1", "vip2")


class ChurnRekey(FanoutWorld):
    """Revoke k -> rekey, then k fresh joins -> rekey, per operation."""

    name = "churn_rekey"
    unit = "rekeys"

    def populate(self) -> None:
        super().populate()
        self._schedule = self.rng("schedule")

    def units_per_op(self) -> int:
        return 2

    def revoke(self, nyms: Sequence[str]) -> int:
        return self.feed.publisher.revoke_subscriptions(nyms)

    def run_op(self, clock) -> bool:
        victims = self._schedule.sample(self.members, self.size["churn"])
        document = self.feed.next_document()
        with clock:
            self.revoke([member.nym for member in victims])
            package = self.publish_and_deliver(document)
        ok = self.check(document, package, revoked=victims)
        # The leavers stop listening; each joiner takes its leaver's band,
        # so the entitlement mix of the population is stationary.
        self.members = [m for m in self.members if m not in victims]
        joiners = []
        for victim in victims:
            member = self.new_member(
                self.feed, victim.band, draw_value(self._schedule, victim.band)
            )
            self.connect(member, history_limit=1)
            joiners.append(member)
        document = self.feed.next_document()
        with clock:
            for member in joiners:
                self.grant(self.feed, member)
            self.members.extend(joiners)
            package = self.publish_and_deliver(document)
        return self.check(document, package) and ok


class TcpTree(FanoutWorld):
    """The ``steady_fanout`` population over a root broker and one relay,
    half the members attached at each."""

    name = "tcp_tree"
    networked = True
    timeout = 30.0

    def make_transport(self):
        from repro.net.transport import TcpTransport

        if self.size["servers"] == "process":
            root, self.relay_endpoint = self._spawn_processes()
        else:
            root, self.relay_endpoint = self._start_threads()
        self._relay_members: List[str] = []
        return TcpTransport(*root, timeout=self.timeout)

    def _spawn_processes(self):
        from repro.net.runtime import ProcessSupervisor, wait_for_file

        self._supervisor = ProcessSupervisor()
        env = dict(os.environ, PYTHONPATH=SRC)
        endpoints = []
        for name, module, extra in (
            ("broker", "repro.net.broker", ()),
            ("relay", "repro.net.relay", ("--relay-id", "relay1")),
        ):
            port_file = os.path.join(self.workdir, "%s.port" % name)
            if os.path.exists(port_file):
                os.remove(port_file)
            if endpoints:
                extra += ("--upstream", "%s:%d" % endpoints[0])
            self._supervisor.spawn_module(
                module, *extra, "--port", "0", "--port-file", port_file,
                name=name, env=env,
            )
            host, _, port = wait_for_file(port_file, self.timeout).strip().rpartition(":")
            endpoints.append((host, int(port)))
        self._pin()
        return endpoints

    def _pin(self) -> None:
        """Servers on the last allowed CPU, the harness on the others.

        Unpinned, where the scheduler happens to place the two servers
        relative to the harness thread decides how many ``pump_until``
        sleep quanta a publish pays, and that placement differs from run
        to run by more than any code change would."""
        if not hasattr(os, "sched_setaffinity"):
            return
        self._affinity = os.sched_getaffinity(0)
        cpus = sorted(self._affinity)
        if len(cpus) < 2:
            return
        for _, process in self._supervisor.processes:
            os.sched_setaffinity(process.pid, {cpus[-1]})
        os.sched_setaffinity(0, set(cpus[:-1]))

    def _start_threads(self):
        from repro.net.runtime import BrokerThread, RelayThread

        self._broker_thread = BrokerThread()
        self._relay_thread = RelayThread("relay1", *self._broker_thread.endpoint)
        return self._broker_thread.endpoint, self._relay_thread.endpoint

    def attach(self, member: Member) -> None:
        if len(self.members) % 2:
            self.transport.set_attach_point(member.nym, *self.relay_endpoint)
            self._relay_members.append(member.nym)

    def relay_members(self) -> frozenset:
        return frozenset(self._relay_members)

    def deliver(self, package) -> None:
        from repro.net.runtime import pump_until

        marker = package.subdocuments[0].ciphertext
        clients = self.clients()

        def everyone_holds_it() -> bool:
            return all(
                c.packages and c.packages[-1].subdocuments[0].ciphertext == marker
                for c in clients
            )

        pump_until(clients, everyone_holds_it, timeout=self.timeout)

    def between_ops(self) -> None:
        from repro.net.runtime import wait_until_quiet

        wait_until_quiet(self.transport, self.clients(),
                         settle=self.size["settle"], timeout=self.timeout)

    def wire_bytes(self) -> int:
        return sum(m.size for m in self.transport.snapshot().messages)

    def server_stats(self) -> Dict[str, int]:
        from repro.net.relay import request_local_stats

        broker = self.transport.stats()
        relay = request_local_stats(*self.relay_endpoint, timeout=self.timeout)
        return {
            "broker_delivered": broker.delivered_total,
            "broker_pending": broker.pending,
            "broker_dropped": broker.dropped,
            "relay_delivered": relay.delivered_total,
            "relay_dropped": relay.dropped,
        }

    def close(self) -> None:
        transport = getattr(self, "transport", None)
        if transport is not None:
            transport.close()
        for attr in ("_relay_thread", "_broker_thread"):
            thread = getattr(self, attr, None)
            if thread is not None:
                thread.stop()
        supervisor = getattr(self, "_supervisor", None)
        if supervisor is not None:
            supervisor.shutdown()
        if getattr(self, "_affinity", None):
            os.sched_setaffinity(0, self._affinity)


# -- registration ----------------------------------------------------------------


class JoinWave(World):
    """Waves of arrivals registering over the wire with full OCBE."""

    name = "join_wave"
    unit = "joins"

    def populate(self) -> None:
        self.feeds = [
            Feed(self, name, ("body",), ("vip",), self.size["segment_bytes"])
            for name in ("alpha", "beta")
        ]
        self.idmgr_ep = IdentityManagerEndpoint(self.idmgr, self.transport)
        self._population = self.rng("population")
        self._waves = 0

    def units_per_op(self) -> int:
        return self.size["wave"]

    def _arrivals(self) -> List[Tuple[Feed, Member]]:
        """The next wave: members alternate between the two publishers and
        every wave has the same band mix per publisher."""
        per_feed = self.size["wave"] // len(self.feeds)
        wave_dir = os.path.join(self.workdir, "wave%05d" % self._waves)
        self._waves += 1
        arrivals = []
        for feed in self.feeds:
            for band in draw_bands(self._population, per_feed):
                member = self.new_member(
                    feed, band, draw_value(self._population, band)
                )
                member.persistence = SubscriberPersistence.attach(
                    os.path.join(wave_dir, member.user), member.subscriber,
                    sync=False,
                )
                self.connect(member, persistence=member.persistence)
                arrivals.append((feed, member))
        return arrivals

    def run_op(self, clock) -> bool:
        arrivals = self._arrivals()
        endpoints = [self.idmgr_ep] + [feed.service for feed in self.feeds]
        endpoints += [member.client for _, member in arrivals]
        try:
            with clock:
                for feed, member in arrivals:
                    member.client.request_token(
                        feed.attribute, assertion=member.assertion
                    )
                run_until_idle(endpoints)
                for _, member in arrivals:
                    member.client.register_all_attributes()
                run_until_idle(endpoints)
            return all(self._registered(feed, member) for feed, member in arrivals)
        finally:
            # Registered members leave the harness: their journals close
            # so a long window does not accumulate open files.
            for _, member in arrivals:
                member.persistence.close()

    @staticmethod
    def _registered(feed: Feed, member: Member) -> bool:
        """The member finished every condition, extracted exactly the CSSs
        its value entitles it to, and they are the publisher's."""
        client = member.client
        if client.registering() or client.failures:
            return False
        want = {key: member.value >= t for key, t in feed.thresholds.items()}
        if client.results.get(feed.attribute) != want:
            return False
        held = member.subscriber.css_store
        if set(held) != {key for key, entitled in want.items() if entitled}:
            return False
        return all(feed.publisher.table.get(member.nym, key) == css
                   for key, css in held.items())


WORKLOADS = {cls.name: cls for cls in
             (JoinWave, SteadyFanout, BulkPayload, ChurnRekey, TcpTree)}

#: Committed sizes.  ``full`` is what BENCHMARK.json measures, for as many
#: operations as fit the window; ``smoke`` is the tier-1 scale (threads
#: instead of server processes, ``ops`` operations per block).
SIZES = {
    "full": {
        "join_wave": {"wave": 8, "segment_bytes": 128},
        "steady_fanout": {"members": 64, "segment_bytes": 128},
        "bulk_payload": {"members": 8, "segment_bytes": 8192},
        "churn_rekey": {"members": 192, "churn": 4, "segment_bytes": 128},
        "tcp_tree": {"members": 64, "segment_bytes": 128,
                     "servers": "process", "settle": 0.02},
    },
    "smoke": {
        "join_wave": {"wave": 2, "segment_bytes": 128, "ops": 1},
        "steady_fanout": {"members": 8, "segment_bytes": 128, "ops": 5},
        "bulk_payload": {"members": 2, "segment_bytes": 1024, "ops": 1},
        "churn_rekey": {"members": 12, "churn": 2, "segment_bytes": 128, "ops": 1},
        "tcp_tree": {"members": 8, "segment_bytes": 128,
                     "servers": "thread", "settle": 0.02, "ops": 5},
    },
}

__all__ = ["WORKLOADS", "SIZES", "World"]
