"""The load engine: run a :class:`~repro.load.spec.LoadScenario`.

One engine owns a complete world -- IdP, IdMgr, one
:class:`~repro.system.service.DisseminationService` per publisher spec,
and a churning population of :class:`~repro.system.service.
SubscriberClient` members -- and executes the scenario's phases against
one of two drivers:

* ``memory`` -- everything rides the in-process
  :class:`~repro.system.transport.InMemoryTransport` and settles with
  :func:`~repro.system.service.run_until_idle`.  This is the CI smoke
  scale: deterministic, sub-second, no sockets.
* ``tcp`` -- every entity gets its own broker connection through a
  shared :class:`~repro.net.transport.TcpTransport`; the broker runs on
  a background thread (:class:`~repro.net.runtime.BrokerThread`) or,
  with ``broker="process"``, as a separate OS process supervised by
  :class:`~repro.net.runtime.ProcessSupervisor` -- every frame then
  crosses a real process boundary.  Settling uses
  :func:`~repro.net.runtime.pump_until` /
  :func:`~repro.net.runtime.wait_until_quiet`.

Every member owns a durable data dir (:mod:`repro.store`), which is what
makes the ``flap`` phase honest: a flapped member's client, connection
and in-memory state are dropped exactly like a SIGKILLed
``python -m repro.net.subscriber --data-dir`` process, and recovery goes
through :meth:`SubscriberPersistence.attach` + ``reuse_css=True`` -- no
re-registration, zero unicast.

Every phase ends in a rekey (each publisher re-broadcasts its
documents) followed by the :mod:`repro.load.invariants` checks, so a
scenario that completes has proven lockout, derivation and
zero-unicast after *each* membership change, not just at the end.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import tempfile
import time
from typing import Dict, List, Optional

from repro.errors import LoadScenarioError
from repro.load import invariants
from repro.load.metrics import LoadReport, MetricsCollector
from repro.load.spec import GKM_FIELDS, LoadScenario, PhaseSpec, PublisherSpec
from repro.obs.profile import observing, profile_window
from repro.store import SubscriberPersistence
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher
from repro.system.service import (
    DisseminationService,
    IdentityManagerEndpoint,
    SubscriberClient,
    run_until_idle,
)
from repro.system.subscriber import Subscriber
from repro.system.transport import InMemoryTransport
from repro.workloads.generator import draw_attribute_values

__all__ = ["LoadEngine", "Member", "run_scenario"]

DRIVERS = ("memory", "tcp")
BROKERS = ("thread", "process")


class Member:
    """One subscriber's engine-side bookkeeping."""

    __slots__ = (
        "user", "publisher", "attributes", "nym", "subscriber", "client",
        "persistence", "data_dir", "alive", "revoked", "expected_packages",
        "flaps",
    )

    def __init__(self, user: str, publisher: str, attributes: Dict[str, int],
                 nym: str, data_dir: str):
        self.user = user
        self.publisher = publisher
        self.attributes = attributes
        self.nym = nym
        self.data_dir = data_dir
        self.subscriber: Optional[Subscriber] = None
        self.client: Optional[SubscriberClient] = None
        self.persistence: Optional[SubscriberPersistence] = None
        self.alive = False
        self.revoked = False
        #: Broadcast packages the member's *current* client object is owed
        #: (reset when a flap replaces the client; frames published while
        #: dead stay queued broker/inbox-side and count toward the new one).
        self.expected_packages = 0
        self.flaps = 0


class LoadEngine:
    """Runs one scenario; create per run (worlds are not reusable)."""

    def __init__(
        self,
        scenario: LoadScenario,
        driver: str = "memory",
        broker: str = "thread",
        data_root: Optional[str] = None,
        timeout: float = 120.0,
        obs_dir: Optional[str] = None,
        profile_dir: Optional[str] = None,
    ):
        scenario.validate()
        if driver not in DRIVERS:
            raise LoadScenarioError("driver must be one of %s" % (DRIVERS,))
        if broker not in BROKERS:
            raise LoadScenarioError("broker must be one of %s" % (BROKERS,))
        if scenario.topology and driver != "tcp":
            raise LoadScenarioError(
                "scenario %r declares a relay topology; only the tcp driver "
                "can deploy one (relays are real OS processes)"
                % scenario.name
            )
        self.scenario = scenario
        self.driver = driver
        self.broker_mode = broker
        self.timeout = timeout
        #: Root of the per-entity ``obs.jsonl`` span logs (broker and
        #: relays get subdirectories); ``None`` = no span telemetry.
        self.obs_dir = obs_dir
        #: Directory for opt-in cProfile aggregates around the join and
        #: rekey hot paths; ``None`` = never construct a profiler.
        self.profile_dir = profile_dir
        #: The engine process's own span writer (local endpoints -- the
        #: services, the idmgr endpoint, every member client -- share
        #: it; the ``ep`` span field disambiguates).  Installed as the
        #: process-global stage writer too, so the store/gkm/wire hot
        #: paths emit duration spans without plumbing.
        self._obs_writer = None
        #: Holds the telemetry scope ``start()`` enters until ``close()``.
        self._telemetry = contextlib.ExitStack()
        #: The post-run :class:`repro.obs.analyze.Analysis`, for callers
        #: (benchmarks) that want the stitched traces themselves.
        self.last_analysis = None
        self.members: Dict[str, Member] = {}
        self.services: Dict[str, DisseminationService] = {}
        self.metrics = MetricsCollector()
        self._specs = {spec.name: spec for spec in scenario.publishers}
        self._documents = {
            spec.name: [d.build() for d in spec.documents]
            for spec in scenario.publishers
        }
        self._expected_conditions = {
            spec.name: spec.conditions_per_attribute()
            for spec in scenario.publishers
        }
        self._population_rng = random.Random("%s/population" % scenario.seed)
        self._schedule_rng = random.Random("%s/schedule" % scenario.seed)
        self._user_counter = 0
        self._join_counter = 0
        self._attach_counter = 0
        #: Relay name -> bound (host, port), in topology (= spawn) order.
        self._relay_endpoints: Dict[str, tuple] = {}
        #: Leaf relays' endpoints; members attach round-robin across them.
        self._leaf_relays: List[tuple] = []
        self._started = False
        self._closed = False
        self._broker_thread = None
        self._supervisor = None
        self._owns_data_root = data_root is None
        self.data_root = data_root or tempfile.mkdtemp(prefix="repro-load-")
        #: Accounting records of the most recent rekey window (what the
        #: zero-unicast invariant inspects).
        self.last_rekey_records: list = []
        self.last_rekey_broadcasts = 0
        #: ``(publisher name, BroadcastPackage)`` of the most recent rekey
        #: window (what the bucket-layout invariant inspects).
        self.last_rekey_packages: list = []
        #: Relay name -> (before, after) local-stats samples bracketing
        #: the most recent *globally quiet* rekey window (what the
        #: per-hop invariants inspect; empty without a relay topology).
        self.last_rekey_relay_stats: Dict[str, tuple] = {}
        #: Wall time spent inside ``service.publish`` during the most
        #: recent rekey window -- the publisher-side matrix-build cost,
        #: isolated from settling/delivery (the number the dense-vs-
        #: bucketed comparison gates on).
        self.last_rekey_publish_s = 0.0

    # -- world construction --------------------------------------------------

    def start(self) -> "LoadEngine":
        if self._started:
            return self
        scenario = self.scenario
        from repro.groups import get_group

        group = get_group(scenario.group)
        system_rng = random.Random("%s/system" % scenario.seed)
        self.idp = IdentityProvider("idp", group, rng=system_rng)
        self.idmgr = IdentityManager(group, rng=system_rng)
        self.idmgr.trust_idp(self.idp)
        self.transport = self._build_transport()
        for spec in scenario.publishers:
            publisher = Publisher(
                spec.name,
                self.idmgr.params,
                self.idmgr.public_key,
                gkm_field=GKM_FIELDS[scenario.gkm_field],
                attribute_bits=scenario.attribute_bits,
                capacity_slack=scenario.capacity_slack,
                rng=random.Random(
                    "%s/publisher/%s" % (scenario.seed, spec.name)
                ),
                gkm=scenario.gkm,
                gkm_bucket_size=scenario.gkm_bucket_size or None,
                acv_cache=scenario.acv_cache,
            )
            for policy in spec.parsed_policies():
                publisher.add_policy(policy)
            self.services[spec.name] = DisseminationService(
                publisher, self.transport
            )
        self.idmgr_ep = IdentityManagerEndpoint(
            self.idmgr, self.transport, name="idmgr"
        )
        obs_dir = os.path.join(self.obs_dir, "engine") if self.obs_dir else None
        self._obs_writer, _ = self._telemetry.enter_context(
            observing(obs_dir, self.profile_dir, "engine")
        )
        self.idmgr_ep.span_writer = self._obs_writer
        for service in self.services.values():
            service.span_writer = self._obs_writer
        self.params = self.services[scenario.publishers[0].name].publisher.params
        self._started = True
        return self

    def _build_transport(self):
        if self.driver == "memory":
            return InMemoryTransport()
        from repro.net._cli import parse_endpoint
        from repro.net.runtime import (
            BrokerThread,
            ProcessSupervisor,
            wait_for_file,
        )
        from repro.net.transport import TcpTransport

        if self.broker_mode == "process":
            # The broker as a real OS process: every frame of the run
            # crosses a process boundary, exactly like the deployed
            # ``python -m repro.net.*`` topology.
            self._supervisor = ProcessSupervisor()
            port_file = os.path.join(self.data_root, "broker.port")
            self._supervisor.spawn_module(
                "repro.net.broker",
                "--port", "0",
                "--port-file", port_file,
                *self._obs_args("broker"),
                name="broker",
            )
            host, port = parse_endpoint(
                wait_for_file(port_file, timeout=self.timeout).strip()
            )
        else:
            broker_kw = {}
            if self.scenario.metrics_interval > 0:
                broker_kw["metrics_interval"] = self.scenario.metrics_interval
            if self.obs_dir:
                broker_kw["obs_path"] = os.path.join(
                    self.obs_dir, "broker", "obs.jsonl"
                )
            self._broker_thread = BrokerThread(**broker_kw)
            host, port = self._broker_thread.endpoint
        if self.scenario.topology:
            self._spawn_relays(host, port)
        return TcpTransport(host, port, timeout=self.timeout)

    def _spawn_relays(self, root_host: str, root_port: int) -> None:
        """Bring up the scenario's relay tree as chained OS processes.

        Topology order is spawn order (``validate`` guarantees upstreams
        come first), and each child's ``--port-file`` resolves the
        ephemeral port the next child's ``--upstream`` needs.  Relays
        are always separate processes, whatever the broker mode: the
        keyless-distribution claim is only honest across a process
        boundary.
        """
        from repro.net._cli import parse_endpoint
        from repro.net.runtime import ProcessSupervisor, wait_for_file

        if self._supervisor is None:
            self._supervisor = ProcessSupervisor()
        for relay in self.scenario.topology:
            if relay.upstream is None:
                upstream = (root_host, root_port)
            else:
                upstream = self._relay_endpoints[relay.upstream]
            port_file = os.path.join(
                self.data_root, "relay-%s.port" % relay.name
            )
            self._supervisor.spawn_module(
                "repro.net.relay",
                "--relay-id", relay.name,
                "--upstream", "%s:%d" % upstream,
                "--port", "0",
                "--port-file", port_file,
                *self._obs_args("relay-%s" % relay.name),
                name="relay-%s" % relay.name,
            )
            self._relay_endpoints[relay.name] = parse_endpoint(
                wait_for_file(port_file, timeout=self.timeout).strip()
            )
        upstreams = {
            relay.upstream for relay in self.scenario.topology
            if relay.upstream is not None
        }
        self._leaf_relays = [
            self._relay_endpoints[relay.name]
            for relay in self.scenario.topology
            if relay.name not in upstreams
        ]

    def _obs_args(self, entity: str) -> List[str]:
        """Extra CLI args wiring one spawned process into the obs tier."""
        args: List[str] = []
        if self.scenario.metrics_interval > 0:
            args += ["--metrics-interval", str(self.scenario.metrics_interval)]
        if self.obs_dir:
            args += ["--obs-dir", os.path.join(self.obs_dir, entity)]
        return args

    def _sample_obs(self) -> Dict[str, dict]:
        """Point-in-time :mod:`repro.obs` snapshots from every vantage.

        ``local`` is this process's global registry (publisher/subscriber
        timers, WAL/GKM costs); with the TCP driver ``root`` adds the
        broker's root aggregate (its own registry merged with whatever
        subtree reports relays have pushed), and each relay contributes
        its subtree's view via the monitor port.  Both are the one
        ``StatsRequest(metrics=True)`` -- control frames that never enter
        the byte accounting the invariants and phase metrics are computed
        over.
        """
        from repro.obs.metrics import get_registry

        samples: Dict[str, dict] = {"local": get_registry().snapshot()}
        if self.driver == "tcp":
            # Answered by the root whatever the asker's attach point;
            # idmgr is the one entity no phase ever disconnects.
            samples["root"] = self.transport.metrics(via="idmgr")
            if self._relay_endpoints:
                from repro.net.relay import request_local_metrics

                for name, (host, port) in self._relay_endpoints.items():
                    samples["relay:%s" % name] = request_local_metrics(
                        host, port, timeout=self.timeout
                    )
        return samples

    def _sample_relays(self) -> Dict[str, object]:
        """One local-stats probe per relay (monitor path, no name-table
        impact); empty without a topology."""
        if not self._relay_endpoints:
            return {}
        from repro.net.relay import request_local_stats

        return {
            name: request_local_stats(host, port, timeout=self.timeout)
            for name, (host, port) in self._relay_endpoints.items()
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Restores whatever global writer/profiler the host process had:
        # tests run several engines per process, and an engine must not
        # leave its (closed) writer installed for the next one.
        self._telemetry.close()
        for member in self.members.values():
            if member.persistence is not None:
                member.persistence.close()
                member.persistence = None
        # Presence checks, not _started: a failed start() may have built
        # the transport (or spawned the broker) before raising.
        transport = getattr(self, "transport", None)
        if self.driver == "tcp" and transport is not None:
            transport.close()
        if self._broker_thread is not None:
            self._broker_thread.stop()
        if self._supervisor is not None:
            self._supervisor.shutdown()
        if self._owns_data_root:
            shutil.rmtree(self.data_root, ignore_errors=True)

    def __enter__(self) -> "LoadEngine":
        try:
            return self.start()
        except BaseException:
            # __exit__ never runs when __enter__ raises: tear down here
            # or a spawned broker process / temp data root would leak.
            self.close()
            raise

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- small accessors ------------------------------------------------------

    def publisher_spec(self, name: str) -> PublisherSpec:
        return self._specs[name]

    def publisher_names(self) -> List[str]:
        return [spec.name for spec in self.scenario.publishers]

    def endpoints(self) -> list:
        live = [self.idmgr_ep, *self.services.values()]
        live.extend(
            member.client
            for member in self.members.values()
            if member.client is not None
        )
        return live

    def alive_members(self) -> List[Member]:
        return [m for m in self.members.values() if m.alive]

    def revoked_count(self) -> int:
        return sum(1 for m in self.members.values() if m.revoked)

    # -- accounting windows ----------------------------------------------------

    def accounting(self) -> InMemoryTransport:
        """The byte-accounting view, identical for both drivers."""
        if self.driver == "memory":
            return self.transport
        return self.transport.snapshot()

    def _accounting_mark(self) -> int:
        return len(self.accounting().messages)

    def _records_since(self, mark: int) -> list:
        return self.accounting().messages[mark:]

    # -- settling --------------------------------------------------------------

    def _settle(self, predicate=None, quiet: bool = True) -> None:
        """Drive the world until ``predicate`` holds (and, for the TCP
        driver, until the broker is globally quiet).

        ``quiet=False`` is required while flapped members are dead: the
        broker rightfully reports their queued broadcasts as pending, so
        global quiescence is unreachable until they reconnect.
        """
        endpoints = self.endpoints()
        if self.driver == "memory":
            run_until_idle(endpoints)
            if predicate is not None and not predicate():
                raise LoadScenarioError(
                    "world went idle before the phase condition held"
                )
            return
        from repro.net.runtime import pump_until, wait_until_quiet

        if predicate is not None:
            pump_until(endpoints, predicate, timeout=self.timeout)
        if quiet:
            wait_until_quiet(
                self.transport, endpoints, timeout=self.timeout
            )

    # -- membership operations ---------------------------------------------------

    def _spawn_member(self, publisher: str) -> Member:
        scenario = self.scenario
        user = "u%05d" % self._user_counter
        self._user_counter += 1
        spec = self._specs[publisher]
        attributes = draw_attribute_values(spec.mix(), self._population_rng)
        for name, value in sorted(attributes.items()):
            self.idp.enroll(user, name, value)
        nym = self.idmgr.assign_pseudonym()
        member = Member(
            user, publisher, attributes, nym,
            os.path.join(self.data_root, user),
        )
        subscriber = Subscriber(
            nym, self.params,
            rng=random.Random("%s/%s" % (scenario.seed, user)),
        )
        member.subscriber = subscriber
        member.persistence = SubscriberPersistence.attach(
            member.data_dir, subscriber, sync=False
        )
        if self._leaf_relays:
            # Round-robin across leaf relays, before the client's first
            # connect; the attach point sticks across flap reconnects.
            host, port = self._leaf_relays[
                self._attach_counter % len(self._leaf_relays)
            ]
            self._attach_counter += 1
            self.transport.set_attach_point(nym, host, port)
        member.client = SubscriberClient(
            subscriber,
            self.transport,
            publisher_name=publisher,
            idmgr_name="idmgr",
            persistence=member.persistence,
        )
        member.client.span_writer = self._obs_writer
        member.alive = True
        self.members[user] = member
        for name in sorted(attributes):
            member.client.request_token(
                name, assertion=self.idp.assert_attribute(user, name)
            )
        return member

    def _registration_done(self, member: Member) -> bool:
        client = member.client
        if client is None or client.registering():
            return False
        expected = self._expected_conditions[member.publisher]
        return all(
            len(client.results.get(name, {})) >= expected.get(name, 0)
            for name in member.attributes
        )

    def _join(self, phase: PhaseSpec) -> None:
        names = self.publisher_names()
        with profile_window("join"):
            fresh: List[Member] = []
            for _ in range(phase.count):
                if phase.publisher is not None:
                    target = phase.publisher
                else:
                    target = names[self._join_counter % len(names)]
                self._join_counter += 1
                fresh.append(self._spawn_member(target))
            self._settle(
                lambda: all(
                    set(m.subscriber.attribute_tags()) == set(m.attributes)
                    for m in fresh
                )
            )
            for member in fresh:
                member.client.register_all_attributes()
            self._settle(
                lambda: all(self._registration_done(m) for m in fresh)
            )

    def _pick(self, phase: PhaseSpec, verb: str) -> List[Member]:
        candidates = [
            m
            for m in self.members.values()
            if m.alive
            and not m.revoked
            and (phase.publisher is None or m.publisher == phase.publisher)
        ]
        if phase.count > len(candidates):
            raise LoadScenarioError(
                "cannot %s %d members: only %d current%s"
                % (verb, phase.count, len(candidates),
                   "" if phase.publisher is None
                   else " at %r" % phase.publisher)
            )
        return self._schedule_rng.sample(candidates, phase.count)

    def _revoke(self, phase: PhaseSpec) -> None:
        chosen = self._pick(phase, "revoke")
        by_publisher: Dict[str, List[Member]] = {}
        for member in chosen:
            by_publisher.setdefault(member.publisher, []).append(member)
        for publisher, group in by_publisher.items():
            # One batched table mutation per publisher; the single
            # publish in the rekey step that follows is then the one
            # matrix build the batching exists for.
            removed = self.services[publisher].publisher.revoke_subscriptions(
                [member.nym for member in group]
            )
            if removed != len(group):
                raise LoadScenarioError(
                    "revocation at %r removed %d of %d members"
                    % (publisher, removed, len(group))
                )
            for member in group:
                member.revoked = True

    def _kill(self, member: Member) -> None:
        """Drop a member like a SIGKILL would: durable state survives,
        everything else -- client, connection, ack debt -- is lost."""
        if member.persistence is not None:
            member.persistence.close()
        if self.driver == "tcp":
            self.transport.disconnect(member.nym)
        member.persistence = None
        member.client = None
        member.subscriber = None
        member.alive = False
        member.expected_packages = 0

    def _recover(self, member: Member) -> None:
        member.flaps += 1
        subscriber = Subscriber(
            member.nym, self.params,
            rng=random.Random(
                "%s/%s/flap%d" % (self.scenario.seed, member.user, member.flaps)
            ),
        )
        persistence = SubscriberPersistence.attach(
            member.data_dir, subscriber, sync=False
        )
        if not persistence.recovered:
            raise LoadScenarioError(
                "flap recovery of %s found no durable state" % member.user
            )
        member.subscriber = subscriber
        member.persistence = persistence
        member.client = SubscriberClient(
            subscriber,
            self.transport,
            publisher_name=member.publisher,
            idmgr_name="idmgr",
            persistence=persistence,
            # A durable CSS is a completed registration: recovery must
            # not re-run one OCBE exchange.
            reuse_css=True,
        )
        member.client.span_writer = self._obs_writer
        member.alive = True

    def _condition_keys_for(self, member: Member) -> set:
        """Condition keys the member's tokens register for (Section V-B)."""
        return {
            condition.key()
            for policy in self._specs[member.publisher].parsed_policies()
            for condition in policy.conditions
            if condition.name in member.attributes
        }

    def _flap(self, phase: PhaseSpec) -> None:
        chosen = self._pick(phase, "flap")
        # A member whose durable CSS store covers every registrable
        # condition ("warm") must recover without one registration frame.
        # A member that never satisfied some condition holds no CSS for
        # it and legitimately re-runs that OCBE exchange on recovery --
        # exactly like `python -m repro.net.subscriber --data-dir`.
        warm = {
            member.nym
            for member in chosen
            if self._condition_keys_for(member)
            <= set(member.subscriber.css_store)
        }
        for member in chosen:
            self._kill(member)
        if self._relay_endpoints:
            # A killed member's RelayDetach must reach the root *before*
            # the down-window rekey: a multicast racing the detach would
            # still be fanned toward the dead connection (at-most-once,
            # like any in-flight frame) instead of queueing in the root
            # inbox the comeback drains.  The root's relay_entities
            # counter hitting the live population is that barrier.
            expected = len(self.alive_members())
            self._settle(
                lambda: self.transport.stats().counter("relay_entities")
                == expected,
                quiet=False,
            )
        # Rekey while they are down: the remaining members must keep
        # deriving, and the missed broadcast queues for the comeback.
        # Global quiescence is unreachable (their frames are parked), so
        # settle on receipt only.
        self._rekey(quiet=False)
        # run_phase's closing rekey will overwrite last_rekey_records,
        # so the down-window -- the window this phase exists to probe --
        # must be checked here.
        invariants.check_rekey_window(
            self.last_rekey_records,
            self.publisher_names(),
            self.last_rekey_broadcasts,
            context="flap down-window",
        )
        invariants.check_bucket_layout(self, context="flap down-window")
        mark = self._accounting_mark()
        for member in chosen:
            self._recover(member)
        for member in chosen:
            member.client.register_all_attributes()
        self._settle(lambda: all(self._registration_done(m) for m in chosen))
        for record in self._records_since(mark):
            if record.kind in invariants.REGISTRATION_KINDS and (
                record.sender in warm or record.receiver in warm
            ):
                raise LoadScenarioError(
                    "flap recovery re-ran registration traffic for a "
                    "fully-provisioned member (%s %r -> %r)"
                    % (record.kind, record.sender, record.receiver)
                )

    # -- the rekey that ends every phase -----------------------------------------

    def _rekey(self, quiet: bool = True, repeat: int = 1) -> None:
        with profile_window("rekey"):
            self._rekey_inner(quiet=quiet, repeat=repeat)

    def _rekey_inner(self, quiet: bool = True, repeat: int = 1) -> None:
        mark = self._accounting_mark()
        # Per-hop counters are only meaningful over a *quiet* window (a
        # non-quiet one may still have multicasts in flight toward a
        # relay whose only members are down).
        relay_mark = self._sample_relays() if quiet else {}
        publishes = 0
        # Latest package per (publisher, document): a repeat>1 broadcast
        # re-publishes under fresh keys, and publisher.last_keys (which
        # the bucket-layout audit needs) only knows the newest ones.
        packages = {}
        publish_s = 0.0
        for _ in range(repeat):
            for name, service in self.services.items():
                for document in self._documents[name]:
                    publish_started = time.perf_counter()
                    package = service.publish(document)
                    publish_s += time.perf_counter() - publish_started
                    packages[(name, document.name)] = (name, package)
                    publishes += 1
                    for member in self.members.values():
                        if member.publisher == name:
                            member.expected_packages += 1
        self.last_rekey_packages = list(packages.values())
        self.last_rekey_publish_s = publish_s
        self._settle(
            lambda: all(
                len(m.client.packages) >= m.expected_packages
                for m in self.alive_members()
            ),
            quiet=quiet,
        )
        self.last_rekey_records = self._records_since(mark)
        self.last_rekey_broadcasts = publishes
        if relay_mark:
            after = self._sample_relays()
            self.last_rekey_relay_stats = {
                name: (relay_mark[name], after[name]) for name in relay_mark
            }
        else:
            self.last_rekey_relay_stats = {}

    # -- running ------------------------------------------------------------------

    def run_phase(self, index: int, phase: PhaseSpec) -> None:
        label = "%02d_%s" % (index, phase.kind)
        epochs_before = sum(
            service.publisher.epoch for service in self.services.values()
        )
        mark = self._accounting_mark()
        window_started = time.time()
        started = time.perf_counter()
        if phase.kind == "join":
            self._join(phase)
            self._rekey()
        elif phase.kind == "revoke":
            self._revoke(phase)
            self._rekey()
        elif phase.kind == "flap":
            self._flap(phase)
            self._rekey()
        elif phase.kind == "broadcast":
            self._rekey(repeat=phase.repeat)
        else:  # unreachable after validate(); keep the loud failure
            raise LoadScenarioError("unknown phase kind %r" % phase.kind)
        wall = time.perf_counter() - started
        invariants.check_rekey_window(
            self.last_rekey_records,
            self.publisher_names(),
            self.last_rekey_broadcasts,
            context=label,
        )
        invariants.check_members(self, context=label)
        invariants.check_bucket_layout(self, context=label)
        invariants.check_exact_delivery(self, context=label)
        invariants.check_relay_hops(self, context=label)
        epochs_after = sum(
            service.publisher.epoch for service in self.services.values()
        )
        self.metrics.record(
            label,
            phase.kind,
            wall,
            self._records_since(mark),
            self.publisher_names(),
            rekeys=epochs_after - epochs_before,
            members_alive=len(self.alive_members()),
            members_revoked=self.revoked_count(),
            rekey_publish_s=self.last_rekey_publish_s,
            obs=self._sample_obs(),
            window=(window_started, time.time()),
        )

    def run(self) -> LoadReport:
        self.start()
        for index, phase in enumerate(self.scenario.phases):
            self.run_phase(index, phase)
        report = LoadReport(
            scenario=self.scenario.name,
            driver=self.driver,
            phases=list(self.metrics.phases),
            params={
                "seed": self.scenario.seed,
                "group": self.scenario.group,
                "gkm_field": self.scenario.gkm_field,
                "gkm": self.scenario.gkm,
                "gkm_bucket_size": self.scenario.gkm_bucket_size,
                "publishers": len(self.scenario.publishers),
                "phases": len(self.scenario.phases),
                "members_total": len(self.members),
                "members_alive": len(self.alive_members()),
                "members_revoked": self.revoked_count(),
                "broker": self.broker_mode if self.driver == "tcp" else None,
                "relays": len(self.scenario.topology),
            },
        )
        if self.obs_dir:
            report = self._attach_attribution(report)
        return report

    def _attach_attribution(self, report: LoadReport) -> LoadReport:
        """Stitch the run's span logs and fold per-phase attribution
        tables into the report (and gate on the scenario's coverage
        floor, when one is set).

        Runs post-hoc, against files already on disk: every span writer
        flushes per line, so the spawned broker/relay processes' logs
        are readable while those processes are still alive.
        """
        import dataclasses

        from repro.obs.analyze import analyze_paths, attribution_table

        engine_path = os.path.join(self.obs_dir, "engine", "obs.jsonl")
        analysis = analyze_paths(
            [self.obs_dir],
            reference=engine_path if os.path.exists(engine_path) else None,
        )
        self.last_analysis = analysis
        phases = []
        for metrics in report.phases:
            if metrics.window is None:
                phases.append(metrics)
                continue
            low, high = metrics.window
            bucket = [
                t for t in analysis.traces if low <= t.start <= high
            ]
            phases.append(dataclasses.replace(
                metrics, attribution=attribution_table(bucket),
            ))
        report.phases = phases
        floor = self.scenario.min_attribution_coverage
        if floor > 0.0:
            table = analysis.publish_attribution()
            if table["coverage"] < floor:
                raise LoadScenarioError(
                    "attribution coverage %.1f%% of publish wall is below "
                    "the scenario's %.1f%% floor (stages: %s)" % (
                        table["coverage"] * 100.0, floor * 100.0,
                        sorted(table["stages"]),
                    )
                )
        return report


def run_scenario(
    scenario: LoadScenario,
    driver: str = "memory",
    broker: str = "thread",
    data_root: Optional[str] = None,
    timeout: float = 120.0,
    obs_dir: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> LoadReport:
    """Run ``scenario`` in a fresh engine and tear the world down after."""
    with LoadEngine(
        scenario, driver=driver, broker=broker, data_root=data_root,
        timeout=timeout, obs_dir=obs_dir, profile_dir=profile_dir,
    ) as engine:
        return engine.run()
