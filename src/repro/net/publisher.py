"""``python -m repro.net.publisher``: the dissemination service process.

Two modes:

* ``--serve``: answer condition queries and OCBE registrations forever
  (the long-running deployment shape).
* default (lifecycle): additionally run the scenario's demo script --
  wait until every expected registration landed in the CSS table and the
  broker is quiet, publish this publisher's documents, revoke the
  scenario's users assigned to it, publish again (the rekey **is** the
  next broadcast: zero unicast), then write a JSON report with the
  broker-measured byte accounting and exit.
  ``examples/networked_service.py`` drives this mode and asserts on the
  report.

With ``--data-dir`` the CSS table, policies and GKM epoch are durable
(:mod:`repro.store`).  A restarted publisher recovers them, *skips* the
registration wait, and resumes with a rekey-on-recovery broadcast: fresh
ACV headers over the recovered table, which every already-registered
subscriber can open with its unchanged CSSs.  Zero unicast, no
re-registration -- the exact O(N)-avoidance the paper's GKM buys,
preserved across crashes.
"""

from __future__ import annotations

import argparse
import json

from repro.net._cli import add_common_arguments, install_stop_signals, parse_endpoint
from repro.net.bootstrap import (
    build_publisher,
    expected_registrations,
    load_scenario,
    publisher_for_user,
    publisher_spec,
    read_bundle,
    write_json,
)
from repro.net.runtime import (
    StopRequested,
    pump_forever,
    pump_until,
    wait_for_file,
    wait_until_quiet,
)
from repro.net.transport import TcpTransport
from repro.obs.profile import observing, profile_window
from repro.store import PublisherPersistence
from repro.system.service import DisseminationService

__all__ = ["main"]


def _run_lifecycle(args, scenario, bundle, service, transport, stop,
                   recovered_cells=0) -> dict:
    publisher = service.publisher
    expected = expected_registrations(scenario, publisher=publisher.name)
    if recovered_cells >= expected:
        # The durable table already holds every CSS: the first publish
        # below is the rekey-on-recovery broadcast, and no subscriber
        # sends a single registration frame.
        print("recovered %d/%d registrations from the data dir; "
              "skipping the registration wait" % (recovered_cells, expected),
              flush=True)
    else:
        print("waiting for %d registrations..." % expected, flush=True)
        with profile_window("registration"):
            pump_until(
                [service],
                lambda: publisher.table.cell_count() >= expected,
                timeout=args.timeout,
                stop=stop,
            )
            # Table completeness is necessary, not sufficient: CSS cells
            # are minted at request time, while the OCBE envelopes that
            # let the Subs *extract* them may still be in flight.
            # Quiescence closes that gap.
            wait_until_quiet(transport, [service], timeout=args.timeout)
    cells_registered = publisher.table.cell_count()
    print("all registrations complete", flush=True)

    spec = publisher_spec(scenario, publisher.name)
    documents = [document.build() for document in spec.documents]
    with profile_window("publish"):
        for document in documents:
            service.publish(document)
        wait_until_quiet(transport, [service], timeout=args.timeout)
    print("published %d documents" % len(documents), flush=True)

    inbound_before = transport.snapshot().bytes_received_by(publisher.name)
    revoked = [
        user for user in scenario["revoke"]
        if publisher_for_user(scenario, user) == publisher.name
    ]
    for user in revoked:
        if not publisher.revoke_subscription(bundle.nyms[user]):
            raise SystemExit("revocation of %r found no subscription" % user)
    with profile_window("rekey"):
        for document in documents:  # re-publish: this is the rekey
            service.publish(document)
        wait_until_quiet(transport, [service], timeout=args.timeout)
    snapshot = transport.snapshot()
    inbound_after = snapshot.bytes_received_by(publisher.name)
    print("revoked %s and rekeyed via re-broadcast" % (revoked,), flush=True)
    return {
        "publisher": publisher.name,
        "recovered_cells": recovered_cells,
        "gkm": publisher.gkm,
        "gkm_bucket_size": publisher.gkm_bucket_size,
        "gkm_epoch": publisher.epoch,
        "table_cells_registered": cells_registered,
        "table_cells_after_revoke": publisher.table.cell_count(),
        "expected_registrations": expected,
        "revoked": revoked,
        "inbound_bytes_before_rekey": inbound_before,
        "inbound_bytes_after_rekey": inbound_after,
        "broadcast_frame_sizes": [
            record.size
            for record in snapshot.messages
            if record.kind == "broadcast-package" and record.receiver == "*"
        ],
        "bytes_by_kind": {
            kind: sum(
                record.size for record in snapshot.messages if record.kind == kind
            )
            for kind in snapshot.kinds_count()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.publisher",
        description="Serve registrations and broadcasts over the broker.",
    )
    add_common_arguments(parser)
    parser.add_argument("--serve", action="store_true",
                        help="serve forever instead of running the scenario "
                             "lifecycle")
    parser.add_argument("--report", default=None,
                        help="write the lifecycle report JSON here")
    parser.add_argument("--name", default=None,
                        help="which of the scenario's publishers to serve "
                             "(default: the first)")
    parser.add_argument("--profile-dir", default=None,
                        help="record cProfile aggregates for the "
                             "registration wait and the publish/rekey "
                             "windows into profile_<name>.json under this "
                             "directory (readable by python -m "
                             "repro.obs.profile); function names only, "
                             "never argument values")
    args = parser.parse_args(argv)

    scenario = load_scenario(args.scenario)
    wait_for_file(args.bundle, timeout=args.timeout)
    bundle = read_bundle(args.bundle)
    publisher = build_publisher(scenario, bundle.public_key, name=args.name)

    persistence = None
    recovered_cells = 0
    if args.data_dir:
        persistence = PublisherPersistence.attach(args.data_dir, publisher)
        recovered_cells = (
            publisher.table.cell_count() if persistence.recovered else 0
        )
        if persistence.recovered:
            print("recovered publisher state: %d CSS cells, epoch %d"
                  % (recovered_cells, publisher.epoch), flush=True)

    stop = install_stop_signals()
    host, port = parse_endpoint(args.broker)
    # The telemetry scope makes stage() spans (ocbe.build, acv.solve,
    # wal.*) and profile_window() land in this process's files, and
    # restores the host's on the way out so embedders stay unaffected.
    scope = observing(args.data_dir, args.profile_dir, publisher.name)
    with scope as (obs, profiler):
        try:
            with TcpTransport(host, port) as transport:
                service = DisseminationService(
                    publisher, transport, persistence=persistence
                )
                service.span_writer = obs
                if profiler is not None:
                    from repro.groups._native import BACKEND

                    profiler.annotate(math_backend=BACKEND)
                print("publisher serving as %r on %s" % (publisher.name, args.broker),
                      flush=True)
                if args.serve:
                    if recovered_cells:
                        # Rekey-on-recovery for the long-running shape too: the
                        # first act after a crash is a fresh broadcast so the
                        # recovered table's subscribers resume decrypting.
                        spec = publisher_spec(scenario, publisher.name)
                        for document in spec.documents:
                            service.publish(document.build())
                            print("rekey-on-recovery broadcast of %r" % document.name,
                                  flush=True)
                    with profile_window("serve"):
                        pump_forever([service], stop)
                    return 0
                try:
                    report = _run_lifecycle(
                        args, scenario, bundle, service, transport, stop,
                        recovered_cells=recovered_cells,
                    )
                except StopRequested:
                    print("stop signal received; exiting without a report", flush=True)
                    return 0
                if args.report:
                    write_json(args.report, report)
                print(json.dumps(report, indent=2, sort_keys=True), flush=True)
        finally:
            if persistence is not None:
                persistence.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
