"""``python -m repro.net.subscriber``: one subscriber as a client process.

Runs a full subscriber lifecycle against the broker: request a token for
every attribute the scenario gives this user, register each token for
every matching condition (the Section V-B privacy practice), then wait
for ``--expect-broadcasts`` broadcast packages, decrypting whatever the
hidden attribute values authorize.  Finally writes a JSON report (per
broadcast: which segments decrypted) that the orchestrating example
asserts on -- the only channel back, since everything else this process
knows is private.

With ``--data-dir`` the wallet (tokens + openings) and every extracted
CSS are durable: a restarted subscriber recovers them, requests no new
tokens and -- because a held CSS is a completed registration -- runs no
OCBE exchange, resuming directly at broadcast decryption.
"""

from __future__ import annotations

import argparse
import json

from repro.net._cli import add_common_arguments, install_stop_signals, parse_endpoint
from repro.net.bootstrap import (
    build_subscriber,
    load_scenario,
    publisher_for_user,
    publisher_spec,
    read_bundle,
    write_json,
)
from repro.net.runtime import StopRequested, pump_until, wait_for_file
from repro.net.transport import TcpTransport
from repro.obs.profile import observing
from repro.store import SubscriberPersistence
from repro.system.service import SubscriberClient

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.subscriber",
        description="Run one subscriber's lifecycle against the broker.",
    )
    add_common_arguments(parser)
    parser.add_argument("--user", required=True,
                        help="which scenario user this process plays")
    parser.add_argument("--expect-broadcasts", type=int, default=1,
                        help="exit after receiving this many broadcasts")
    parser.add_argument("--report", default=None,
                        help="write the lifecycle report JSON here")
    parser.add_argument("--history-limit", type=int, default=256,
                        help="retain at most this many per-broadcast "
                             "histories (a long-lived server must not grow "
                             "memory with every broadcast)")
    args = parser.parse_args(argv)

    scenario = load_scenario(args.scenario)
    attributes = scenario["users"].get(args.user)
    if attributes is None:
        raise SystemExit("user %r is not in the scenario" % args.user)
    wait_for_file(args.bundle, timeout=args.timeout)
    bundle = read_bundle(args.bundle)
    subscriber = build_subscriber(scenario, bundle, args.user)

    persistence = None
    if args.data_dir:
        persistence = SubscriberPersistence.attach(args.data_dir, subscriber)
        if persistence.recovered:
            print("recovered subscriber state: %d tokens, %d CSSs"
                  % (len(subscriber.attribute_tags()), len(subscriber.css_store)),
                  flush=True)

    stop = install_stop_signals()
    host, port = parse_endpoint(args.broker)
    # The telemetry scope makes the decrypt/wal stage spans of this
    # process land in its obs.jsonl alongside the hop events.
    with observing(args.data_dir, None, subscriber.nym) as (obs, _):
        try:
            with TcpTransport(host, port) as transport:
                client = SubscriberClient(
                    subscriber,
                    transport,
                    publisher_name=publisher_for_user(scenario, args.user),
                    idmgr_name=scenario["idmgr"],
                    history_limit=args.history_limit,
                    persistence=persistence,
                    # A recovered CSS is a completed registration; a fresh run
                    # (or no data dir) must run every OCBE exchange.
                    reuse_css=persistence is not None and persistence.recovered,
                )
                client.span_writer = obs
                print("subscriber %r connected as nym %r"
                      % (args.user, subscriber.nym), flush=True)
                return _run_lifecycle(
                    args, scenario, bundle, subscriber, client, transport, stop,
                    attributes,
                )
        finally:
            if persistence is not None:
                persistence.close()


def _run_lifecycle(args, scenario, bundle, subscriber, client, transport, stop,
                   attributes) -> int:
    try:
        # A recovered wallet already holds tokens; only request what is
        # missing (re-requesting would be harmless but noisy).
        held = set(subscriber.attribute_tags())
        for attribute in sorted(set(attributes) - held):
            client.request_token(
                attribute, assertion=bundle.assertions[args.user][attribute]
            )
        pump_until(
            [client],
            lambda: set(subscriber.attribute_tags()) == set(attributes),
            timeout=args.timeout,
            stop=stop,
        )
        print("tokens held: %s" % subscriber.attribute_tags(), flush=True)

        # register_all_attributes skips any condition whose CSS is already
        # held durably (client.reuse_css): a recovered subscriber sends
        # condition queries but not one registration frame.
        client.register_all_attributes()
        # Done when every session finished AND each attribute saw as
        # many condition outcomes as the policies define for it -- an
        # attribute no condition mentions expects zero, so a scenario
        # containing one cannot wedge this phase.
        expected = publisher_spec(
            scenario, publisher_for_user(scenario, args.user)
        ).conditions_per_attribute()
        pump_until(
            [client],
            lambda: not client.registering()
            and all(
                len(client.results.get(a, {})) >= expected.get(a, 0)
                for a in attributes
            ),
            timeout=args.timeout,
            stop=stop,
        )
        print("registrations done (outcomes stay private to this process)",
              flush=True)

        pump_until(
            [client],
            lambda: len(client.packages) >= args.expect_broadcasts,
            timeout=args.timeout,
            stop=stop,
        )
    except StopRequested:
        print("stop signal received; exiting without a report", flush=True)
        return 0
    transport.flush_acks()

    report = {
        "user": args.user,
        "nym": subscriber.nym,
        "results": client.results,
        "failures": client.failures,
        "broadcasts": [
            {
                "document": package.document,
                "segments": {
                    name: content.decode("utf-8", "replace")
                    for name, content in plaintexts.items()
                },
            }
            for package, plaintexts in zip(client.packages, client.broadcasts)
        ],
    }
    if args.report:
        write_json(args.report, report)
    print(json.dumps(report, indent=2, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
