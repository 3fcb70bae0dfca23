"""Kill -9 the publisher; watch the system resume with zero unicast.

The durability story of ``repro/store/`` as a deployment you can watch:
the EHR scenario runs across real OS processes (broker, IdMgr, one
process per subscriber, publisher), every entity journaling to its own
``--data-dir``.  Mid-lifecycle -- registrations served, nothing broadcast
yet -- the publisher is SIGKILLed.  No shutdown handler runs; the only
survivors are its write-ahead log and snapshot.

A second publisher process then starts from the same data directory:

* it recovers the CSS table and GKM epoch, skips the registration wait;
* its first act is the rekey-on-recovery broadcast -- fresh ACV headers
  over the recovered table;
* the still-running subscriber processes decrypt it with the CSSs they
  extracted *before* the crash: no token request, no OCBE exchange, not
  one unicast frame anywhere in the recovery window (the broker's
  accounting proves it);
* revocation still works on the recovered table: carol is revoked and
  locked out of broadcast #2 while dave keeps reading.

Run:  PYTHONPATH=src python examples/crash_recovery.py
"""

import json
import os
import signal
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro  # noqa: E402
from repro.net._cli import parse_endpoint  # noqa: E402
from repro.net.bootstrap import (  # noqa: E402
    expected_registrations,
    load_scenario,
    write_json,
)
from repro.net.runtime import (  # noqa: E402
    ProcessSupervisor,
    wait_for_file,
    wait_until_quiet,
)
from repro.net.transport import TcpTransport  # noqa: E402

SCENARIO = {
    "group": "nist-p192",
    "seed": 41,
    "attribute_bits": 8,
    "gkm_field": "fast",
    "idp": "hospital-hr",
    "idmgr": "idmgr",
    "publishers": [{
        "name": "datacenter",
        "policies": [
            {"condition": "role = doc", "segments": ["Clinical"], "document": "EHR"},
            {"condition": "level >= 50", "segments": ["Billing"], "document": "EHR"},
        ],
        "documents": [
            {
                "name": "EHR",
                "segments": [
                    ["Clinical", "MRI unremarkable."],
                    ["Billing", "Acct 99-1234."],
                ],
            }
        ],
    }],
    "users": {
        "carol": {"role": "doc", "level": 70},
        "dave": {"role": "doc"},
    },
    "revoke": ["carol"],
}

REGISTRATION_KINDS = {
    "token-request", "token-grant", "condition-query", "condition-list",
    "token+condition-request", "registration-ack", "ocbe-bit-commitments",
    "ocbe-envelope",
}


def main() -> None:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    with tempfile.TemporaryDirectory(prefix="repro-crash-") as workdir, \
            ProcessSupervisor() as supervisor:
        scenario_path = os.path.join(workdir, "scenario.json")
        bundle_path = os.path.join(workdir, "bundle.json")
        port_file = os.path.join(workdir, "broker.port")
        data_dir = lambda name: os.path.join(workdir, "state", name)  # noqa: E731
        write_json(scenario_path, SCENARIO)

        supervisor.spawn_module(
            "repro.net.broker", "--port", "0", "--port-file", port_file,
            name="broker", env=env,
        )
        broker_at = wait_for_file(port_file).strip()
        host, port = parse_endpoint(broker_at)
        print("broker up at %s" % broker_at)

        common = ["--broker", broker_at, "--scenario", scenario_path,
                  "--bundle", bundle_path]
        supervisor.spawn_module(
            "repro.net.idmgr", *common, "--data-dir", data_dir("idmgr"),
            name="idmgr", env=env,
        )
        reports = {}
        for user in sorted(SCENARIO["users"]):
            reports[user] = os.path.join(workdir, "%s.json" % user)
            supervisor.spawn_module(
                "repro.net.subscriber", *common,
                "--user", user, "--expect-broadcasts", "2",
                "--data-dir", data_dir("sub-%s" % user),
                "--report", reports[user],
                name="sub-%s" % user, env=env,
            )

        # --- publisher #1: serves registrations, then dies hard -----------
        publisher1 = supervisor.spawn_module(
            "repro.net.publisher", *common, "--serve",
            "--data-dir", data_dir("publisher"),
            name="publisher-1", env=env,
        )
        expected = expected_registrations(load_scenario(scenario_path))
        with TcpTransport(host, port) as observer:
            observer.register("observer")
            # Quiet alone is not enough (the broker is also quiet before
            # anyone speaks): wait until every OCBE envelope went out AND
            # the system settled.
            deadline = time.monotonic() + 120
            while True:
                wait_until_quiet(observer, timeout=120)
                envelopes = observer.snapshot().kinds_count().get(
                    "ocbe-envelope", 0
                )
                if envelopes >= expected:
                    break
                if time.monotonic() > deadline:
                    raise SystemExit(
                        "registrations stalled: %d/%d envelopes"
                        % (envelopes, expected)
                    )
                time.sleep(0.1)
            print("all %d registrations served and journaled" % expected)

            publisher1.kill()  # SIGKILL: no shutdown path runs
            publisher1.wait(10)
            assert publisher1.returncode == -signal.SIGKILL
            print("publisher SIGKILLed mid-lifecycle (nothing broadcast yet)")
            accounted_before = len(observer.snapshot().messages)

            # --- publisher #2: same data dir, recovers and resumes --------
            publisher_report = os.path.join(workdir, "publisher.json")
            publisher2 = supervisor.spawn_module(
                "repro.net.publisher", *common,
                "--data-dir", data_dir("publisher"),
                "--report", publisher_report,
                name="publisher-2", env=env,
            )
            # The observer receives the multicasts too; keep draining it or
            # its unacked deliveries would hold global quiescence hostage.
            deadline = time.monotonic() + 300
            while publisher2.poll() is None:
                observer.poll("observer")
                observer.flush_acks()
                if time.monotonic() > deadline:
                    raise SystemExit("publisher-2 did not finish")
                time.sleep(0.05)
            assert publisher2.returncode == 0, supervisor.output("publisher-2")
            for user, path in reports.items():
                wait_for_file(path, timeout=60)
            # (assert_alive would flag publisher-1's deliberate -9 here;
            # the reports above already prove everyone else finished.)
            observer.poll("observer")

            # --- what crossed the wire during recovery --------------------
            wait_until_quiet(observer, timeout=60)
            window = observer.snapshot().messages[accounted_before:]
            by_kind = {}
            for message in window:
                by_kind[message.kind] = by_kind.get(message.kind, 0) + 1
            print("\nrecovery-window traffic: %s" % by_kind)
            assert not set(by_kind) & REGISTRATION_KINDS, \
                "recovery drew registration traffic!"
            assert all(m.receiver == "*" for m in window), \
                "recovery drew unicast frames!"
            observer.request_broker_shutdown()

        with open(publisher_report, encoding="utf-8") as handle:
            pub_report = json.load(handle)
        assert pub_report["recovered_cells"] == expected
        assert pub_report["inbound_bytes_after_rekey"] == \
            pub_report["inbound_bytes_before_rekey"]

        subs = {}
        for user, path in reports.items():
            with open(path, encoding="utf-8") as handle:
                subs[user] = json.load(handle)
        print("\ndecryption outcomes (broadcast #1 / #2 = after revoking carol):")
        for user in sorted(subs):
            rounds = [sorted(b["segments"]) for b in subs[user]["broadcasts"]]
            print("    %-6s %s / %s" % (user, rounds[0] or "[]", rounds[1] or "[]"))
        carol, dave = subs["carol"]["broadcasts"], subs["dave"]["broadcasts"]
        assert sorted(carol[0]["segments"]) == ["Billing", "Clinical"]
        assert carol[1]["segments"] == {}, "revoked carol still decrypts!"
        assert sorted(dave[0]["segments"]) == ["Clinical"]
        assert sorted(dave[1]["segments"]) == ["Clinical"]

    print("\npublisher crashed and recovered: table intact, subscribers "
          "resumed on the rekey-on-recovery broadcast, revocation on the "
          "recovered table held, zero unicast throughout")


if __name__ == "__main__":
    main()
