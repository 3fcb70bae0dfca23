"""The EHR lifecycle across real OS processes over TCP.

Where ``wire_protocol.py`` runs every entity in one process on the
in-memory router, this example deploys the same system the way the paper
evaluates it: a broker and each entity as its own OS process, exchanging
nothing but serialized frames over loopback TCP.

    broker      python -m repro.net.broker       routes + accounts frames
    idmgr       python -m repro.net.idmgr        issues identity tokens
    carol/erin/dave  python -m repro.net.subscriber   one process per Sub
    publisher   python -m repro.net.publisher    registrations + broadcasts

The orchestrator (this script) only writes the scenario file, supervises
the processes, and reads their JSON reports -- it never touches a live
crypto object, so everything it verifies crossed a socket:

* token issuance -> OCBE registration -> broadcast -> decryption;
* revocation + rekey: carol decrypts broadcast #1, is locked out of
  broadcast #2, while dave's access survives untouched;
* the broker's byte accounting still shows multicast broadcasts
  (accounted once, receiver ``"*"``) and **zero** subscriber->publisher
  bytes for the revoke+rekey step.

Run:  PYTHONPATH=src python examples/networked_service.py
"""

import json
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro  # noqa: E402  (resolve the package once, for child PYTHONPATH)
from repro.net._cli import parse_endpoint  # noqa: E402
from repro.net.bootstrap import write_json  # noqa: E402
from repro.net.runtime import (  # noqa: E402
    ProcessSupervisor,
    wait_for_file,
    wait_until_quiet,
)
from repro.net.transport import TcpTransport  # noqa: E402

SCENARIO = {
    "group": "nist-p192",
    "seed": 2010,
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
        "erin": {"role": "nur", "level": 40},
        "dave": {"role": "doc"},
    },
    "revoke": ["carol"],
}


def main() -> None:
    # Children must find the repro package regardless of their cwd.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    with tempfile.TemporaryDirectory(prefix="repro-net-") as workdir, \
            ProcessSupervisor() as supervisor:
        scenario_path = os.path.join(workdir, "scenario.json")
        bundle_path = os.path.join(workdir, "bundle.json")
        port_file = os.path.join(workdir, "broker.port")
        write_json(scenario_path, SCENARIO)

        # --- the broker: every other process only knows this address -----
        supervisor.spawn_module(
            "repro.net.broker", "--port", "0", "--port-file", port_file,
            name="broker", env=env,
        )
        broker_at = wait_for_file(port_file).strip()
        print("broker up at %s" % broker_at)

        common = ["--broker", broker_at, "--scenario", scenario_path,
                  "--bundle", bundle_path]

        # --- one process per entity ---------------------------------------
        supervisor.spawn_module("repro.net.idmgr", *common, name="idmgr", env=env)
        reports = {}
        for user in sorted(SCENARIO["users"]):
            reports[user] = os.path.join(workdir, "%s.json" % user)
            supervisor.spawn_module(
                "repro.net.subscriber", *common,
                "--user", user, "--expect-broadcasts", "2",
                "--report", reports[user],
                name="sub-%s" % user, env=env,
            )
        publisher_report = os.path.join(workdir, "publisher.json")
        supervisor.spawn_module(
            "repro.net.publisher", *common, "--report", publisher_report,
            name="publisher", env=env,
        )
        print("spawned idmgr, %d subscribers, publisher"
              % len(SCENARIO["users"]))

        # --- the lifecycle runs entirely between those processes ----------
        assert supervisor.wait("publisher", timeout=300) == 0, "publisher failed"
        for user, path in reports.items():
            wait_for_file(path, timeout=60)
        supervisor.assert_alive()

        with open(publisher_report, encoding="utf-8") as handle:
            pub_report = json.load(handle)
        subs = {}
        for user, path in reports.items():
            with open(path, encoding="utf-8") as handle:
                subs[user] = json.load(handle)

        # --- what each subscriber could read, per broadcast ---------------
        print("\ndecryption outcomes (broadcast #1 / #2 = after revoking carol):")
        for user in sorted(subs):
            rounds = [sorted(b["segments"]) for b in subs[user]["broadcasts"]]
            print("    %-6s %s / %s" % (user, rounds[0] or "[]", rounds[1] or "[]"))

        carol, erin, dave = (subs[u]["broadcasts"] for u in ("carol", "erin", "dave"))
        assert sorted(carol[0]["segments"]) == ["Billing", "Clinical"]
        assert carol[0]["segments"]["Clinical"] == "MRI unremarkable."
        assert carol[1]["segments"] == {}, "revoked carol still decrypts!"
        assert erin[0]["segments"] == {} and erin[1]["segments"] == {}
        assert sorted(dave[0]["segments"]) == ["Clinical"]
        assert sorted(dave[1]["segments"]) == ["Clinical"], "rekey broke dave"

        # Registration outcomes never left the subscriber processes; the
        # publisher's table is shape-identical for all (privacy), which
        # its report confirms via the expected cell count.
        assert (
            pub_report["table_cells_registered"]
            == pub_report["expected_registrations"]
        )
        assert (
            pub_report["table_cells_after_revoke"]
            < pub_report["table_cells_registered"]
        )

        # --- the bandwidth claims, measured on the broker ------------------
        assert (
            pub_report["inbound_bytes_after_rekey"]
            == pub_report["inbound_bytes_before_rekey"]
        ), "rekey drew subscriber->publisher traffic"
        sizes = pub_report["broadcast_frame_sizes"]
        assert len(sizes) == 2, "broadcasts must be multicast, accounted once"
        print("\nrekey: zero unicast; broadcast frames of %s bytes (multicast, "
              "headers O(l'N) in the %d subscribers)" % (sizes, len(subs)))

        host, port = parse_endpoint(broker_at)
        with TcpTransport(host, port) as observer:
            observer.register("observer")
            wait_until_quiet(observer)
            snapshot = observer.snapshot()
            print("\nwire traffic by message kind (count, bytes):")
            for kind, count in sorted(snapshot.kinds_count().items()):
                total = sum(m.size for m in snapshot.messages if m.kind == kind)
                print("    %-24s %3d msgs  %6d B" % (kind, count, total))
            observer.request_broker_shutdown()
        assert supervisor.wait("broker", timeout=10) == 0

    print("\nfull lifecycle verified across %d OS processes over TCP"
          % (2 + len(SCENARIO["users"]) + 1))


if __name__ == "__main__":
    main()
