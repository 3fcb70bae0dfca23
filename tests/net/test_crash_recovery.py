"""SIGKILL the networked publisher; restart it from ``--data-dir``.

The acceptance scenario for the durability layer: a publisher OS process
is killed without warning mid-lifecycle (registrations served, nothing
broadcast), restarted against the same broker from its data directory,
and the *still-running* subscribers decrypt the next broadcasts without
re-registering -- with the broker's byte accounting proving that the
entire recovery window carried nothing but multicast broadcast frames.
That is the paper's O(1)-rekey property, preserved across a crash.
"""

import json
import os
import signal
import subprocess
import sys


from repro.net.bootstrap import (
    build_identity_stack,
    build_subscriber,
    expected_registrations,
    load_scenario,
    read_bundle,
    write_bundle,
    write_json,
)
from repro.net.runtime import BrokerThread, pump_until, wait_for_file
from repro.net.transport import TcpTransport
from repro.system.service import IdentityManagerEndpoint, SubscriberClient
from repro.system.transport import BROADCAST

SCENARIO = {
    "group": "nist-p192",
    "seed": 77,
    "attribute_bits": 8,
    "gkm_field": "fast",
    "idp": "hr",
    "idmgr": "idmgr",
    "publisher": "pub",
    "policies": [
        {"condition": "role = doc", "segments": ["Clinical"], "document": "EHR"},
        {"condition": "level >= 50", "segments": ["Billing"], "document": "EHR"},
    ],
    "users": {
        "carol": {"role": "doc", "level": 70},
        "dave": {"role": "doc"},
    },
    "documents": [
        {"name": "EHR", "segments": {"Clinical": "MRI fine.", "Billing": "Acct 7."}},
    ],
    "revoke": [],
}

TIMEOUT = 60.0


def _spawn_publisher(broker_at, scenario_path, bundle_path, data_dir,
                     *extra, report=None):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    args = [sys.executable, "-m", "repro.net.publisher",
            "--broker", broker_at, "--scenario", scenario_path,
            "--bundle", bundle_path, "--data-dir", data_dir,
            "--timeout", str(TIMEOUT), *extra]
    if report:
        args += ["--report", report]
    return subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.STDOUT)


def test_publisher_sigkill_recovery_zero_unicast(tmp_path):
    scenario_path = str(tmp_path / "scenario.json")
    bundle_path = str(tmp_path / "bundle.json")
    data_dir = str(tmp_path / "pub-data")
    report_path = str(tmp_path / "publisher.json")
    write_json(scenario_path, SCENARIO)
    scenario = load_scenario(scenario_path)

    idp, idmgr, nyms, assertions = build_identity_stack(scenario)
    write_bundle(bundle_path, scenario, idmgr, nyms, assertions)
    bundle = read_bundle(bundle_path)

    with BrokerThread() as broker:
        broker_at = "%s:%d" % (broker.host, broker.port)
        with TcpTransport(broker.host, broker.port) as transport:
            idmgr_ep = IdentityManagerEndpoint(
                idmgr, transport, name=scenario["idmgr"]
            )
            clients = {}
            for user in sorted(scenario["users"]):
                subscriber = build_subscriber(scenario, bundle, user)
                clients[user] = SubscriberClient(
                    subscriber, transport,
                    publisher_name=scenario["publisher"],
                    idmgr_name=scenario["idmgr"],
                )
            endpoints = [idmgr_ep, *clients.values()]

            # -- phase 1: registrations against publisher process #1 ------
            publisher1 = _spawn_publisher(
                broker_at, scenario_path, bundle_path, data_dir, "--serve"
            )
            try:
                for user, client in clients.items():
                    for attribute in sorted(scenario["users"][user]):
                        client.request_token(
                            attribute, assertion=bundle.assertions[user][attribute]
                        )
                pump_until(
                    endpoints,
                    lambda: all(
                        set(c.subscriber.attribute_tags())
                        == set(scenario["users"][u])
                        for u, c in clients.items()
                    ),
                    timeout=TIMEOUT,
                )
                for client in clients.values():
                    client.register_all_attributes()
                pump_until(
                    endpoints,
                    lambda: all(
                        not c.registering()
                        and all(r for r in c.results.values())
                        for c in clients.values()
                    ),
                    timeout=TIMEOUT,
                )
                # every subscriber extracted what its values entitle it to
                assert clients["carol"].results["role"] == {"role = doc": True}
                assert clients["carol"].results["level"] == {"level >= 50": True}
                assert clients["dave"].results["role"] == {"role = doc": True}
                transport.flush_acks()
            finally:
                # -- the crash: SIGKILL, no shutdown path runs ------------
                publisher1.kill()
                publisher1.wait(10)
            assert publisher1.returncode == -signal.SIGKILL

            accounted_before = len(transport.snapshot().messages)

            # -- phase 2: restart from the data dir -----------------------
            publisher2 = _spawn_publisher(
                broker_at, scenario_path, bundle_path, data_dir,
                report=report_path,
            )
            try:
                # subscribers just keep pumping; they re-register nothing
                pump_until(
                    endpoints,
                    lambda: all(
                        len(c.packages) >= 2 for c in clients.values()
                    ),
                    timeout=TIMEOUT,
                )
                transport.flush_acks()
                assert publisher2.wait(TIMEOUT) == 0
            finally:
                if publisher2.poll() is None:
                    publisher2.kill()
                    publisher2.wait(10)

            # -- decryption resumed for every subscriber ------------------
            carol, dave = clients["carol"], clients["dave"]
            for client in (carol, dave):
                assert len(client.packages) == 2
            assert sorted(carol.broadcasts[0]) == ["Billing", "Clinical"]
            assert sorted(carol.broadcasts[1]) == ["Billing", "Clinical"]
            assert sorted(dave.broadcasts[0]) == ["Clinical"]
            assert carol.broadcasts[0]["Clinical"] == b"MRI fine."

            # -- the recovery window carried only multicast ---------------
            wait_for_file(report_path, timeout=10)
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
            expected = expected_registrations(scenario)
            assert report["recovered_cells"] == expected
            assert report["table_cells_registered"] == expected

            recovery_window = transport.snapshot().messages[accounted_before:]
            assert recovery_window, "no traffic accounted after the restart"
            assert {m.kind for m in recovery_window} == {"broadcast-package"}
            assert all(m.receiver == BROADCAST for m in recovery_window)
            assert len(recovery_window) == 2  # multicast: accounted once each
