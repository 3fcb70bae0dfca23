"""Each publisher of a two-publisher deployment file runs its lifecycle.

A publisher publishes only its own documents and revokes only the listed
users assigned to it: a ``revoke`` list naming one user of each
publisher must let either lifecycle finish with a report.  One lifecycle
runs per broker because the lifecycle's quiescence wait is broker-wide:
an entity that exits mid-run leaves an offline inbox that never drains.
"""

import json
import os

import pytest

from repro.net.bootstrap import write_json
from repro.net.runtime import ProcessSupervisor, wait_for_file

SCENARIO = {
    "group": "nist-p192",
    "seed": 45,
    "publishers": [
        {
            "name": "news",
            "policies": [
                {"condition": "news_tier >= 10", "segments": ["wire"],
                 "document": "daily"},
            ],
            "documents": [{"name": "daily", "segments": [["wire", "Rain."]]}],
        },
        {
            "name": "sports",
            "policies": [
                {"condition": "sports_tier >= 50", "segments": ["scores"],
                 "document": "scores"},
            ],
            "documents": [{"name": "scores", "segments": [["scores", "3-1"]]}],
        },
    ],
    "assignments": {"dave": "sports"},
    "users": {
        "carol": {"news_tier": 30},
        "dave": {"sports_tier": 70},
    },
    "revoke": ["carol", "dave"],
}


@pytest.mark.parametrize("publisher, user, document, segment, text", [
    ("news", "carol", "daily", "wire", "Rain."),
    ("sports", "dave", "scores", "scores", "3-1"),
])
def test_publisher_revokes_only_its_own_users(
    tmp_path, publisher, user, document, segment, text
):
    scenario_path = str(tmp_path / "scenario.json")
    port_file = str(tmp_path / "port")
    write_json(scenario_path, SCENARIO)

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def report(name):
        with open(str(tmp_path / ("%s.json" % name)), encoding="utf-8") as handle:
            return json.load(handle)

    with ProcessSupervisor() as supervisor:
        supervisor.spawn_module(
            "repro.net.broker", "--port", "0", "--port-file", port_file,
            name="broker", env=env,
        )
        common = ["--broker", wait_for_file(port_file).strip(),
                  "--scenario", scenario_path,
                  "--bundle", str(tmp_path / "bundle.json")]
        supervisor.spawn_module("repro.net.idmgr", *common, name="idmgr", env=env)
        supervisor.spawn_module(
            "repro.net.subscriber", *common, "--user", user,
            "--expect-broadcasts", "2",
            "--report", str(tmp_path / ("%s.json" % user)),
            name=user, env=env,
        )
        supervisor.spawn_module(
            "repro.net.publisher", *common, "--name", publisher,
            "--report", str(tmp_path / ("%s.json" % publisher)),
            name=publisher, env=env,
        )
        for name in (publisher, user):
            assert supervisor.wait(name, timeout=120) == 0, supervisor.output(name)

    assert report(publisher)["revoked"] == [user]
    # Only this publisher's document went out: the first broadcast
    # decrypts, the rekey after the revocation does not.
    broadcasts = report(user)["broadcasts"]
    assert [b["document"] for b in broadcasts] == [document, document]
    assert broadcasts[0]["segments"] == {segment: text}
    assert broadcasts[1]["segments"] == {}
