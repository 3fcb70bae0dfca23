"""Recovery-time benchmark: snapshot+replay vs cold re-registration.

The number this whole subsystem exists for: restoring a publisher's CSS
table from disk must be orders of magnitude cheaper than re-earning it
through N OCBE registrations (the O(N)-unicast storm a stateless restart
causes).  Three recovery shapes are measured --

* ``wal_replay``      -- no snapshot yet: genesis + N journal records;
* ``snapshot_load``   -- after compaction: one snapshot, empty WAL;
* ``cold_reregistration`` -- no durable state: every subscriber runs the
  full wire registration again.

-- printed as a wall-clock table with the on-disk sizes, and asserted:
both recoveries must beat cold re-registration.
"""

import os
import random

from repro.bench.runner import avg_time, format_table
from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.policy.acp import parse_policy
from repro.store import PublisherPersistence
from repro.store.state import SNAPSHOT_FILE
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

N_SUBS = 16
SEED = 0xC4A5


def _build_publisher(rng):
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    pub = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=8, rng=rng,
    )
    pub.add_policy(parse_policy("role = doc", ["body"], "doc"))
    return idp, idmgr, pub


def _enroll(idp, idmgr, pub, rng):
    clients_input = []
    for i in range(N_SUBS):
        name = "user%d" % i
        idp.enroll(name, "role", "doc")
        sub = Subscriber(idmgr.assign_pseudonym(), pub.params, rng=rng)
        token, x, r = idmgr.issue_token(
            sub.nym, idp.assert_attribute(name, "role"), rng=rng
        )
        sub.hold_token(token, x, r)
        clients_input.append(sub)
    return clients_input


def _register_all(pub, subscribers):
    """One full cold registration pass; returns the transport."""
    transport = InMemoryTransport()
    service = DisseminationService(pub, transport)
    clients = [
        SubscriberClient(sub, transport, pub.name) for sub in subscribers
    ]
    for client in clients:
        client.register_all_attributes()
    run_until_idle([service, *clients])
    assert pub.table.cell_count() == N_SUBS
    return transport


def _dir_size(path, name_filter=lambda n: True):
    return sum(
        os.path.getsize(os.path.join(path, n))
        for n in os.listdir(path)
        if name_filter(n)
    )


def test_recovery_vs_cold_reregistration(tmp_path):
    data_dir = str(tmp_path / "pub-data")

    # -- populate the durable state once (also the cold-path timing) ------
    rng = random.Random(SEED)
    idp, idmgr, pub = _build_publisher(rng)
    subscribers = _enroll(idp, idmgr, pub, rng)
    persistence = PublisherPersistence.attach(data_dir, pub, sync=False)
    cold = avg_time(lambda: _register_all(pub, subscribers), rounds=1)
    persistence.close()
    wal_bytes = _dir_size(data_dir, lambda n: n.startswith("wal-"))

    def rebuild():
        _, _, fresh = _build_publisher(random.Random(SEED))
        return fresh

    # -- recovery shape 1: WAL replay (journal only, no compaction) -------
    def recover():
        p = PublisherPersistence.attach(data_dir, rebuild(), sync=False)
        assert p.entity.table.cell_count() == N_SUBS
        p.close()

    wal_replay = avg_time(recover, rounds=5)

    # -- recovery shape 2: snapshot load (after compaction) ---------------
    p = PublisherPersistence.attach(data_dir, rebuild(), sync=False)
    p.snapshot_now()
    p.close()
    snapshot_bytes = _dir_size(data_dir, lambda n: n == SNAPSHOT_FILE)
    snapshot_load = avg_time(recover, rounds=5)

    print()
    print(format_table(
        "Publisher recovery, N=%d registered subscribers" % N_SUBS,
        ["path", "mean ms", "min ms", "max ms"],
        [
            ["cold re-registration", cold.mean_ms, cold.minimum * 1e3,
             cold.maximum * 1e3],
            ["WAL replay", wal_replay.mean_ms, wal_replay.minimum * 1e3,
             wal_replay.maximum * 1e3],
            ["snapshot load", snapshot_load.mean_ms,
             snapshot_load.minimum * 1e3, snapshot_load.maximum * 1e3],
        ],
    ))
    print("on disk: WAL %d B, snapshot %d B" % (wal_bytes, snapshot_bytes))

    # The whole point of the subsystem: recovery beats re-registration.
    assert wal_replay.mean < cold.mean
    assert snapshot_load.mean < cold.mean
