"""Entity-level recovery: attach, crash, rebuild, resume -- zero unicast.

The in-memory twin of ``tests/net/test_crash_recovery.py``: every entity
runs against :class:`InMemoryTransport`, "crashing" is dropping the live
object, and recovery is rebuilding it from the scenario + re-attaching
the same data directory.
"""

import random

import pytest

from repro.crypto.schnorr_sig import verify
from repro.documents.model import Document
from repro.errors import LogCorruptionError, SnapshotMismatchError
from repro.policy.acp import parse_policy
from repro.store import (
    IdMgrPersistence,
    PublisherPersistence,
    SubscriberPersistence,
    TokenHeldRecord,
)
from repro.store.state import StateStore
from repro.system.service import (
    DisseminationService,
    IdentityManagerEndpoint,
    SubscriberClient,
    run_until_idle,
)
from repro.system.transport import InMemoryTransport
from tests.store.conftest import build_world

DOC = Document.of(
    "report", {"clinical": b"clinical body", "billing": b"billing body"}
)

#: Transport kinds that may NOT appear while a recovered system resumes.
UNICAST_KINDS = {
    "token-request",
    "token-grant",
    "token+condition-request",
    "registration-ack",
    "ocbe-bit-commitments",
    "ocbe-envelope",
}


def _register_everyone(idp, idmgr, pub, sub, transport, **client_kw):
    service = DisseminationService(pub, transport)
    idmgr_ep = IdentityManagerEndpoint(idmgr, transport)
    client = SubscriberClient(sub, transport, publisher_name=pub.name,
                              **client_kw)
    for attr in sub.attribute_tags() or ("role", "level"):
        if attr not in sub.attribute_tags():
            client.request_token(attr, assertion=idp.assert_attribute("carol", attr))
    client.register_all_attributes()
    run_until_idle([service, idmgr_ep, client])
    return service, idmgr_ep, client


class TestFullLifecycleRecovery:
    def test_publisher_and_subscriber_resume_with_zero_unicast(self, tmp_path):
        pub_dir = str(tmp_path / "pub")
        sub_dir = str(tmp_path / "sub")

        # -- run 1: normal registration, everything journaled ------------
        idp, idmgr, pub, sub = build_world()
        pub_store = PublisherPersistence.attach(pub_dir, pub, sync=False)
        sub_store = SubscriberPersistence.attach(sub_dir, sub, sync=False)
        transport = InMemoryTransport()
        service, _, client = _register_everyone(
            idp, idmgr, pub, sub, transport
        )
        assert pub.table.cell_count() == 2
        package = service.publish(DOC)
        run_until_idle([client])
        assert sorted(client.documents[DOC.name]) == ["billing", "clinical"]
        epoch_before = pub.epoch
        pub_store.close()  # SIGKILL stand-in: nothing flushed beyond the WAL
        sub_store.close()

        # -- run 2: fresh objects, recovered state ------------------------
        _, _, pub2, sub2 = build_world()
        pub_store2 = PublisherPersistence.attach(pub_dir, pub2, sync=False)
        sub_store2 = SubscriberPersistence.attach(sub_dir, sub2, sync=False)
        assert pub_store2.recovered and sub_store2.recovered
        assert pub2.table.rows() == pub.table.rows()
        assert pub2.epoch == epoch_before
        assert sub2.css_store == sub.css_store
        assert [w.token for w in sub2.wallet_entries()] == [
            w.token for w in sub.wallet_entries()
        ]

        transport2 = InMemoryTransport()
        service2 = DisseminationService(pub2, transport2)
        client2 = SubscriberClient(
            sub2, transport2, publisher_name=pub2.name, reuse_css=True
        )
        client2.register_all_attributes()
        run_until_idle([service2, client2])
        # both conditions report success without one OCBE frame
        assert client2.results == {
            "role": {"role = doc": True},
            "level": {"level >= 50": True},
        }
        package2 = service2.publish(DOC)  # the rekey-on-recovery broadcast
        run_until_idle([client2])
        assert sorted(client2.documents[DOC.name]) == ["billing", "clinical"]
        assert pub2.epoch == epoch_before + 1

        seen_kinds = set(transport2.kinds_count())
        assert not seen_kinds & UNICAST_KINDS, seen_kinds
        pub_store2.close()
        sub_store2.close()

    def test_revocation_survives_recovery(self, tmp_path):
        pub_dir = str(tmp_path / "pub")
        idp, idmgr, pub, sub = build_world()
        store = PublisherPersistence.attach(pub_dir, pub, sync=False)
        transport = InMemoryTransport()
        _register_everyone(idp, idmgr, pub, sub, transport)
        assert pub.revoke_credential(sub.nym, "level >= 50")
        assert pub.revoke_subscription(sub.nym)
        store.close()

        _, _, pub2, _ = build_world()
        store2 = PublisherPersistence.attach(pub_dir, pub2, sync=False)
        assert pub2.table.cell_count() == 0  # the revocations replayed too
        store2.close()

    def test_gkm_strategy_survives_recovery(self, tmp_path):
        """A bucketed publisher's strategy + bucket layout are durable:
        the recovered process rekeys under the configuration its
        subscribers were dispatched with, even when the restarted
        binary was (mis)configured dense."""
        from repro.gkm.buckets import BucketedHeader

        pub_dir = str(tmp_path / "pub")
        idp, idmgr, pub, sub = build_world()
        pub.set_gkm_strategy("bucketed", 4)
        store = PublisherPersistence.attach(pub_dir, pub, sync=False)
        transport = InMemoryTransport()
        _register_everyone(idp, idmgr, pub, sub, transport)
        store.snapshot_now()
        store.close()

        _, _, pub2, _ = build_world()  # default: dense
        assert pub2.gkm == "dense"
        store2 = PublisherPersistence.attach(pub_dir, pub2, sync=False)
        assert store2.recovered
        assert pub2.gkm == "bucketed"
        assert pub2.gkm_bucket_size == 4
        package = pub2.publish(DOC)
        assert any(
            isinstance(header.acv, BucketedHeader)
            for header in package.headers
            if header.acv is not None
        )
        store2.close()

    def test_runtime_strategy_switch_survives_crash_before_snapshot(
        self, tmp_path
    ):
        """set_gkm_strategy on an attached publisher is journaled: a crash
        before the next compaction snapshot must not roll the recovered
        publisher back to the strategy of the stale snapshot."""
        pub_dir = str(tmp_path / "pub")
        idp, idmgr, pub, sub = build_world()
        store = PublisherPersistence.attach(pub_dir, pub, sync=False)
        assert pub.gkm == "dense"  # snapshotted dense at attach
        pub.set_gkm_strategy("bucketed", 4)  # runtime switch, WAL only
        store.close()

        _, _, pub2, _ = build_world()
        store2 = PublisherPersistence.attach(pub_dir, pub2, sync=False)
        assert pub2.gkm == "bucketed"
        assert pub2.gkm_bucket_size == 4
        store2.close()

    def test_zero_bucket_size_is_auto_and_survives_recovery(self, tmp_path):
        """``0`` means the auto ``ceil(sqrt(m))`` layout wherever a bucket
        size is carried: a publisher built with it broadcasts that layout,
        and a journaled runtime switch to it recovers to the same one."""
        from repro.gkm.acv import FAST_FIELD
        from repro.gkm.buckets import auto_bucket_size
        from repro.system.publisher import Publisher

        rows = [(b"css-%d" % i,) for i in range(10)]
        size = auto_bucket_size(len(rows))
        auto_layout = [rows[i : i + size] for i in range(0, len(rows), size)]
        _, idmgr, _, _ = build_world()
        built = Publisher(
            "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
            gkm="bucketed", gkm_bucket_size=0,
        )
        assert built.gkm_bucket_size == 0
        assert built.bucket_layout_for(rows) == auto_layout

        pub_dir = str(tmp_path / "pub")
        _, _, pub, _ = build_world()
        store = PublisherPersistence.attach(pub_dir, pub, sync=False)
        pub.set_gkm_strategy("bucketed", 0)  # runtime switch, WAL only
        store.close()

        _, _, pub2, _ = build_world()
        store2 = PublisherPersistence.attach(pub_dir, pub2, sync=False)
        assert (pub2.gkm, pub2.gkm_bucket_size) == ("bucketed", 0)
        assert pub2.bucket_layout_for(rows) == auto_layout
        store2.close()

    def test_idmgr_registry_and_key_survive(self, tmp_path):
        idm_dir = str(tmp_path / "idmgr")
        idp, idmgr, pub, sub = build_world()
        store = IdMgrPersistence.attach(idm_dir, idmgr, sync=False)
        idmgr.issue_decoy_token("pn-0001", "ghost")
        store.close()
        issued_before = list(idmgr.issued)

        # rebuild with a different rng: only the data dir carries the key
        idmgr2_world = build_world(seed=0xFFFF)
        idmgr2 = idmgr2_world[1]
        store2 = IdMgrPersistence.attach(idm_dir, idmgr2, sync=False)
        assert idmgr2.signing_key == idmgr.signing_key
        assert idmgr2.public_key == idmgr.public_key
        assert idmgr2.issued == issued_before
        assert idmgr2.nym_counter == idmgr.nym_counter
        # recovered key verifies tokens signed before the "crash"
        token = sub.wallet_for("role").token
        pk = idmgr2.public_key
        assert verify(pk.group, pk, token.signing_bytes(), token.signature)
        store2.close()


class TestCompaction:
    def test_wal_folds_into_snapshot_at_threshold(self, tmp_path):
        idp, idmgr, pub, sub = build_world()
        store = PublisherPersistence.attach(
            str(tmp_path / "pub"), pub, sync=False, compact_every=3
        )
        generation = store.store.generation
        for i in range(7):
            pub.table.set("pn-%04d" % i, "role = doc", bytes(16))
            store.css_installed("pn-%04d" % i, "role = doc", bytes(16))
        assert store.store.generation > generation
        assert store.store.pending_records < 3
        store.close()

        _, _, pub2, _ = build_world()
        store2 = PublisherPersistence.attach(str(tmp_path / "pub"), pub2)
        assert pub2.table.cell_count() == 7
        store2.close()


class TestMismatch:
    def test_wrong_publisher_name_refused(self, tmp_path):
        idp, idmgr, pub, sub = build_world()
        PublisherPersistence.attach(str(tmp_path / "d"), pub, sync=False).close()
        imposter = build_world()[2]
        imposter.name = "other-pub"
        with pytest.raises(SnapshotMismatchError, match="publisher"):
            PublisherPersistence.attach(str(tmp_path / "d"), imposter)

    def test_drifted_policy_set_refused(self, tmp_path):
        idp, idmgr, pub, sub = build_world()
        PublisherPersistence.attach(str(tmp_path / "d"), pub, sync=False).close()
        drifted = build_world()[2]
        drifted.add_policy(parse_policy("role = admin", ["billing"], "report"))
        with pytest.raises(SnapshotMismatchError, match="policy"):
            PublisherPersistence.attach(str(tmp_path / "d"), drifted)

    def test_wrong_subscriber_nym_refused(self, tmp_path):
        idp, idmgr, pub, sub = build_world()
        SubscriberPersistence.attach(str(tmp_path / "d"), sub, sync=False).close()
        from repro.system.subscriber import Subscriber

        other = Subscriber("pn-9999", pub.params, rng=random.Random(5))
        with pytest.raises(SnapshotMismatchError, match="nym"):
            SubscriberPersistence.attach(str(tmp_path / "d"), other)

    def test_wrong_entity_family_refused(self, tmp_path):
        idp, idmgr, pub, sub = build_world()
        SubscriberPersistence.attach(str(tmp_path / "d"), sub, sync=False).close()
        with pytest.raises(SnapshotMismatchError, match="expected"):
            PublisherPersistence.attach(str(tmp_path / "d"), pub)

    def test_foreign_record_type_in_wal_refused(self, tmp_path):
        idp, idmgr, pub, sub = build_world()
        path = str(tmp_path / "d")
        wallet = sub.wallet_entries()[0]
        with StateStore(path, sync=False) as store:
            record = TokenHeldRecord(token=wallet.token, x=wallet.x, r=wallet.r)
            store.append(record.TYPE_ID, record.to_bytes())
        with pytest.raises(LogCorruptionError, match="publisher WAL"):
            PublisherPersistence.attach(path, pub)
