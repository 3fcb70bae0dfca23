"""Integration tests: the full Example-4 lifecycle including rekeying."""

import random

import pytest

from repro.workloads.ehr import build_hospital

EXPECTED_ACCESS = {
    "alice": {"ContactInfo"},
    "bob": {"BillingInfo"},
    "carol": {"Medication", "PhysicalExams", "LabRecords", "Plan"},
    "dave": {"ContactInfo", "Medication", "PhysicalExams", "LabRecords", "Plan"},
    "erin": set(),  # the level-58 nurse of the paper's walk-through
    "frank": {"ContactInfo", "LabRecords"},
    "grace": {"BillingInfo", "Medication"},
}


@pytest.fixture(scope="module")
def hospital():
    return build_hospital(rng=random.Random(1))


class TestBroadcast:
    def test_authorized_views_match_example_4(self, hospital):
        package = hospital.publisher.publish(hospital.document)
        for name, sub in hospital.subscribers.items():
            got = set(sub.receive(package))
            assert got == EXPECTED_ACCESS[name], name

    def test_decrypted_content_correct(self, hospital):
        package = hospital.publisher.publish(hospital.document)
        carol = hospital.subscribers["carol"].receive(package)
        assert carol["Medication"] == hospital.document.get("Medication").content

    def test_package_survives_serialization(self, hospital):
        from repro.documents.package import BroadcastPackage

        package = hospital.publisher.publish(hospital.document)
        rewired = BroadcastPackage.from_bytes(package.to_bytes())
        got = set(hospital.subscribers["frank"].receive(rewired))
        assert got == EXPECTED_ACCESS["frank"]

    def test_nobody_decrypts_rest(self, hospital):
        package = hospital.publisher.publish(hospital.document)
        for sub in hospital.subscribers.values():
            assert "_rest" not in sub.receive(package)

    def test_rekey_changes_keys_but_not_access(self, hospital):
        pub = hospital.publisher
        p1 = pub.publish(hospital.document)
        keys1 = dict(pub.last_keys)
        p2 = pub.publish(hospital.document)
        keys2 = dict(pub.last_keys)
        assert keys1 != keys2  # fresh keys per publish
        for name, sub in hospital.subscribers.items():
            assert set(sub.receive(p2)) == EXPECTED_ACCESS[name], name


class TestRevocation:
    def test_subscription_revocation(self):
        hospital = build_hospital(rng=random.Random(2))
        pub = hospital.publisher
        carol_nym = hospital.nyms["carol"]
        assert pub.revoke_subscription(carol_nym)
        package = pub.publish(hospital.document)
        # Carol (revoked) decrypts nothing; everyone else is unaffected.
        assert hospital.subscribers["carol"].receive(package) == {}
        for name in ("alice", "dave", "grace"):
            assert set(hospital.subscribers[name].receive(package)) == (
                EXPECTED_ACCESS[name]
            ), name

    def test_credential_revocation(self):
        hospital = build_hospital(rng=random.Random(3))
        pub = hospital.publisher
        dave_nym = hospital.nyms["dave"]
        # Remove Dave's level credential: he no longer satisfies acp4.
        assert pub.revoke_credential(dave_nym, "level >= 59")
        package = pub.publish(hospital.document)
        assert hospital.subscribers["dave"].receive(package) == {}

    def test_revocation_is_transparent_to_others(self):
        """No subscriber state changed: others derive new keys from the new
        broadcast with their original CSSs (the paper's 'transparent rekey')."""
        hospital = build_hospital(rng=random.Random(4))
        pub = hospital.publisher
        before = {
            name: dict(sub.css_store)
            for name, sub in hospital.subscribers.items()
        }
        pub.revoke_subscription(hospital.nyms["bob"])
        package = pub.publish(hospital.document)
        for name, sub in hospital.subscribers.items():
            assert sub.css_store == before[name]  # untouched
            if name != "bob":
                assert set(sub.receive(package)) == EXPECTED_ACCESS[name]

    def test_revoke_unknown_nym(self, hospital):
        assert not hospital.publisher.revoke_subscription("pn-9999")
        assert not hospital.publisher.revoke_credential("pn-9999", "role = doc")


class TestLateJoin:
    def test_new_subscriber_after_first_broadcast(self):
        from repro.system.registration import register_all_attributes
        from repro.system.subscriber import Subscriber

        rng = random.Random(5)
        hospital = build_hospital(rng=rng)
        pub = hospital.publisher
        p1 = pub.publish(hospital.document)

        # A new doctor joins.
        idp, idmgr = hospital.idp, hospital.idmgr
        idp.enroll("heidi", "role", "doc")
        idp.enroll("heidi", "level", 66)
        nym = idmgr.assign_pseudonym()
        heidi = Subscriber(nym, pub.params, rng=rng)
        for attr in ("role", "level"):
            token, x, r = idmgr.issue_token(
                nym, idp.assert_attribute("heidi", attr), rng=rng
            )
            heidi.hold_token(token, x, r)
        register_all_attributes(pub, heidi)

        # Backward secrecy at the system level: the old broadcast's keys
        # were generated before heidi existed in T.
        assert heidi.receive(p1) == {}
        # After the next publish she reads the doctor view.
        p2 = pub.publish(hospital.document)
        assert set(heidi.receive(p2)) == EXPECTED_ACCESS["carol"]
        for name, sub in hospital.subscribers.items():
            assert set(sub.receive(p2)) == EXPECTED_ACCESS[name]


class TestCapacitySlack:
    def test_capacity_slack_hides_population(self):
        h1 = build_hospital(rng=random.Random(6))
        h1.publisher.capacity_slack = 10
        package = h1.publisher.publish(h1.document)
        for name, sub in h1.subscribers.items():
            assert set(sub.receive(package)) == EXPECTED_ACCESS[name]
        [header] = [h for h in package.headers if h.config_id == "pc1"]
        assert header.acv.capacity > 10
