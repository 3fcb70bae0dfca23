"""Privacy tests: the publisher's view is independent of attribute values.

The paper's central claim is that the Pub learns neither the values of
identity attributes nor which conditions a Sub satisfies.  These tests
make the claim falsifiable inside the implementation: two worlds that
differ only in a subscriber's hidden attribute value must present the Pub
with views that are equal in everything the Pub can observe
(registration behaviour, table shape, message kinds/sizes).
"""

import random


from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.policy.acp import parse_policy
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher
from repro.system.registration import register_all_attributes
from repro.system.subscriber import Subscriber
from repro.system.transport import InMemoryTransport


def build_world(level_value, seed):
    """A publisher with one level-gated policy and one subscriber whose
    hidden level is ``level_value``."""
    rng = random.Random(seed)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    pub = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=16, rng=rng,
    )
    pub.add_policy(parse_policy("level >= 59", ["secret_part"], "doc"))
    pub.add_policy(parse_policy("level < 59", ["open_part"], "doc"))
    idp.enroll("user", "level", level_value)
    nym = idmgr.assign_pseudonym()
    sub = Subscriber(nym, pub.params, rng=rng)
    token, x, r = idmgr.issue_token(nym, idp.assert_attribute("user", "level"), rng=rng)
    sub.hold_token(token, x, r)
    transport = InMemoryTransport()
    register_all_attributes(pub, sub, transport)
    return pub, sub, transport


class TestPublisherObliviousness:
    def test_table_shape_independent_of_value(self):
        """Same registration foot-print whether the level is 61 or 20."""
        pub_high, _, _ = build_world(61, seed=42)
        pub_low, _, _ = build_world(20, seed=42)
        assert pub_high.table.condition_keys() == pub_low.table.condition_keys()
        assert pub_high.table.cell_count() == pub_low.table.cell_count()

    def test_message_kinds_and_counts_identical(self):
        _, _, t_high = build_world(61, seed=43)
        _, _, t_low = build_world(20, seed=43)
        assert t_high.kinds_count() == t_low.kinds_count()

    def test_message_sizes_identical(self):
        """Byte-for-byte equal transcript *sizes*: nothing in the lengths
        leaks the committed value (GE-OCBE always sends l commitments and
        2l bit-ciphers)."""
        _, _, t_high = build_world(61, seed=44)
        _, _, t_low = build_world(20, seed=44)
        sizes_high = [(m.kind, m.size) for m in t_high.messages]
        sizes_low = [(m.kind, m.size) for m in t_low.messages]
        assert sizes_high == sizes_low

    def test_sub_knows_outcome_pub_does_not_record_it(self):
        """Only the Sub knows which CSSs opened; the publisher's table
        records every condition either way."""
        pub, sub, _ = build_world(61, seed=45)
        assert set(sub.css_store) == {"level >= 59"}
        assert pub.table.has(sub.nym, "level >= 59")
        assert pub.table.has(sub.nym, "level < 59")

    def test_commitment_hides_value(self):
        """The token the Pub sees is a Pedersen commitment: both worlds'
        commitments are valid group elements revealing nothing; with the
        same blinding randomness they would even be distributed
        identically -- here we check the Pub cannot brute-force small
        values because the blinding is 192-bit."""
        _, sub_high, _ = build_world(61, seed=46)
        token = sub_high.wallet_for("level").token
        params = sub_high.params.pedersen
        # Exhaustive value guesses without r fail:
        assert all(
            not params.verify_open(token.commitment, guess, 0)
            for guess in range(0, 128)
        )


class TestBroadcastPrivacy:
    def test_header_reveals_only_policy_structure(self):
        """Broadcast headers carry condition strings (public policy) and
        the ACV -- no pseudonym, no CSS, no table row order beyond the
        matrix dimensionality N."""
        pub, sub, _ = build_world(61, seed=47)
        from repro.documents.model import Document

        doc = Document.of("doc", {"secret_part": b"s", "open_part": b"o"})
        package = pub.publish(doc)
        raw = package.to_bytes()
        assert sub.nym.encode() not in raw
        for row_nym in pub.table.pseudonyms():
            assert row_nym.encode() not in raw
        for key in ("level >= 59", "level < 59"):
            for nym in pub.table.pseudonyms():
                if pub.table.has(nym, key):
                    assert pub.table.get(nym, key) not in raw
