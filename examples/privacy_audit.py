"""Privacy audit: compare the publisher's complete view across two worlds.

World A: the subscriber's hidden clearance is 7 and it really belongs to
the "ops" unit.
World B: the same subscriber's clearance is 1, and it holds no unit at all
-- only a decoy "unit" token from the IdMgr, whose committed value lies
outside every honest domain (paper Section V-B), so it can register for the
unit condition without holding the attribute.

The publisher's policies use every comparison the OCBE family offers:
``>=``, ``<``, ``!=``, ``>`` and ``=``.  Everything the publisher observes
-- registration requests, OCBE message kinds and sizes, the CSS table shape
-- is shown side by side; the two transcripts are indistinguishable, which
is the paper's headline privacy property.  The publisher cannot tell which
conditions either subscriber satisfies, nor whether it holds a unit.

Run:  python examples/privacy_audit.py
"""

import random

from repro import Document, IdentityManager, IdentityProvider, Publisher, Subscriber
from repro import default_group, parse_policy
from repro.gkm.acv import FAST_FIELD
from repro.system import InMemoryTransport, register_all_attributes

#: (policy, subdocument): one subdocument per comparison operator.
POLICIES = (
    ("clearance >= 5", "dossier"),
    ("clearance < 5", "summary"),
    ("clearance != 7", "memo"),
    ("clearance > 6", "annex"),
    ("unit = ops", "roster"),
)


def build_world(clearance, unit, seed):
    rng = random.Random(seed)
    group = default_group()
    idp = IdentityProvider("agency", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    pub = Publisher(
        "archive", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=8, rng=rng,
    )
    for policy, subdocument in POLICIES:
        pub.add_policy(parse_policy(policy, [subdocument], "records"))
    idp.enroll("agent", "clearance", clearance)
    nym = idmgr.assign_pseudonym()
    sub = Subscriber(nym, pub.params, rng=rng)
    sub.hold_token(*idmgr.issue_token(
        nym, idp.assert_attribute("agent", "clearance"), rng=rng
    ))
    if unit is None:
        sub.hold_token(*idmgr.issue_decoy_token(nym, "unit", rng=rng))
    else:
        idp.enroll("agent", "unit", unit)
        sub.hold_token(*idmgr.issue_token(
            nym, idp.assert_attribute("agent", "unit"), rng=rng
        ))
    transport = InMemoryTransport()
    register_all_attributes(pub, sub, transport)
    return pub, sub, transport


def main() -> None:
    pub_a, sub_a, t_a = build_world(clearance=7, unit="ops", seed=123)
    pub_b, sub_b, t_b = build_world(clearance=1, unit=None, seed=123)

    print("=== Publisher's transcript, world A (clearance=7, unit=ops) ===")
    for message in t_a.messages:
        print("  %-28s %5d bytes  (%s)" % (message.kind, message.size, message.note))
    print("=== Publisher's transcript, world B (clearance=1, decoy unit) ===")
    for message in t_b.messages:
        print("  %-28s %5d bytes  (%s)" % (message.kind, message.size, message.note))

    same = [(m.kind, m.size, m.note) for m in t_a.messages] == [
        (m.kind, m.size, m.note) for m in t_b.messages
    ]
    print("\ntranscripts identical in kind/size/condition:", same)

    print("\n=== CSS table shapes ===")
    print("world A:\n%s" % pub_a.table.render())
    print("world B:\n%s" % pub_b.table.render())
    print("(cells differ only in the random CSS values the publisher minted;")
    print(" both worlds have a CSS for EVERY condition, satisfied or not,")
    print(" and for the unit condition whether the token is real or a decoy.)")

    doc = Document.of("records", {
        subdocument: ("%s text" % subdocument).encode()
        for _, subdocument in POLICIES
    })
    got_a = sorted(sub_a.receive(pub_a.publish(doc)))
    got_b = sorted(sub_b.receive(pub_b.publish(doc)))
    print("\nonly the subscribers themselves learn the outcome:")
    print("  world A subscriber decrypts:", got_a)
    print("  world B subscriber decrypts:", got_b)

    assert same
    assert got_a == ["annex", "dossier", "roster"]
    assert got_b == ["memo", "summary"]
    print("OK: access control enforced, publisher oblivious.")


if __name__ == "__main__":
    main()
