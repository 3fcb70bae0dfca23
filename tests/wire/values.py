"""One seeded table of the values registration carries.

Every OCBE receiver message and sender envelope (all six predicate
variants, and ``!=`` at both ends of its domain, where one half of the
disjunction is omitted), an integer and a string IdP assertion, and a
real and a decoy identity token.  Shared by the value-level pin and
fuzzer in ``test_record_codec.py``; everything is drawn from one seeded
RNG, so the table is the same bytes on every run.
"""

import random

from repro.groups import get_group
from repro.ocbe.base import OCBESetup, receiver_for, sender_for
from repro.ocbe.predicates import (
    EqPredicate,
    GePredicate,
    GtPredicate,
    LePredicate,
    LtPredicate,
    NePredicate,
)
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider

ELL = 8
MESSAGE = b"sixteen-byte-css"

#: ``(predicate, committed value)``; every value satisfies its predicate.
CASES = (
    (EqPredicate(5), 5),
    (GePredicate(10, ELL), 12),
    (LePredicate(10, ELL), 3),
    (GtPredicate(10, ELL), 11),
    (LtPredicate(10, ELL), 9),
    (NePredicate(10, ELL), 12),
    (NePredicate(0, ELL), 3),  # no "< 0" half
    (NePredicate((1 << ELL) - 1, ELL), 7),  # no "> 2^l - 1" half
)


def build_values():
    """The table, in a fixed order: OCBE messages, assertions, tokens."""
    rng = random.Random(0x7A1E5)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    idp.enroll("wendy", "level", 61)
    idp.enroll("wendy", "role", "doc")
    setup = OCBESetup(idmgr.params)
    values = []
    for predicate, x in CASES:
        commitment, r = idmgr.params.commit(x, rng=rng)
        receiver = receiver_for(setup, predicate, x, r, commitment, rng)
        aux = receiver.commitment_message()
        if aux is not None:
            values.append(aux)
        sender = sender_for(setup, predicate, rng)
        values.append(sender.compose(commitment, aux, MESSAGE))
    level = idp.assert_attribute("wendy", "level")
    role = idp.assert_attribute("wendy", "role")
    nym = idmgr.assign_pseudonym()
    token, _, _ = idmgr.issue_token(nym, level, rng=rng)
    decoy, _, _ = idmgr.issue_decoy_token(nym, "clearance", rng=rng)
    return values + [level, role, token, decoy]
