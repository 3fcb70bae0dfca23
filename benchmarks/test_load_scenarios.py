"""The churn scenario benchmark (nightly slow tier).

Runs the builtin ``churn`` scenario -- >= 64 subscribers across >= 2
publishers with >= 3 churn phases (revoke storm, replacement arrivals,
a kill-and-recover flap wave, a second storm) -- over BOTH drivers.
The engine itself asserts the paper's invariants after every phase
(revoked members locked out, current members derive the epoch key,
rekeys generate zero unicast), so a passing run *is* the correctness
claim; this file adds the driver-equivalence assertion (byte-identical
protocol traffic over TCP) and prints each run's per-phase table.

Also measures the churn hot path optimisation: revoking k members as a
batch followed by ONE publish (one ACV matrix build) versus the naive
revoke-publish loop (k matrix builds).
"""

import random

from repro.bench.runner import avg_time, format_table
from repro.documents.model import Document
from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.load import bucketed, churn_scenario, run_scenario
from repro.policy.acp import parse_policy
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher


def _print_report(report):
    print()
    print(report.format())


def test_churn_scenario_over_both_drivers():
    scenario = churn_scenario()
    # The acceptance shape: >= 64 subscribers, >= 2 publishers, >= 3
    # churn phases.
    assert scenario.phases[0].count >= 64
    assert len(scenario.publishers) >= 2
    churn = [p for p in scenario.phases[1:] if p.kind in ("join", "revoke", "flap")]
    assert len(churn) >= 3

    memory = run_scenario(scenario, driver="memory")
    _print_report(memory)

    # The TCP run supervises the broker as its own OS process: every
    # frame of the churn crosses a real process boundary.
    tcp = run_scenario(scenario, driver="tcp", broker="process")
    _print_report(tcp)

    # Driver equivalence: identical protocol traffic, byte for byte.
    assert tcp.bytes_by_kind() == memory.bytes_by_kind()
    assert [p.frames for p in tcp.phases] == [p.frames for p in memory.phases]
    for report in (memory, tcp):
        assert report.params["members_total"] >= 64
        assert report.params["members_revoked"] >= 2
        # Rekeys happened in every phase and stayed broadcast-only
        # (enforced per phase by the engine's invariant checks).
        assert all(p.rekeys >= 1 for p in report.phases)


def test_bucketed_churn_rekey_beats_dense():
    """The ISSUE-5 acceptance number: the bucketed churn scenario at
    N=64 spends strictly less wall time in the publish-path rekey than
    the dense baseline, with every invariant (incl. the bucket-layout
    audit) asserted after each phase by the engine itself.

    Best of three interleaved runs per side, in total and per phase: the
    walls compared are ~5-10 ms per phase, the host is shared (it only
    ever adds time, in bursts), and since the Eq. 2 row kernel halved the
    hashing that was most of the dense build at this size the lead is
    ~1.3x rather than ~2x -- one run per side would gate on the
    neighbours.
    """
    dense_runs, split_runs = [], []
    for _ in range(3):
        dense_runs.append(run_scenario(churn_scenario(), driver="memory"))
        split_runs.append(run_scenario(bucketed(churn_scenario()), driver="memory"))
    dense_report, split_report = dense_runs[0], split_runs[0]
    _print_report(split_report)

    def best(reports, label=None):
        if label is None:
            return min(r.rekey_publish_s for r in reports)
        return min(
            p.rekey_publish_s for r in reports for p in r.phases if p.label == label
        )

    print("rekey publish wall: dense %.1f ms, bucketed %.1f ms"
          % (best(dense_runs) * 1e3, best(split_runs) * 1e3))
    # Strictly below the dense baseline: in total, and in every revoke
    # phase (where the membership change invalidates the ACV cache and
    # the elimination actually reruns).  Pure broadcast phases hit the
    # cache under BOTH strategies, so neither side pays a matrix there.
    assert best(split_runs) < best(dense_runs)
    for phase in split_report.phases:
        if phase.kind == "revoke":
            assert best(split_runs, phase.label) < best(dense_runs, phase.label)

    # Same membership trajectory on both sides (same seed, same spec).
    assert [p.members_alive for p in split_report.phases] == [
        p.members_alive for p in dense_report.phases
    ]
    assert split_report.params["members_total"] == (
        dense_report.params["members_total"]
    )


# -- the batched-rekey hot path ----------------------------------------------

N_MEMBERS = 64
K_REVOKED = 8
SEED = 0x4EC4


def _build_world():
    rng = random.Random(SEED)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    publisher = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=8, rng=rng,
    )
    publisher.add_policy(parse_policy("clr >= 40", ["body"], "doc"))
    table_rng = random.Random(SEED + 1)
    for i in range(N_MEMBERS):
        publisher.table.set(
            "pn-%04d" % i, "clr >= 40",
            bytes(table_rng.randrange(256) for _ in range(16)),
        )
    return publisher


DOC = Document.of("doc", {"body": b"bulletin body"})


def test_batched_revoke_rekey_is_one_matrix_build():
    nyms = ["pn-%04d" % i for i in range(K_REVOKED)]

    def naive():
        publisher = _build_world()
        for nym in nyms:  # one matrix build per revocation
            assert publisher.revoke_subscription(nym)
            publisher.publish(DOC)

    def batched():
        publisher = _build_world()
        assert publisher.revoke_subscriptions(nyms) == K_REVOKED
        publisher.publish(DOC)  # ONE matrix build for the whole storm

    naive_m = avg_time(naive, rounds=3)
    batched_m = avg_time(batched, rounds=3)

    print()
    print(format_table(
        "revoke-storm rekey, N=%d members, k=%d revoked"
        % (N_MEMBERS, K_REVOKED),
        ["strategy", "mean ms", "min ms", "max ms"],
        [
            ["revoke+publish x k", naive_m.mean_ms, naive_m.minimum * 1e3,
             naive_m.maximum * 1e3],
            ["batch revoke, 1 publish", batched_m.mean_ms,
             batched_m.minimum * 1e3, batched_m.maximum * 1e3],
        ],
    ))

    # Both end in the same table; the batched path must be decisively
    # cheaper (k matrix builds vs one, so roughly k-fold).
    assert batched_m.mean < naive_m.mean

    # And the resulting broadcast is equivalent: the remaining members'
    # rows derive the key, the revoked ones are locked out.
    publisher = _build_world()
    publisher.revoke_subscriptions(nyms)
    package = publisher.publish(DOC)
    header = package.headers[0]
    gkm = publisher._gkm
    key = publisher.last_keys[("doc", header.config_id)]
    survivor_css = publisher.table.get("pn-%04d" % K_REVOKED, "clr >= 40")
    assert gkm.derive(header.acv, (survivor_css,)) == key
