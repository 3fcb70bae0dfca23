"""Incremental ACV maintenance vs from-scratch re-solve on joins.

The PR-10 tentpole claim: once a publisher's build cache carries a
configuration's :class:`~repro.gkm.acv.AcvFactorization`, a membership
*join* costs one O(m^2) row/column extension plus a recombination --
not the O(m^3) elimination (plus the O(m*n) hash matrix rebuild) the
from-scratch path pays.  This file measures that through the REAL
publish path at N=256: the incremental leg joins a member, calls the
pure-join cache notification and publishes; the scratch leg (every
build cache lookup misses) does the same joins with a full solve each
time.

The quick leg asserts the >= 3x floor and that both paths publish a
byte-identical-size package (pinned: 1203 B at N=256 + 8 joins).  The
nightly leg drives the same workload end-to-end through the load
engine's warm-churn scenario.
"""

import random

import pytest

from repro.bench.runner import avg_time, format_table
from repro.documents.model import Document
from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.policy.acp import parse_policy
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher
from tests.gkm.scratch import from_scratch

POPULATION = 256
JOINS = 8
SEED = 0x10C2

DOC = Document.of("doc", {"body": b"bulletin body"})


def _build_publisher(n):
    rng = random.Random(SEED)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    publisher = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=8, rng=rng, gkm="dense",
    )
    publisher.add_policy(parse_policy("clr >= 40", ["body"], "doc"))
    table_rng = random.Random(SEED + 1)
    for i in range(n):
        publisher.table.set(
            "pn-%04d" % i, "clr >= 40",
            bytes(table_rng.randrange(256) for _ in range(16)),
        )
    return publisher


def _join_and_publish(publisher, counter, incremental):
    """One join (a brand-new CSS cell) followed by the rekeying publish."""
    index = POPULATION + counter[0]
    counter[0] += 1
    publisher.table.set(
        "pn-%04d" % index, "clr >= 40",
        bytes(random.Random(SEED + 2 + index).randrange(256) for _ in range(16)),
    )
    if incremental:
        publisher._note_acv_join()
    publisher.publish(DOC)


def test_incremental_join_quick():
    incr = _build_publisher(POPULATION)
    incr.publish(DOC)  # warm: seed the factorization for the base rows
    counter = [0]
    incr_time = avg_time(
        lambda: _join_and_publish(incr, counter, incremental=True),
        rounds=JOINS,
    )
    stats = incr.acv_cache_stats()
    # Every join must have taken the extension path, never a re-solve
    # (each publish exact-misses on the grown row set, then extends; the
    # only full elimination is the warm-up's).
    assert stats["extends"] == JOINS, stats
    assert stats["misses"] == JOINS + 1, stats
    incr_bytes = incr.publish(DOC).byte_size()

    scratch = _build_publisher(POPULATION)
    with from_scratch():
        scratch.publish(DOC)  # parity with the incremental leg's warm-up
        counter = [0]
        scratch_time = avg_time(
            lambda: _join_and_publish(scratch, counter, incremental=False),
            rounds=JOINS,
        )
        scratch_bytes = scratch.publish(DOC).byte_size()
    stats = scratch.acv_cache_stats()
    assert stats["hits"] == stats["extends"] == 0 and stats["misses"] > 0
    # Seeded draws: the package size is exact, and the incremental path
    # must not change it.
    assert incr_bytes == scratch_bytes == 1203

    speedup = scratch_time.mean / max(incr_time.mean, 1e-9)

    print()
    print(format_table(
        "Per-join publish, incremental extension vs from-scratch solve",
        ["N", "joins", "incremental ms", "scratch ms", "speedup"],
        [[POPULATION, JOINS, incr_time.mean_ms, scratch_time.mean_ms,
          speedup]],
    ))
    # The acceptance floor: >= 3x over the from-scratch solve at N=256.
    assert incr_time.mean * 3 <= scratch_time.mean, (
        "incremental join %.2fms not 3x faster than scratch %.2fms"
        % (incr_time.mean_ms, scratch_time.mean_ms)
    )


@pytest.mark.slow
def test_warm_churn_end_to_end_n256():
    """The nightly leg: the same claim through the load engine.

    ``warm_churn_scenario(subscribers=256)`` interleaves joins and
    broadcasts on warm publishers, so every post-wave rekey must ride
    the ``acv.update`` path; the from-scratch twin (every build cache
    lookup misses) must deliver byte-identical plaintexts while never
    extending.
    """
    from repro.load.engine import LoadEngine
    from repro.load.scenarios import warm_churn_scenario

    scenario = warm_churn_scenario(subscribers=256, waves=3)

    def run(spec):
        with LoadEngine(spec, driver="memory") as engine:
            engine.run()
            docs = {
                member.user: {
                    name: dict(texts)
                    for name, texts in member.client.documents.items()
                }
                for member in engine.members.values()
                if member.client is not None
            }
            stats = {
                name: service.publisher.acv_cache_stats()
                for name, service in engine.services.items()
            }
            return docs, stats

    warm_docs, warm_stats = run(scenario)
    with from_scratch():
        cold_docs, cold_stats = run(scenario)
    assert warm_docs == cold_docs
    extends = {name: stats["extends"] for name, stats in warm_stats.items()}
    assert all(count > 0 for count in extends.values()), extends
    assert all(
        stats["hits"] == stats["extends"] == 0 and stats["misses"] > 0
        for stats in cold_stats.values()
    ), cold_stats

    print()
    print("warm-churn n256 extends per publisher: %s" % extends)
