"""Dense-vs-bucketed ablation through the REAL publish path.

``benchmarks/test_ablation_buckets.py`` measures the raw Section VIII-C
scheme; this file measures what PR 5 wired up: ``Publisher.publish``
under the ``gkm`` strategy knob, cold (every build cache lookup
misses -- the honest elimination cost) and warm (the member-row-keyed
ACV build cache across consecutive publishes of an unchanged table).

Prints per-N cold publish means for both strategies plus the warm
cache-hit mean, and the exact broadcast sizes (the bucketed trade-off:
~B^2 faster elimination for a slightly larger header), and asserts the
ordering bucketed < dense and cached < bucketed at every N.
"""

import random

from repro.bench.runner import avg_time, format_table
from repro.documents.model import Document
from repro.gkm.acv import FAST_FIELD
from repro.gkm.buckets import BucketedHeader
from repro.groups import get_group
from repro.policy.acp import parse_policy
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher
from tests.gkm.scratch import from_scratch

POPULATIONS = (64, 256, 512)
SEED = 0xB0CA

DOC = Document.of("doc", {"body": b"bulletin body"})


def _build_publisher(n, gkm):
    rng = random.Random(SEED)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    publisher = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=8, rng=rng, gkm=gkm,
    )
    publisher.add_policy(parse_policy("clr >= 40", ["body"], "doc"))
    table_rng = random.Random(SEED + 1)
    for i in range(n):
        publisher.table.set(
            "pn-%04d" % i, "clr >= 40",
            bytes(table_rng.randrange(256) for _ in range(16)),
        )
    return publisher


def test_bucketed_publish_path_beats_dense():
    rows = []
    for n in POPULATIONS:
        cold = {}
        package_bytes = {}
        for gkm in ("dense", "bucketed"):
            publisher = _build_publisher(n, gkm)
            with from_scratch():
                cold[gkm] = avg_time(lambda p=publisher: p.publish(DOC), rounds=2)
                package = publisher.publish(DOC)
            package_bytes[gkm] = package.byte_size()
            if gkm == "bucketed":
                acv = package.headers[0].acv
                assert isinstance(acv, BucketedHeader)
                assert len(acv.buckets) > 1
        # Warm: consecutive publishes of an unchanged table hit the ACV
        # build cache and skip the elimination entirely.
        warm_pub = _build_publisher(n, "dense")
        warm_pub.publish(DOC)  # populate the cache
        warm = avg_time(lambda: warm_pub.publish(DOC), rounds=3)
        assert warm_pub.acv_cache_stats()["hits"] >= 3
        rows.append([
            n, cold["dense"].mean_ms, cold["bucketed"].mean_ms,
            cold["dense"].mean / max(cold["bucketed"].mean, 1e-9),
            warm.mean_ms,
            package_bytes["dense"], package_bytes["bucketed"],
        ])
        # The tentpole claim, on the publish path itself: the bucketed
        # strategy is strictly faster than one dense elimination at
        # every measured population, and the cache beats both.
        assert cold["bucketed"].mean < cold["dense"].mean
        assert warm.mean < cold["bucketed"].mean

    print()
    print(format_table(
        "Publisher.publish, dense vs bucketed (auto bucket policy)",
        ["N", "dense ms", "bucketed ms", "speedup", "cached ms",
         "dense B", "bucketed B"],
        rows,
    ))
