"""One seeded table of broadcast packages and keying headers.

A dense package, a bucketed one, one that carries only the empty
configuration (no keying header, Example 4), one with several
configurations -- empty, dense over both fields, bucketed -- and several
subdocuments, a bucketed keying header with a single bucket, and two
dense keying headers at the edges of the seeded-nonce checks: capacity 1
(one flip from a zero count) and a capacity equal to the header's byte
length (one more is refused).  Shared
by the package-level pin and fuzzer in ``test_record_codec.py``;
everything is drawn from one seeded RNG, so the table is the same bytes
on every run.
"""

import random

from repro.documents.package import (
    BroadcastPackage,
    ConfigHeader,
    EncryptedSubdocument,
)
from repro.gkm.acv import FAST_FIELD, PAPER_FIELD, AcvBgkm, AcvHeader
from repro.gkm.strategy import AcvBuildCache, BucketedGkmStrategy


def build_packages():
    """The table, in a fixed order: four packages, then three headers."""
    rng = random.Random(0xB9C1)
    fast, paper = AcvBgkm(FAST_FIELD), AcvBgkm(PAPER_FIELD)

    def rows(count):
        return [(rng.randbytes(16), rng.randbytes(16)) for _ in range(count)]

    def dense(core, count, capacity):
        # Spare capacity leaves zero runs between X's literal runs.
        return core.generate(rows(count), n_max=capacity, rng=rng)[1]

    def bucketed(count, bucket_size):
        strategy = BucketedGkmStrategy(fast, AcvBuildCache(), bucket_size)
        return strategy.build(rows(count), None, 1, rng)[1]

    def sub(name, config_id, size):
        return EncryptedSubdocument(name, config_id, rng.randbytes(size))

    doc = (("role = doc",),)
    nurse = (("role = nur", "level >= 59"), ("role = doc",))
    return [
        BroadcastPackage(
            "dense.xml",
            (ConfigHeader("pc1", doc, dense(fast, 3, 8)),),
            (sub("body", "pc1", 48),),
        ),
        BroadcastPackage(
            "bucketed.xml",
            (ConfigHeader("pc1", nurse, bucketed(7, 3)),),
            (sub("body", "pc1", 64), sub("notes", "pc1", 16)),
        ),
        BroadcastPackage(
            "public.xml",
            (ConfigHeader("pc0", (), None),),
            (sub("notice", "pc0", 24),),
        ),
        BroadcastPackage(
            "record.xml",
            (
                ConfigHeader("pc0", (), None),
                ConfigHeader("pc1", doc, dense(fast, 2, 12)),
                ConfigHeader("pc2", nurse, bucketed(5, 2)),
                ConfigHeader("pc3", (("level >= 80",),), dense(paper, 4, 6)),
            ),
            (
                sub("summary", "pc0", 32),
                sub("diagnosis", "pc1", 80),
                sub("care plan", "pc2", 40),
                sub("billing", "pc3", 0),
                sub("history", "pc1", 128),
            ),
        ),
        bucketed(2, 4),
        dense(fast, 1, 1),
        # Two literal runs around one zero run: 58 bytes in all.
        AcvHeader(
            q=FAST_FIELD.p,
            x=(rng.randrange(1, FAST_FIELD.p),) + (0,) * 57 + (1,),
            seed=rng.randbytes(20),
            capacity=58,
        ),
    ]
