"""Ablation A3: bucketized ACV generation (Section VIII-C).

For a fixed population, generation cost should drop roughly as 1/B^2 with
B buckets (B solves of size (n/B)^3 instead of one n^3 solve), at the
price of a slightly larger total broadcast.  Builds run through the
publish-path bucketed strategy with every cache lookup missing, so each
round times the full per-bucket elimination.
"""

import random

import pytest

from repro.bench.runner import avg_time, format_table
from repro.gkm.acv import FAST_FIELD, AcvBgkm
from repro.gkm.strategy import AcvBuildCache, BucketedGkmStrategy
from repro.workloads.generator import make_css_rows
from tests.gkm.scratch import from_scratch

POPULATION = 256


def _strategy(core, bucket_size):
    return BucketedGkmStrategy(core, AcvBuildCache(), bucket_size=bucket_size)


@pytest.mark.parametrize("bucket_size", [32, 128, POPULATION])
def test_bucketed_generation(bucket_size):
    rng = random.Random(bucket_size)
    rows = make_css_rows(POPULATION, rng=rng)
    bucketed = _strategy(AcvBgkm(FAST_FIELD), bucket_size)
    with from_scratch():
        m = avg_time(lambda: bucketed.build(rows, None, 0, rng), rounds=2)
    print()
    print(format_table(
        "A3 bucketed ACV generation, N=%d" % POPULATION,
        ["bucket size", "mean ms"], [[bucket_size, m.mean_ms]],
    ))


def test_bucketing_preserves_correctness_and_size_tradeoff():
    rng = random.Random(3)
    rows = make_css_rows(POPULATION, rng=rng)
    core = AcvBgkm(FAST_FIELD)
    key_flat, header_flat = _strategy(core, POPULATION).build(rows, None, 0, rng)
    key_split, header_split = _strategy(core, 32).build(rows, None, 0, rng)
    assert len(header_flat.buckets) == 1
    assert len(header_split.buckets) == 8
    # Spot-check derivations in different buckets.
    assert core.derive(header_split.buckets[0], rows[0]) == key_split
    assert core.derive(header_split.buckets[200 // 32], rows[200]) == key_split
