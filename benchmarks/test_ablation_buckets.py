"""Ablation A3: bucketized ACV generation (Section VIII-C).

For a fixed population, generation cost should drop roughly as 1/B^2 with
B buckets (B solves of size (n/B)^3 instead of one n^3 solve), at the
price of a slightly larger total broadcast.
"""

import random

import pytest

from repro.bench.runner import avg_time, format_table
from repro.gkm.acv import FAST_FIELD
from repro.gkm.buckets import BucketedAcvBgkm
from repro.workloads.generator import make_css_rows

POPULATION = 256


@pytest.mark.parametrize("bucket_size", [32, 128, POPULATION])
def test_bucketed_generation(bucket_size):
    rng = random.Random(bucket_size)
    rows = make_css_rows(POPULATION, rng=rng)
    bucketed = BucketedAcvBgkm(bucket_size=bucket_size, field=FAST_FIELD)
    m = avg_time(lambda: bucketed.generate(rows, rng=rng), rounds=2)
    print()
    print(format_table(
        "A3 bucketed ACV generation, N=%d" % POPULATION,
        ["bucket size", "mean ms"], [[bucket_size, m.mean_ms]],
    ))


def test_bucketing_preserves_correctness_and_size_tradeoff():
    rng = random.Random(3)
    rows = make_css_rows(POPULATION, rng=rng)
    flat = BucketedAcvBgkm(bucket_size=POPULATION, field=FAST_FIELD)
    split = BucketedAcvBgkm(bucket_size=32, field=FAST_FIELD)
    key_flat, header_flat = flat.generate(rows, rng=rng)
    key_split, header_split = split.generate(rows, rng=rng)
    assert len(header_flat.buckets) == 1
    assert len(header_split.buckets) == 8
    # Spot-check derivations in different buckets.
    assert split.derive(header_split, rows[0], bucket=0) == key_split
    assert split.derive(header_split, rows[200], bucket=200 // 32) == key_split
