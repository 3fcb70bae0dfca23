"""Figure 6: ACV generation / key derivation vs conditions per policy.

Paper trend (N = 500, 25 policies): key derivation flat; ACV generation
increases slightly (< 100 ms over the sweep) because each matrix entry
hashes a longer CSS concatenation.  Driven through
``repro.bench.figures.fig6``.
"""

import pytest

from repro.bench.figures import fig6

N = 200  # scaled from the paper's 500 to keep the slow tier's rounds fast
CONDITIONS = [1, 5, 10]
#: "Flat" / "increases slightly": with 10x the conditions the cost stays
#: within this factor of the one-condition point -- only the hashed CSS
#: concatenation grows, never the matrix.
FLAT_FACTOR = 5.0


@pytest.fixture(scope="module")
def series():
    rows = fig6(conditions=CONDITIONS, max_users=N, rounds=2, verbose=True)
    return {row["conditions"]: row for row in rows}


@pytest.mark.parametrize("conditions", CONDITIONS)
def test_generation_vs_conditions(series, conditions):
    base = series[CONDITIONS[0]]["generation_ms"]
    assert 0 < series[conditions]["generation_ms"] < FLAT_FACTOR * base


@pytest.mark.parametrize("conditions", CONDITIONS)
def test_derivation_vs_conditions(series, conditions):
    base = series[CONDITIONS[0]]["derivation_ms"]
    assert 0 < series[conditions]["derivation_ms"] < FLAT_FACTOR * base
