"""Figure 5: ACV broadcast size vs N per user configuration.

Paper trend: a few KB, linear in N, increasing with the subscriber
fraction (their ACVs are compressed, so sparse vectors from small
populations transmit fewer field elements).  Sizes come from
``repro.bench.figures.fig5`` on the faithful 80-bit field.
"""

import pytest

from repro.bench.figures import fig5

FRACTIONS = [0.25, 1.0]


def _sizes(max_users):
    rows = fig5(max_users=max_users, fractions=FRACTIONS, verbose=True)
    return {
        (row["max_users"], fraction): row["%d%%" % round(fraction * 100)]
        for row in rows
        for fraction in FRACTIONS
    }


@pytest.fixture(scope="module")
def sizes_kb():
    return _sizes((100, 500))


@pytest.mark.parametrize("fraction", FRACTIONS, ids=["25pct", "100pct"])
@pytest.mark.parametrize("max_users", [100, 500])
def test_header_serialization(sizes_kb, max_users, fraction):
    size = sizes_kb[(max_users, fraction)]
    assert 0 < size < 40  # "a few KB"
    if fraction > FRACTIONS[0]:
        assert size > sizes_kb[(max_users, FRACTIONS[0])]


def test_size_trend_matches_paper():
    """Assert the Figure-5 shape: size linear in N, growing with the
    fraction."""
    sizes = _sizes((100, 400))
    assert sizes[(400, 1.0)] > sizes[(400, 0.25)]          # grows with subs
    assert sizes[(400, 1.0)] < 40                          # "a few KB"
    # Linear in N: 4x the users is 4x the header, give or take the
    # fixed per-header fields.
    assert 3.5 < sizes[(400, 1.0)] / sizes[(100, 1.0)] < 4.5
