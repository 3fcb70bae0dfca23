"""Figure 3: ACV generation time vs maximum users N per user configuration.

Paper trend: cubic-ish growth in N (null-space solve), increasing with the
fraction of current subscribers; < 45 s at N = 1000 on their NTL stack.
``repro.bench.figures.fig3`` sweeps the word-sized field (vectorised numpy
elimination) and runs the 80-bit paper field at N = 100 for the faithful
arithmetic.
"""

import pytest

from repro.bench.figures import fig3
from repro.gkm.acv import PAPER_FIELD

MAX_USERS = [100, 250, 500]
FRACTIONS = [0.25, 1.0]


def _column(fraction):
    return "%d%%" % round(fraction * 100)


@pytest.fixture(scope="module")
def series():
    rows = fig3(max_users=MAX_USERS, fractions=FRACTIONS, rounds=2, verbose=True)
    return {row["max_users"]: row for row in rows}


@pytest.mark.parametrize("fraction", FRACTIONS, ids=["25pct", "100pct"])
@pytest.mark.parametrize("max_users", MAX_USERS)
def test_acv_generation_fast_field(series, max_users, fraction):
    seconds = series[max_users][_column(fraction)]
    assert seconds > 0
    index = MAX_USERS.index(max_users)
    if index:  # grows with N ...
        assert seconds > series[MAX_USERS[index - 1]][_column(fraction)]
    if fraction > FRACTIONS[0]:  # ... and with the subscribed fraction
        assert seconds > series[max_users][_column(FRACTIONS[0])]


@pytest.mark.parametrize("fraction", [1.0], ids=["100pct"])
def test_acv_generation_paper_field_n100(fraction):
    """Faithful 80-bit field (pure-Python kernel) at N = 100."""
    (row,) = fig3(
        max_users=(100,), fractions=(fraction,), field=PAPER_FIELD, rounds=2,
        verbose=True,
    )
    assert row[_column(fraction)] > 0
