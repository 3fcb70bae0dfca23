"""Figure 4: subscriber key-derivation time vs N.

Paper trend: a few milliseconds, linear in N (N+1 hashes + one inner
product), essentially independent of the subscriber fraction.  Driven
through ``repro.bench.figures.fig4``.
"""

import pytest

from repro.bench.figures import fig4
from repro.gkm.acv import PAPER_FIELD

MAX_USERS = [100, 500, 1000]
ROUNDS = 20


@pytest.fixture(scope="module")
def series():
    rows = fig4(
        max_users=MAX_USERS, fractions=(0.25,), rounds=ROUNDS, verbose=True
    )
    return {row["max_users"]: row["25%"] for row in rows}


@pytest.mark.parametrize("max_users", MAX_USERS)
def test_key_derivation_fast_field(series, max_users):
    assert series[max_users] > 0
    index = MAX_USERS.index(max_users)
    if index:  # linear in N: more users, more hashes
        assert series[max_users] > series[MAX_USERS[index - 1]]


def test_key_derivation_keeps_growing_on_one_instance():
    """t(N=400) >= 2 x t(N=100) with every derivation timed on the same
    ``AcvBgkm``: the subscriber's KEV memo must never become state of that
    object, or this figure turns into a cache-hit benchmark."""
    sweeps = [
        fig4(max_users=(100, 400), fractions=(0.25,), rounds=ROUNDS)
        for _ in range(3)
    ]
    t100 = min(rows[0]["25%"] for rows in sweeps)
    t400 = min(rows[1]["25%"] for rows in sweeps)
    assert t400 >= 2 * t100


def test_key_derivation_paper_field_n500():
    (row,) = fig4(
        max_users=(500,), fractions=(0.25,), field=PAPER_FIELD, rounds=ROUNDS,
        verbose=True,
    )
    assert 0 < row["25%"] < 1000  # "a few milliseconds" there; < 1 s here
