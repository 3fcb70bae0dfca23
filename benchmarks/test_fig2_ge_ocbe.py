"""Figure 2: GE-OCBE per-step cost vs the bit length l.

Paper trend: all three steps grow linearly in l (about 900 ms total at
l = 40 on their genus-2/C++ stack).  ``repro.bench.figures.fig2`` sweeps
l on the EC backend (same O(l) scalar-multiplication structure); the
genus-2 point at l = 10 pins the faithful backend's cost.
"""

import pytest

from repro.bench.figures import fig2

ELLS = [5, 20, 40]


@pytest.fixture(scope="module")
def series():
    rows = fig2(ells=ELLS, group_name="nist-p192", rounds=3, verbose=True)
    return {row["ell"]: row for row in rows}


def _grows_with_ell(series, ell, step):
    """The step costs more at ``ell`` than at the smallest swept l."""
    assert series[ell][step] > 0
    if ell > ELLS[0]:
        assert series[ell][step] > series[ELLS[0]][step]


@pytest.mark.parametrize("ell", ELLS)
def test_create_commitments_sub(series, ell):
    _grows_with_ell(series, ell, "create_commitments_ms")


@pytest.mark.parametrize("ell", ELLS)
def test_compose_envelope_pub(series, ell):
    _grows_with_ell(series, ell, "compose_envelope_ms")


@pytest.mark.parametrize("ell", ELLS)
def test_open_envelope_sub(series, ell):
    _grows_with_ell(series, ell, "open_envelope_ms")


def test_genus2_faithful_point():
    """One faithful genus-2 datapoint (l=10) for cross-backend scaling."""
    (row,) = fig2(ells=(10,), group_name="paper-genus2", rounds=1, verbose=True)
    assert row["compose_envelope_ms"] > 0
