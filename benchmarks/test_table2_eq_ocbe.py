"""Table II: EQ-OCBE per-step cost.

Paper (genus-2, C++/NTL, 2008 laptop): create commitments 0.00 ms,
open envelope 35.25 ms, compose envelope 11.80 ms.  We reproduce the
*structure* -- zero receiver pre-work, open and compose within a small
factor of each other, both dominated by one scalar multiplication -- on
the same curve in pure Python, plus the faster EC backend, through
``repro.bench.figures.table2``.
"""

import pytest

from repro.bench.figures import table2

#: "A small factor": the paper's own open/compose ratio is 3.0.
SMALL_FACTOR = 5.0


@pytest.fixture(scope="module", params=["paper-genus2", "nist-p192"])
def steps(request):
    return table2(group_name=request.param, rounds=3, verbose=True)


def test_compose_envelope_pub(steps):
    assert steps["create_commitments_ms"] == 0.0
    assert steps["compose_envelope_ms"] > 0


def test_open_envelope_sub(steps):
    ratio = steps["open_envelope_ms"] / steps["compose_envelope_ms"]
    assert 1 / SMALL_FACTOR < ratio < SMALL_FACTOR
