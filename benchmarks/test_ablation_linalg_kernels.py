"""Ablation A4: the elimination kernels at identical matrix sizes.

Three kernels over one word-sized prime (the pure kernel uses it too, for
apples-to-apples): the panel-blocked numpy kernel the library runs for
``p < 2**31``, the per-pivot numpy loop it replaced (the reference in
``tests/mathx/reference.py``) and the pure-Python kernel the paper's
80-bit field runs.  Two shapes: a 100 x 121 ACV-shaped matrix, and the
tracked ``[A | I]`` elimination of a 192 x 193 access matrix -- the shape
``RrefFactorization.from_matrix`` reduces twice per ``churn_rekey`` revoke.
On the tracked shape the panel kernel must beat the reference by at least
3x, best of 3; the kernels are pinned equal.
"""

import random

from repro.bench.runner import avg_time, format_table
from repro.mathx.field import PrimeField
from repro.mathx.linalg import _rref_numpy, _rref_python
from tests.mathx.reference import rref_scalar, with_identity

FIELD = PrimeField(1073741827)
SIZE = 120
TRACKED = 192


def _rows(seed):
    rng = random.Random(seed)
    return [
        [1] + [rng.randrange(FIELD.p) for _ in range(SIZE)]
        for _ in range(SIZE - 20)
    ]


def _timed(kernel, rounds):
    rows = _rows(1)
    m = avg_time(lambda: kernel(rows, SIZE + 1, FIELD.p), rounds=rounds)
    print()
    print(format_table(
        "A4 RREF of a %d x %d matrix" % (SIZE - 20, SIZE + 1),
        ["kernel", "mean ms"], [[kernel.__name__, m.mean_ms]],
    ))


def test_numpy_kernel():
    _timed(_rref_numpy, rounds=3)


def test_reference_kernel():
    _timed(rref_scalar, rounds=3)


def test_python_kernel():
    _timed(_rref_python, rounds=2)


def test_kernels_equivalent():
    rows = _rows(2)
    reduced_np, pivots_np = _rref_numpy(rows, SIZE + 1, FIELD.p)
    reduced_py, pivots_py = _rref_python(rows, SIZE + 1, FIELD.p)
    assert pivots_np == pivots_py
    assert reduced_np == reduced_py
    assert rref_scalar(rows, SIZE + 1, FIELD.p) == (reduced_np, pivots_np)


def test_tracked_panel_kernel_beats_reference():
    rng = random.Random(3)
    rows = with_identity([
        [1] + [rng.randrange(FIELD.p) for _ in range(TRACKED)]
        for _ in range(TRACKED)
    ])
    ncols = TRACKED + 1
    assert _rref_numpy(rows, ncols, FIELD.p) == rref_scalar(rows, ncols, FIELD.p)
    panel = avg_time(lambda: _rref_numpy(rows, ncols, FIELD.p), rounds=3)
    scalar = avg_time(lambda: rref_scalar(rows, ncols, FIELD.p), rounds=3)
    print()
    print(format_table(
        "A4 tracked RREF of a %d x (%d + %d) matrix, best of 3"
        % (TRACKED, ncols, TRACKED),
        ["kernel", "best ms", "speedup"],
        [["_rref_numpy (panel)", panel.minimum * 1e3, scalar.minimum / panel.minimum],
         ["rref_scalar (reference)", scalar.minimum * 1e3, 1.0]],
    ))
    assert panel.minimum * 3 <= scalar.minimum
