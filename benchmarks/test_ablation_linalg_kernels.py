"""Ablation A4: pure-Python vs numpy elimination kernels.

The numpy kernel is what makes the paper's N = 1000 sweeps tractable in
Python; this ablation quantifies the gap at identical matrix sizes (the
pure kernel must use the word-sized prime too for apples-to-apples).
"""

import random

from repro.bench.runner import avg_time, format_table
from repro.mathx.field import PrimeField
from repro.mathx.linalg import _rref_numpy, _rref_python

FIELD = PrimeField(1073741827)
SIZE = 120


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


def test_python_kernel():
    _timed(_rref_python, rounds=2)


def test_kernels_equivalent():
    rows = _rows(2)
    reduced_np, pivots_np = _rref_numpy(rows, SIZE + 1, FIELD.p)
    reduced_py, pivots_py = _rref_python(rows, SIZE + 1, FIELD.p)
    assert pivots_np == pivots_py
    assert reduced_np == reduced_py
