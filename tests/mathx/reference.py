"""Reference implementations the linear algebra is pinned against.

``rref_scalar`` is the numpy Gauss--Jordan loop that ``_rref_numpy`` ran
before the panel-blocked kernel: per pivot, one rank-1 update and one
int64 ``%`` over every touched row of the whole matrix.  Like
``_rref_python`` it searches pivots in the first ``ncols`` columns only
and reduces whole rows, so it reduces ``[A | I]`` as well.  It lives
beside the tests, not in ``src/``, so the library keeps one elimination
loop per backend; ablation A4 times it against the panel kernel.

``vec_dot`` is the inner product the GKM tests derive keys with
(``k = v . X``), independently of :class:`~repro.gkm.acv.AcvBgkm`.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError


def vec_dot(u: Sequence[int], v: Sequence[int], p: int) -> int:
    """Inner product of two integer vectors modulo ``p``."""
    if len(u) != len(v):
        raise InvalidParameterError(
            "dot product of vectors with lengths %d and %d" % (len(u), len(v))
        )
    return sum(a * b for a, b in zip(u, v)) % p


def rref_scalar(
    rows: Sequence[Sequence[int]], ncols: int, p: int
) -> Tuple[List[List[int]], List[int]]:
    """Per-pivot Gauss--Jordan elimination in int64, for ``p < 2**31``."""
    a = np.array([list(row) for row in rows], dtype=np.int64) % p
    nrows = a.shape[0]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nonzero = np.nonzero(a[r:, c])[0]
        if nonzero.size == 0:
            continue
        pr = r + int(nonzero[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        touched = np.nonzero(col)[0]
        if touched.size:
            a[touched] = (a[touched] - np.outer(col[touched], a[r])) % p
        pivots.append(c)
        r += 1
    return a.tolist(), pivots


def with_identity(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """``[A | I]``: each row followed by its unit vector."""
    n = len(rows)
    return [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
