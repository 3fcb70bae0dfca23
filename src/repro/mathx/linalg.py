"""Dense linear algebra over prime fields.

This module replaces NTL's ``kernel()`` used by the paper.  The publisher's
rekey operation solves ``A Y = 0`` for a matrix ``A`` with one row per
(policy, subscriber) pair; the null space is computed by Gauss--Jordan
elimination and the published access control vector (ACV) is a random
combination of the basis vectors, exactly as Section VII of the paper
describes.

Two elimination kernels are provided:

* a **pure-Python** kernel valid for any prime modulus (used for the paper's
  80-bit field ``F_q``), and
* a **panel-blocked numpy** kernel used automatically when the modulus fits
  in 31 bits.  It performs the same row operations a panel of columns at a
  time and updates the columns right of each panel with exact float64
  matrix products; it is what makes the N = 1000 sweeps of Figures 3--5
  and the publisher's rekey under churn feasible in Python.

Matrices store plain ints internally (row-major) for speed; the
:class:`~repro.mathx.field.PrimeField` is carried alongside for semantics.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    FieldMismatchError,
    InvalidParameterError,
    SingularMatrixError,
)
from repro.mathx.field import PrimeField

__all__ = [
    "Matrix",
    "RrefFactorization",
    "null_space",
    "solve",
    "vec_dot",
    "NUMPY_MODULUS_LIMIT",
]

# Largest modulus for which the numpy int64 kernel is safe:  row updates
# compute a*b with a, b < p, so we need p**2 < 2**63.
NUMPY_MODULUS_LIMIT = 1 << 31

# Panel width of the blocked kernel: the most terms a float64 dot product of
# reduced coefficients (< p) and 16-bit limbs can sum while every partial
# sum stays below 2**52, hence exact.
_PANEL = ((1 << 52) - 1) // ((NUMPY_MODULUS_LIMIT - 2) * 0xFFFF)
assert _PANEL * (NUMPY_MODULUS_LIMIT - 2) * 0xFFFF < 1 << 52


def vec_dot(u: Sequence[int], v: Sequence[int], p: int) -> int:
    """Inner product of two integer vectors modulo ``p``."""
    if len(u) != len(v):
        raise InvalidParameterError(
            "dot product of vectors with lengths %d and %d" % (len(u), len(v))
        )
    return sum(a * b for a, b in zip(u, v)) % p


class Matrix:
    """A dense matrix over ``F_p`` with row-major integer storage."""

    __slots__ = ("field", "rows", "ncols")

    def __init__(self, field: PrimeField, rows: Sequence[Sequence[int]]):
        self.field = field
        p = field.p
        materialized: List[List[int]] = [[int(x) % p for x in row] for row in rows]
        if materialized:
            width = len(materialized[0])
            for row in materialized:
                if len(row) != width:
                    raise InvalidParameterError("ragged matrix rows")
            self.ncols = width
        else:
            self.ncols = 0
        self.rows = materialized

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        """The n-by-n identity matrix."""
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: PrimeField, nrows: int, ncols: int) -> "Matrix":
        """The all-zero matrix of the given shape."""
        m = cls(field, [])
        m.rows = [[0] * ncols for _ in range(nrows)]
        m.ncols = ncols
        return m

    @classmethod
    def random(
        cls,
        field: PrimeField,
        nrows: int,
        ncols: int,
        rng: Optional[random.Random] = None,
    ) -> "Matrix":
        """Matrix with independent uniform entries."""
        rng = rng or random
        p = field.p
        m = cls(field, [])
        m.rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
        m.ncols = ncols
        return m

    # -- metadata ----------------------------------------------------------

    @property
    def nrows(self) -> int:
        """Number of rows."""
        return len(self.rows)

    @property
    def shape(self) -> Tuple[int, int]:
        """``(nrows, ncols)``."""
        return (len(self.rows), self.ncols)

    def copy(self) -> "Matrix":
        """Deep copy."""
        m = Matrix(self.field, [])
        m.rows = [row[:] for row in self.rows]
        m.ncols = self.ncols
        return m

    def __getitem__(self, index: Tuple[int, int]) -> int:
        i, j = index
        return self.rows[i][j]

    def row(self, i: int) -> Tuple[int, ...]:
        """Row ``i`` as a tuple of ints."""
        return tuple(self.rows[i])

    def column(self, j: int) -> Tuple[int, ...]:
        """Column ``j`` as a tuple of ints."""
        return tuple(row[j] for row in self.rows)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Matrix") -> None:
        if self.field.p != other.field.p:
            raise FieldMismatchError("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.shape != other.shape:
            raise InvalidParameterError(
                "shape mismatch %s vs %s" % (self.shape, other.shape)
            )
        p = self.field.p
        return Matrix(
            self.field,
            [
                [(a + b) % p for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.shape != other.shape:
            raise InvalidParameterError(
                "shape mismatch %s vs %s" % (self.shape, other.shape)
            )
        p = self.field.p
        return Matrix(
            self.field,
            [
                [(a - b) % p for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.ncols != other.nrows:
            raise InvalidParameterError(
                "cannot multiply %s by %s" % (self.shape, other.shape)
            )
        p = self.field.p
        other_t = list(zip(*other.rows)) if other.rows else []
        return Matrix(
            self.field,
            [
                [sum(a * b for a, b in zip(row, col)) % p for col in other_t]
                for row in self.rows
            ],
        )

    def mat_vec(self, v: Sequence[int]) -> Tuple[int, ...]:
        """Matrix-vector product ``A v`` modulo p."""
        if len(v) != self.ncols:
            raise InvalidParameterError(
                "vector length %d does not match %d columns" % (len(v), self.ncols)
            )
        p = self.field.p
        return tuple(sum(a * b for a, b in zip(row, v)) % p for row in self.rows)

    def transpose(self) -> "Matrix":
        """The transpose."""
        if not self.rows:
            return Matrix(self.field, [])
        return Matrix(self.field, [list(col) for col in zip(*self.rows)])

    def scale(self, c: int) -> "Matrix":
        """Multiply every entry by the scalar ``c``."""
        p = self.field.p
        c %= p
        return Matrix(self.field, [[(a * c) % p for a in row] for row in self.rows])

    # -- elimination ---------------------------------------------------------

    def _use_numpy(self) -> bool:
        return self.field.p < NUMPY_MODULUS_LIMIT

    def rref(self) -> Tuple["Matrix", Tuple[int, ...]]:
        """Reduced row-echelon form.

        Returns ``(R, pivot_columns)``.  Automatically dispatches to the
        vectorised kernel when the modulus is word-sized.
        """
        if not self.rows:
            return self.copy(), ()
        if self._use_numpy():
            reduced, pivots = _rref_numpy(self.rows, self.ncols, self.field.p)
        else:
            reduced, pivots = _rref_python(self.rows, self.ncols, self.field.p)
        out = Matrix(self.field, [])
        out.rows = reduced
        out.ncols = self.ncols
        return out, tuple(pivots)

    def rank(self) -> int:
        """Rank over ``F_p``."""
        return len(self.rref()[1])

    def rref_factorization(self) -> "RrefFactorization":
        """The incrementally extensible RREF state of this matrix.

        See :class:`RrefFactorization`; the returned object's
        :meth:`~RrefFactorization.null_space` matches :meth:`null_space`
        exactly (the RREF is canonical), and new rows/columns can then be
        folded in without re-eliminating the existing ones.
        """
        return RrefFactorization.from_matrix(self)

    def null_space(self) -> List[Tuple[int, ...]]:
        """A basis of the right null space ``{v : A v = 0}``.

        Returns a list of ``ncols``-length tuples; empty when the matrix has
        full column rank.
        """
        reduced, pivots = self.rref()
        p = self.field.p
        pivot_set = set(pivots)
        free_cols = [j for j in range(self.ncols) if j not in pivot_set]
        basis: List[Tuple[int, ...]] = []
        for j in free_cols:
            v = [0] * self.ncols
            v[j] = 1
            for i, pc in enumerate(pivots):
                v[pc] = (-reduced.rows[i][j]) % p
            basis.append(tuple(v))
        return basis

    def solve(self, b: Sequence[int]) -> Tuple[int, ...]:
        """Solve ``A x = b`` for square invertible ``A``.

        Raises :class:`SingularMatrixError` when no unique solution exists.
        """
        n = self.nrows
        if n != self.ncols:
            raise SingularMatrixError("solve() requires a square matrix")
        if len(b) != n:
            raise InvalidParameterError("right-hand side has wrong length")
        p = self.field.p
        augmented = Matrix(self.field, [])
        augmented.rows = [row[:] + [int(bv) % p] for row, bv in zip(self.rows, b)]
        augmented.ncols = n + 1
        reduced, pivots = augmented.rref()
        if len(pivots) != n or any(pc >= n for pc in pivots):
            raise SingularMatrixError("matrix is singular or system inconsistent")
        return tuple(reduced.rows[i][n] for i in range(n))

    # -- comparisons / formatting --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field.p == other.field.p and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field.p, tuple(tuple(r) for r in self.rows)))

    def __repr__(self) -> str:
        return "Matrix(F%d, %dx%d)" % (self.field.p, self.nrows, self.ncols)


def _rref_python(
    rows: Sequence[Sequence[int]], ncols: int, p: int
) -> Tuple[List[List[int]], List[int]]:
    """Gauss--Jordan elimination with arbitrary-precision ints.

    Pivots are searched in the first ``ncols`` columns only and every row
    operation covers the whole row, so wider rows (such as ``[A | I]``)
    carry their extra columns along.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = pow(a[r][c], p - 2, p)
        if inv != 1:
            a[r] = [(x * inv) % p for x in a[r]]
        pivot = a[r]
        for i in range(nrows):
            if i == r:
                continue
            factor = a[i][c]
            if factor:
                row_i = a[i]
                a[i] = [(x - factor * y) % p for x, y in zip(row_i, pivot)]
        pivots.append(c)
        r += 1
    return a, pivots


def _rref_numpy(
    rows: Sequence[Sequence[int]], ncols: int, p: int
) -> Tuple[List[List[int]], List[int]]:
    """:func:`_rref_python` for ``p < 2**31``, through :func:`_rref_blocked`."""
    if not rows:
        return [], []
    a = np.array(rows, dtype=np.int64) % p
    pivots = _rref_blocked(a, ncols, p)
    return a.tolist(), pivots


def _rref_blocked(a: np.ndarray, ncols: int, p: int) -> List[int]:
    """Panel-blocked Gauss--Jordan elimination of ``a`` in place.

    Same pivot rule and same row operations as :func:`_rref_python`, so
    the reduced array is identical.  Columns are taken ``_PANEL`` at a
    time, and the rows at or below the current pivot row (the active rows)
    are the only ones the scalar loop touches.  It runs on the panel's
    columns beside a coefficient block ``K``: every active row is tracked
    as its own panel-start row (after the swaps) plus ``K`` times the
    panel's pivot rows, and a row that becomes a pivot moves its own term
    into ``K``.  The active columns right of the panel are then updated
    once, ``own * rest[perm] + K @ rest[sources]``.  A row above the panel
    ends as itself minus its entries in the panel's pivot columns times
    the finished pivot rows, one more product.  Columns left of the panel
    do not change: the active rows are zero there.
    """
    m, width = a.shape
    pivots: List[int] = []
    for c0 in range(0, ncols, _PANEL):
        r0 = len(pivots)
        if r0 >= m:
            break
        w = min(_PANEL, ncols - c0)
        block = np.zeros((m - r0, 2 * w), dtype=np.int64)
        block[:, :w] = a[r0:, c0:c0 + w]
        perm = np.arange(m - r0)
        found: List[int] = []
        for c in range(w):
            i = len(found)
            if r0 + i >= m:
                break
            nonzero = np.flatnonzero(block[i:, c])
            if nonzero.size == 0:
                continue
            pr = i + int(nonzero[0])
            if pr != i:
                block[[i, pr]] = block[[pr, i]]
                perm[[i, pr]] = perm[[pr, i]]
            block[i, w + i] = 1
            # Row i is zero left of column c and no row uses a source past i.
            tail = block[:, c:w + i + 1]
            inv = pow(int(tail[i, 0]), -1, p)
            if inv != 1:
                tail[i] = tail[i] * inv % p
            factors = tail[:, 0].copy()
            factors[i] = 0
            tail -= np.multiply.outer(factors, tail[i])
            np.remainder(tail, p, out=tail)
            found.append(c0 + c)
        k = len(found)
        if not k:
            continue
        above = -a[:r0, found] % p
        a[r0:, c0:c0 + w] = block[:, :w]
        if c0 + w < width:
            rest = a[r0:, c0 + w:]
            out = _exact_matmul(block[:, w:w + k], rest[perm[:k]], p)
            out[k:] += rest[perm[k:]]
            np.remainder(out, p, out=rest)
        if r0:
            out = _exact_matmul(above, a[r0:r0 + k, c0:], p)
            out += a[:r0, c0:]
            np.remainder(out, p, out=a[:r0, c0:])
        pivots += found
    return pivots


def _exact_matmul(k: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """An int64 array congruent to ``k @ x`` mod ``p``, entries below ``2**53``.

    ``k`` has at most ``_PANEL`` columns and both operands hold reduced
    entries.  ``x`` is split into its low 15 and high 16 bits; each limb
    goes through one float64 BLAS product, exact by the ``_PANEL`` bound,
    and the limbs recombine in int64 with room to add one more reduced
    entry.
    """
    kf = k.astype(np.float64)
    prod = kf @ (x >> 15).astype(np.float64)
    out = prod.astype(np.int64)
    out %= p
    out <<= 15
    np.matmul(kf, (x & 0x7FFF).astype(np.float64), out=prod)
    np.add(out, prod, out=out, casting="unsafe")
    return out


class RrefFactorization:
    """Incrementally maintained reduced row-echelon state of a growing matrix.

    The object carries three pieces of state for the source matrix ``A``
    whose rows and columns have been fed in so far:

    * ``pivots`` -- the pivot columns, ascending;
    * the nonzero RREF rows ``R`` (one per pivot, pivot order);
    * the row transform ``T`` with ``R = T A`` (one column per *source* row,
      including linearly dependent ones), plus the transform rows of the
      dependent source rows themselves.

    ``T`` is what makes growth cheap in both directions:
    :meth:`extend_row` reduces one new source row against the existing
    pivots -- ``O(r * n)`` work instead of re-running the full ``O(m^2 n)``
    elimination -- and :meth:`extend_column` maps one new source column
    through ``T`` without ever revisiting ``A``.  It also runs backwards:
    :meth:`remove_row` takes one source row out with one rank-1 update
    and :meth:`truncate` drops trailing non-pivot columns.  Because the
    RREF is canonical (unique per row space), the maintained state
    equals a from-scratch :meth:`Matrix.rref` of the changed matrix, so
    :meth:`null_space` returns the *identical* basis, in the identical
    order, as :meth:`Matrix.null_space` on the rebuilt matrix.

    Storage dispatches exactly like :class:`Matrix`: numpy ``int64`` arrays
    for word-sized moduli, arbitrary-precision Python lists otherwise.  In
    the numpy growth paths every elementwise product is reduced mod ``p``
    *before* summation -- a dot product of ``m`` unreduced products
    overflows ``int64`` as soon as ``m * p**2 >= 2**63``.
    """

    __slots__ = ("field", "ncols", "pivots", "n_source", "_numpy", "_rows", "_t", "_free_t")

    def __init__(self, field: PrimeField, ncols: int):
        if ncols < 0:
            raise InvalidParameterError("negative column count %d" % ncols)
        self.field = field
        self.ncols = ncols
        self.pivots: List[int] = []
        self.n_source = 0
        self._numpy = field.p < NUMPY_MODULUS_LIMIT
        if self._numpy:
            self._rows = np.zeros((0, ncols), dtype=np.int64)
            self._t = np.zeros((0, 0), dtype=np.int64)
            self._free_t = np.zeros((0, 0), dtype=np.int64)
        else:
            self._rows: List[List[int]] = []
            self._t: List[List[int]] = []
            self._free_t: List[List[int]] = []

    @classmethod
    def from_matrix(cls, matrix: Matrix) -> "RrefFactorization":
        """Factor ``matrix`` with one elimination of ``[A | I]``.

        Pivots are limited to ``A``'s columns, so the right block of each
        reduced row is its transform (``R = T A``) and the rows past the
        rank hold the transforms of the dependent source rows.
        """
        fact = cls(matrix.field, matrix.ncols)
        m, n, p = matrix.nrows, matrix.ncols, matrix.field.p
        if not m:
            return fact
        if fact._numpy:
            a = np.zeros((m, n + m), dtype=np.int64)
            a[:, :n] = np.array(matrix.rows, dtype=np.int64) % p
            a[range(m), range(n, n + m)] = 1
            fact.pivots = _rref_blocked(a, n, p)
            r = len(fact.pivots)
            fact._rows = a[:r, :n].copy()
            fact._t = a[:r, n:].copy()
            fact._free_t = a[r:, n:].copy()
        else:
            augmented = [
                row + [int(i == j) for j in range(m)]
                for i, row in enumerate(matrix.rows)
            ]
            a, fact.pivots = _rref_python(augmented, n, p)
            r = len(fact.pivots)
            fact._rows = [row[:n] for row in a[:r]]
            fact._t = [row[n:] for row in a[:r]]
            fact._free_t = [row[n:] for row in a[r:]]
        fact.n_source = m
        return fact

    @property
    def rank(self) -> int:
        """Rank of the source matrix."""
        return len(self.pivots)

    # -- growth ------------------------------------------------------------

    def extend_row(self, row: Sequence[int]) -> bool:
        """Fold one new source row in; returns True when the rank grew.

        The reduction coefficients are read straight off the pivot columns
        of the incoming row (valid in any order: RREF pivot columns are unit
        vectors), then a single pass subtracts the combination and, when a
        residual survives, back-eliminates the new pivot column from the
        existing rows.
        """
        if len(row) != self.ncols:
            raise InvalidParameterError(
                "row length %d does not match %d columns" % (len(row), self.ncols)
            )
        p = self.field.p
        if self._numpy:
            return self._extend_row_numpy(row, p)
        return self._extend_row_python(row, p)

    def _extend_row_numpy(self, row: Sequence[int], p: int) -> bool:
        s = self.n_source
        residual = np.array([int(x) % p for x in row], dtype=np.int64)
        self._t = np.pad(self._t, ((0, 0), (0, 1)))
        self._free_t = np.pad(self._free_t, ((0, 0), (0, 1)))
        t_new = np.zeros(s + 1, dtype=np.int64)
        t_new[s] = 1
        self.n_source = s + 1
        if self.pivots:
            coeffs = residual[np.array(self.pivots, dtype=np.intp)]
            if np.any(coeffs):
                residual = (residual - ((coeffs[:, None] * self._rows) % p).sum(axis=0)) % p
                t_new = (t_new - ((coeffs[:, None] * self._t) % p).sum(axis=0)) % p
        lead = np.nonzero(residual)[0]
        if lead.size == 0:
            self._free_t = np.vstack([self._free_t, t_new[None, :]])
            return False
        c = int(lead[0])
        inv = pow(int(residual[c]), p - 2, p)
        if inv != 1:
            residual = (residual * inv) % p
            t_new = (t_new * inv) % p
        col = self._rows[:, c].copy()
        touched = np.nonzero(col)[0]
        if touched.size:
            self._rows[touched] = (self._rows[touched] - np.outer(col[touched], residual)) % p
            self._t[touched] = (self._t[touched] - np.outer(col[touched], t_new)) % p
        pos = bisect_left(self.pivots, c)
        self.pivots.insert(pos, c)
        self._rows = np.insert(self._rows, pos, residual, axis=0)
        self._t = np.insert(self._t, pos, t_new, axis=0)
        return True

    def _extend_row_python(self, row: Sequence[int], p: int) -> bool:
        s = self.n_source
        residual = [int(x) % p for x in row]
        for t_row in self._t:
            t_row.append(0)
        for t_row in self._free_t:
            t_row.append(0)
        t_new = [0] * (s + 1)
        t_new[s] = 1
        self.n_source = s + 1
        for i, pc in enumerate(self.pivots):
            factor = residual[pc]
            if factor:
                residual = [(x - factor * y) % p for x, y in zip(residual, self._rows[i])]
                t_new = [(x - factor * y) % p for x, y in zip(t_new, self._t[i])]
        c = next((j for j, x in enumerate(residual) if x), None)
        if c is None:
            self._free_t.append(t_new)
            return False
        inv = pow(residual[c], p - 2, p)
        if inv != 1:
            residual = [(x * inv) % p for x in residual]
            t_new = [(x * inv) % p for x in t_new]
        for i in range(len(self.pivots)):
            factor = self._rows[i][c]
            if factor:
                self._rows[i] = [(x - factor * y) % p for x, y in zip(self._rows[i], residual)]
                self._t[i] = [(x - factor * y) % p for x, y in zip(self._t[i], t_new)]
        pos = bisect_left(self.pivots, c)
        self.pivots.insert(pos, c)
        self._rows.insert(pos, residual)
        self._t.insert(pos, t_new)
        return True

    def extend_column(self, column: Sequence[int]) -> None:
        """Append one source column (one entry per source row, feed order).

        The reduced entries of the new column are ``T @ column``.  A
        dependent source row whose transform no longer annihilates the
        widened matrix is *promoted*: its combination becomes the pivot row
        of the new column (and the column is eliminated everywhere else),
        restoring canonical RREF.
        """
        if len(column) != self.n_source:
            raise InvalidParameterError(
                "column length %d does not match %d source rows"
                % (len(column), self.n_source)
            )
        p = self.field.p
        if self._numpy:
            self._extend_column_numpy(column, p)
        else:
            self._extend_column_python(column, p)

    def _extend_column_numpy(self, column: Sequence[int], p: int) -> None:
        col = np.array([int(x) % p for x in column], dtype=np.int64)
        if self.pivots:
            entries = ((self._t * col[None, :]) % p).sum(axis=1) % p
        else:
            entries = np.zeros(0, dtype=np.int64)
        self._rows = np.concatenate([self._rows, entries[:, None]], axis=1)
        self.ncols += 1
        if self._free_t.shape[0]:
            res = ((self._free_t * col[None, :]) % p).sum(axis=1) % p
            promoted = np.nonzero(res)[0]
            if promoted.size:
                j = int(promoted[0])
                inv = pow(int(res[j]), p - 2, p)
                t_p = (self._free_t[j] * inv) % p
                new_col = self._rows[:, -1].copy()
                touched = np.nonzero(new_col)[0]
                if touched.size:
                    self._rows[touched, -1] = 0
                    self._t[touched] = (self._t[touched] - np.outer(new_col[touched], t_p)) % p
                for k in promoted[1:]:
                    self._free_t[k] = (self._free_t[k] - res[k] * t_p) % p
                pivot_row = np.zeros(self.ncols, dtype=np.int64)
                pivot_row[-1] = 1
                self._rows = np.vstack([self._rows, pivot_row[None, :]])
                self._t = np.vstack([self._t, t_p[None, :]])
                self.pivots.append(self.ncols - 1)
                self._free_t = np.delete(self._free_t, j, axis=0)

    def _extend_column_python(self, column: Sequence[int], p: int) -> None:
        col = [int(x) % p for x in column]
        for i in range(len(self.pivots)):
            entry = sum(a * b for a, b in zip(self._t[i], col)) % p
            self._rows[i].append(entry)
        self.ncols += 1
        if self._free_t:
            res = [sum(a * b for a, b in zip(t_row, col)) % p for t_row in self._free_t]
            j = next((k for k, x in enumerate(res) if x), None)
            if j is not None:
                inv = pow(res[j], p - 2, p)
                t_p = [(x * inv) % p for x in self._free_t[j]]
                for i in range(len(self.pivots)):
                    factor = self._rows[i][-1]
                    if factor:
                        self._rows[i][-1] = 0
                        self._t[i] = [
                            (x - factor * y) % p for x, y in zip(self._t[i], t_p)
                        ]
                for k in range(j + 1, len(self._free_t)):
                    if res[k]:
                        self._free_t[k] = [
                            (x - res[k] * y) % p for x, y in zip(self._free_t[k], t_p)
                        ]
                self._rows.append([0] * (self.ncols - 1) + [1])
                self._t.append(t_p)
                self.pivots.append(self.ncols - 1)
                del self._free_t[j]

    # -- shrinking ---------------------------------------------------------

    def remove_row(self, source: int) -> None:
        """Drop source row ``source`` (feed order), the dual of :meth:`extend_row`.

        ``[T; F]`` (pivot transforms over free-row transforms) is
        invertible, so some row uses source ``source``.  When a free row
        does, it eliminates the source from every other transform and
        goes; ``R`` is unchanged, since a free row maps ``A`` to zero.
        Otherwise the *largest* pivot row ``k`` that uses the source
        eliminates it from the others and goes, with its pivot.  Every
        other row using the source lies above ``k``, and row ``k`` is zero
        left of its pivot and on every other pivot column, so each
        remaining leading 1 stays where it is: the result is the
        canonical RREF of the matrix without the row.
        """
        if not 0 <= source < self.n_source:
            raise InvalidParameterError(
                "source row %d out of range for %d rows" % (source, self.n_source)
            )
        p = self.field.p
        if self._numpy:
            self._remove_row_numpy(source, p)
        else:
            self._remove_row_python(source, p)
        self.n_source -= 1

    def _remove_row_numpy(self, g: int, p: int) -> None:
        users = np.flatnonzero(self._free_t[:, g])
        if users.size:
            f = int(users[0])
            pivot = self._free_t[f] * pow(int(self._free_t[f, g]), p - 2, p) % p
            col = self._t[:, g].copy()
            touched = np.flatnonzero(col)
            if touched.size:
                self._t[touched] = (self._t[touched] - np.outer(col[touched], pivot)) % p
            rest = users[1:]
            if rest.size:
                factors = self._free_t[rest, g].copy()
                self._free_t[rest] = (self._free_t[rest] - np.outer(factors, pivot)) % p
            self._free_t = np.delete(self._free_t, f, axis=0)
        else:
            users = np.flatnonzero(self._t[:, g])
            k = int(users[-1])
            inv = pow(int(self._t[k, g]), p - 2, p)
            r_k = self._rows[k] * inv % p
            t_k = self._t[k] * inv % p
            rest = users[:-1]
            if rest.size:
                factors = self._t[rest, g].copy()
                self._rows[rest] = (self._rows[rest] - np.outer(factors, r_k)) % p
                self._t[rest] = (self._t[rest] - np.outer(factors, t_k)) % p
            self._rows = np.delete(self._rows, k, axis=0)
            self._t = np.delete(self._t, k, axis=0)
            del self.pivots[k]
        self._t = np.delete(self._t, g, axis=1)
        self._free_t = np.delete(self._free_t, g, axis=1)

    def _remove_row_python(self, g: int, p: int) -> None:
        f = next((i for i, t_row in enumerate(self._free_t) if t_row[g]), None)
        if f is not None:
            inv = pow(self._free_t[f][g], p - 2, p)
            pivot = [(x * inv) % p for x in self._free_t.pop(f)]
            for rows in (self._t, self._free_t):
                for i, t_row in enumerate(rows):
                    factor = t_row[g]
                    if factor:
                        rows[i] = [(x - factor * y) % p for x, y in zip(t_row, pivot)]
        else:
            k = max(i for i, t_row in enumerate(self._t) if t_row[g])
            inv = pow(self._t[k][g], p - 2, p)
            r_k = [(x * inv) % p for x in self._rows.pop(k)]
            t_k = [(x * inv) % p for x in self._t.pop(k)]
            del self.pivots[k]
            for i in range(k):
                factor = self._t[i][g]
                if factor:
                    self._rows[i] = [(x - factor * y) % p for x, y in zip(self._rows[i], r_k)]
                    self._t[i] = [(x - factor * y) % p for x, y in zip(self._t[i], t_k)]
        for t_row in self._t:
            del t_row[g]
        for t_row in self._free_t:
            del t_row[g]

    def truncate(self, ncols: int) -> bool:
        """Keep the first ``ncols`` source columns; True when done.

        Refused (False, nothing changed) when a dropped column is a
        pivot.  Otherwise every reduced row keeps its leading 1, so the
        reduced rows cut to ``ncols`` are the canonical RREF of the cut
        matrix, and the transforms do not change.
        """
        if not 0 <= ncols <= self.ncols:
            raise InvalidParameterError(
                "cannot truncate %d columns to %d" % (self.ncols, ncols)
            )
        if self.pivots and self.pivots[-1] >= ncols:
            return False
        if self._numpy:
            self._rows = self._rows[:, :ncols].copy()
        else:
            self._rows = [row[:ncols] for row in self._rows]
        self.ncols = ncols
        return True

    # -- results -----------------------------------------------------------

    def null_space(self) -> List[Tuple[int, ...]]:
        """Identical basis, identical order, as :meth:`Matrix.null_space`."""
        p = self.field.p
        rows = self._rows.tolist() if self._numpy else self._rows
        pivot_set = set(self.pivots)
        basis: List[Tuple[int, ...]] = []
        for j in range(self.ncols):
            if j in pivot_set:
                continue
            v = [0] * self.ncols
            v[j] = 1
            for i, pc in enumerate(self.pivots):
                v[pc] = (-rows[i][j]) % p
            basis.append(tuple(v))
        return basis

    def __repr__(self) -> str:
        return "RrefFactorization(F%d, rank %d, %dx%d)" % (
            self.field.p,
            len(self.pivots),
            self.n_source,
            self.ncols,
        )


def null_space(matrix: Matrix) -> List[Tuple[int, ...]]:
    """Module-level convenience wrapper for :meth:`Matrix.null_space`."""
    return matrix.null_space()


def solve(matrix: Matrix, b: Sequence[int]) -> Tuple[int, ...]:
    """Module-level convenience wrapper for :meth:`Matrix.solve`."""
    return matrix.solve(b)
