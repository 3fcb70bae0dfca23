"""Tests for F_q linear algebra: both kernels, null spaces, solving."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError, SingularMatrixError
from repro.gkm.acv import FAST_FIELD
from repro.mathx.field import PrimeField
from repro.mathx.linalg import (
    _PANEL,
    NUMPY_MODULUS_LIMIT,
    Matrix,
    RrefFactorization,
    _exact_matmul,
    _rref_numpy,
    _rref_python,
    solve,
    vec_dot,
)
from tests.mathx.reference import rref_scalar, with_identity

SMALL = PrimeField(10007)                       # numpy kernel
BIG = PrimeField(604462909807314587353111)      # pure-Python kernel (80-bit)

FIELDS = [SMALL, BIG]


def random_matrix(field, nrows, ncols, seed=0):
    return Matrix.random(field, nrows, ncols, random.Random(seed))


class TestKernelSelection:
    def test_threshold(self):
        assert SMALL.p < NUMPY_MODULUS_LIMIT
        assert BIG.p >= NUMPY_MODULUS_LIMIT

    def test_kernels_agree(self):
        """Same matrix mod a small prime: both kernels, same rref."""
        rng = random.Random(42)
        rows = [[rng.randrange(SMALL.p) for _ in range(7)] for _ in range(5)]
        m_small = Matrix(SMALL, rows)
        reduced_np, pivots_np = m_small.rref()
        reduced_py, pivots_py = _rref_python(rows, 7, SMALL.p)
        assert reduced_np.rows == reduced_py
        assert list(pivots_np) == list(pivots_py)


#: Row and column counts on both sides of every panel edge up to 3w + 1.
PANEL_EDGES = [0, 1, _PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL, 3 * _PANEL + 1]
#: The largest prime below ``NUMPY_MODULUS_LIMIT``.
P31 = 2**31 - 1
FAST_P = FAST_FIELD.p
DAMAGE = ("duplicate_rows", "zero_rows", "zero_cols", "dead_panel", "low_rank")


def _damaged_rows(nrows, ncols, p, damage, seed):
    """Uniform rows with the requested degeneracies applied."""
    rng = random.Random(seed)
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    if "low_rank" in damage and nrows > 1:
        # Every row is a combination of the first few.
        basis = rows[: rng.randrange(1, 4)]
        rows = [
            [sum(c * b[j] for c, b in zip(coeffs, basis)) % p for j in range(ncols)]
            for coeffs in ([rng.randrange(p) for _ in basis] for _ in range(nrows))
        ]
    if "duplicate_rows" in damage and nrows > 1:
        for _ in range(rng.randrange(1, nrows)):
            rows[rng.randrange(nrows)] = rows[rng.randrange(nrows)][:]
    if "zero_rows" in damage:
        for i in rng.sample(range(nrows), rng.randrange(nrows + 1)):
            rows[i] = [0] * ncols
    zero_cols = set()
    if "zero_cols" in damage:
        zero_cols.update(rng.sample(range(ncols), rng.randrange(ncols + 1)))
    if "dead_panel" in damage:
        # One whole panel of columns, so that panel finds no pivot.
        start = _PANEL * rng.randrange(max(1, ncols // _PANEL))
        zero_cols.update(range(start, min(start + _PANEL, ncols)))
    for row in rows:
        for j in zero_cols:
            row[j] = 0
    return rows


def _assert_matches_reference(rows, ncols, p):
    """The panel kernel against the per-pivot loop, on ``A`` and ``[A | I]``."""
    assert _rref_numpy(rows, ncols, p) == rref_scalar(rows, ncols, p)
    if not rows:
        return
    nrows = len(rows)
    ref, ref_pivots = rref_scalar(with_identity(rows), ncols, p)
    rank = len(ref_pivots)
    field = PrimeField(p)
    source = Matrix(field, rows)
    fact = source.rref_factorization()
    assert fact.pivots == ref_pivots
    assert fact._rows.tolist() == [row[:ncols] for row in ref[:rank]]
    t, free_t = fact._t.tolist(), fact._free_t.tolist()
    if rank == nrows:
        assert t == [row[ncols:] for row in ref]
        assert free_t == []
    else:
        if t:
            assert (Matrix(field, t) @ source).rows == fact._rows.tolist()
        assert len(free_t) == nrows - rank
        for row in free_t:
            assert not any((Matrix(field, [row]) @ source).rows[0])


sizes = st.one_of(st.sampled_from(PANEL_EDGES), st.integers(0, 3 * _PANEL + 1))


@settings(max_examples=60, deadline=None)
@given(
    nrows=sizes,
    ncols=sizes,
    p=st.sampled_from([2, 3, 10007, FAST_P, P31]),
    damage=st.frozensets(st.sampled_from(DAMAGE)),
    seed=st.integers(0, 2**16),
)
# Square, wide and tall at the panel edges, a dead panel, and stacked damage.
@example(nrows=_PANEL, ncols=_PANEL, p=P31, damage=frozenset(), seed=0)
@example(nrows=_PANEL - 1, ncols=3 * _PANEL + 1, p=FAST_P, damage=frozenset(), seed=1)
@example(nrows=3 * _PANEL + 1, ncols=_PANEL + 1, p=FAST_P, damage=frozenset(), seed=2)
@example(
    nrows=2 * _PANEL, ncols=3 * _PANEL + 1, p=10007,
    damage=frozenset({"dead_panel"}), seed=3,
)
@example(
    nrows=3 * _PANEL + 1, ncols=2 * _PANEL, p=3,
    damage=frozenset({"duplicate_rows", "zero_rows", "zero_cols"}), seed=4,
)
def test_blocked_kernel_matches_reference(nrows, ncols, p, damage, seed):
    """Reduced rows and pivots identical to the per-pivot loop; the
    transform identical when the rows are independent, and otherwise
    still ``R = T A`` with every dependent row's transform annihilating
    ``A``."""
    _assert_matches_reference(_damaged_rows(nrows, ncols, p, damage, seed), ncols, p)


def test_all_max_entries_at_the_largest_modulus():
    n = 3 * _PANEL + 1
    _assert_matches_reference([[P31 - 1] * n for _ in range(n)], n, P31)


def test_exact_matmul_at_the_bound():
    """A full panel of (p - 1) coefficients against (p - 1) entries: the
    largest limb partial sums the ``_PANEL`` bound allows."""
    k = np.full((5, _PANEL), P31 - 1, dtype=np.int64)
    x = np.full((_PANEL, 3), P31 - 1, dtype=np.int64)
    out = _exact_matmul(k, x, P31)
    assert (out % P31).tolist() == [[_PANEL * (P31 - 1) ** 2 % P31] * 3] * 5


@pytest.mark.parametrize("field", FIELDS, ids=["numpy-kernel", "python-kernel"])
class TestElimination:
    def test_identity_rref(self, field):
        eye = Matrix.identity(field, 4)
        reduced, pivots = eye.rref()
        assert reduced == eye
        assert pivots == (0, 1, 2, 3)

    def test_rank_of_random_square(self, field):
        m = random_matrix(field, 5, 5, seed=1)
        assert m.rank() == 5  # random square matrices are a.s. full rank

    def test_rank_deficient(self, field):
        base = random_matrix(field, 2, 5, seed=2)
        # Third row = sum of the first two.
        dup = Matrix(
            field,
            base.rows + [[(a + b) % field.p for a, b in zip(*base.rows)]],
        )
        assert dup.rank() == 2

    def test_null_space_annihilates(self, field):
        m = random_matrix(field, 3, 6, seed=3)
        basis = m.null_space()
        assert len(basis) == 6 - m.rank()
        for v in basis:
            assert all(x == 0 for x in m.mat_vec(v))

    def test_null_space_full_rank_empty(self, field):
        m = Matrix.identity(field, 3)
        assert m.null_space() == []

    def test_solve(self, field):
        m = random_matrix(field, 4, 4, seed=6)
        rng = random.Random(7)
        x_true = [rng.randrange(field.p) for _ in range(4)]
        b = m.mat_vec(x_true)
        assert list(solve(m, b)) == x_true

    def test_solve_singular(self, field):
        singular = Matrix(field, [[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError):
            singular.solve([1, 1])

    def test_solve_non_square(self, field):
        with pytest.raises(SingularMatrixError):
            Matrix(field, [[1, 2, 3]]).solve([1])


class TestMatrixOps:
    def test_shape_and_accessors(self):
        m = Matrix(SMALL, [[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m[1, 2] == 6
        assert m.row(0) == (1, 2, 3)
        assert m.column(1) == (2, 5)

    def test_ragged_rejected(self):
        with pytest.raises(InvalidParameterError):
            Matrix(SMALL, [[1, 2], [3]])

    def test_add_sub(self):
        a = Matrix(SMALL, [[1, 2], [3, 4]])
        b = Matrix(SMALL, [[5, 6], [7, 8]])
        assert (a + b).rows == [[6, 8], [10, 12]]
        assert (b - a).rows == [[4, 4], [4, 4]]
        with pytest.raises(InvalidParameterError):
            a + Matrix(SMALL, [[1, 2, 3]])

    def test_matmul(self):
        a = Matrix(SMALL, [[1, 2], [3, 4]])
        b = Matrix(SMALL, [[5, 6], [7, 8]])
        assert (a @ b).rows == [[19, 22], [43, 50]]

    def test_matmul_identity(self):
        a = random_matrix(SMALL, 3, 3, seed=8)
        assert a @ Matrix.identity(SMALL, 3) == a

    def test_matmul_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            Matrix(SMALL, [[1, 2]]) @ Matrix(SMALL, [[1, 2]])

    def test_transpose(self):
        m = Matrix(SMALL, [[1, 2, 3], [4, 5, 6]])
        assert m.transpose().rows == [[1, 4], [2, 5], [3, 6]]
        assert m.transpose().transpose() == m

    def test_scale(self):
        m = Matrix(SMALL, [[1, 2]])
        assert m.scale(3).rows == [[3, 6]]

    def test_mat_vec_length_check(self):
        with pytest.raises(InvalidParameterError):
            Matrix(SMALL, [[1, 2]]).mat_vec([1])

    def test_vec_dot(self):
        assert vec_dot([1, 2, 3], [4, 5, 6], 7) == (4 + 10 + 18) % 7
        with pytest.raises(InvalidParameterError):
            vec_dot([1], [1, 2], 7)

    def test_copy_independent(self):
        m = Matrix(SMALL, [[1, 2]])
        c = m.copy()
        c.rows[0][0] = 99
        assert m.rows[0][0] == 1

    def test_zeros(self):
        z = Matrix.zeros(SMALL, 2, 3)
        assert z.shape == (2, 3)
        assert all(all(x == 0 for x in row) for row in z.rows)


@pytest.mark.parametrize("field", FIELDS, ids=["numpy-kernel", "python-kernel"])
class TestRrefFactorization:
    """The incremental elimination state must be indistinguishable from a
    from-scratch :meth:`Matrix.rref` of the same (grown) matrix -- pivots,
    rank, and the null-space basis byte for byte."""

    def _assert_matches_scratch(self, fact, field, rows, ncols):
        scratch = Matrix(field, rows)
        scratch.ncols = ncols  # preserve width when rows is empty
        _, pivots = scratch.rref()
        assert tuple(fact.pivots) == pivots
        assert fact.rank == len(pivots)
        assert fact.null_space() == scratch.null_space()

    def test_from_matrix_matches_scratch(self, field):
        m = random_matrix(field, 4, 6, seed=11)
        fact = m.rref_factorization()
        self._assert_matches_scratch(fact, field, m.rows, 6)

    def test_extend_row_matches_scratch(self, field):
        rng = random.Random(12)
        rows = [[rng.randrange(field.p) for _ in range(8)] for _ in range(3)]
        fact = Matrix(field, rows).rref_factorization()
        for _ in range(4):
            new_row = [rng.randrange(field.p) for _ in range(8)]
            fact.extend_row(new_row)
            rows.append(new_row)
            self._assert_matches_scratch(fact, field, rows, 8)

    def test_extend_duplicate_row_keeps_rank(self, field):
        rng = random.Random(13)
        rows = [[rng.randrange(field.p) for _ in range(5)] for _ in range(3)]
        fact = Matrix(field, rows).rref_factorization()
        assert fact.extend_row(rows[1]) is False
        rows.append(rows[1])
        assert fact.n_source == 4
        self._assert_matches_scratch(fact, field, rows, 5)

    def test_extend_column_matches_scratch(self, field):
        rng = random.Random(14)
        rows = [[rng.randrange(field.p) for _ in range(4)] for _ in range(3)]
        fact = Matrix(field, rows).rref_factorization()
        for _ in range(3):
            col = [rng.randrange(field.p) for _ in range(len(rows))]
            fact.extend_column(col)
            for row, x in zip(rows, col):
                row.append(x)
            self._assert_matches_scratch(fact, field, rows, len(rows[0]))

    def test_extend_column_promotes_dependent_row(self, field):
        # Two identical rows; the widened column separates them, so the
        # dependent row must be promoted to a fresh pivot.
        rng = random.Random(15)
        base = [rng.randrange(field.p) for _ in range(4)]
        rows = [base[:], base[:]]
        fact = Matrix(field, rows).rref_factorization()
        assert fact.rank == 1
        fact.extend_column([0, 1])
        rows[0].append(0)
        rows[1].append(1)
        assert fact.rank == 2
        self._assert_matches_scratch(fact, field, rows, 5)

    def test_empty_factorization_identity_basis(self, field):
        # No rows constrain anything: the null space is all of F^3, and the
        # basis enumeration (free columns ascending) yields the identity.
        fact = RrefFactorization(field, 3)
        expected = [tuple(1 if i == j else 0 for i in range(3)) for j in range(3)]
        assert fact.null_space() == expected

    def test_length_validation(self, field):
        fact = random_matrix(field, 2, 3, seed=16).rref_factorization()
        with pytest.raises(InvalidParameterError):
            fact.extend_row([1, 2])
        with pytest.raises(InvalidParameterError):
            fact.extend_column([1, 2, 3])
        with pytest.raises(InvalidParameterError):
            RrefFactorization(field, -1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_factorization_tracks_growth(seed):
    """Random interleavings of row/column growth (with deliberate duplicate
    rows forcing the dependent-row bookkeeping) stay equal to a rebuild."""
    rng = random.Random(seed)
    for field in FIELDS:
        ncols = rng.randrange(1, 5)
        rows = [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(rng.randrange(0, 4))]
        fact = Matrix(field, rows).rref_factorization() if rows else RrefFactorization(field, ncols)
        for _ in range(6):
            op = rng.random()
            if op < 0.4 or not rows:
                new_row = (
                    rows[rng.randrange(len(rows))][:]
                    if rows and rng.random() < 0.3
                    else [rng.randrange(field.p) for _ in range(ncols)]
                )
                fact.extend_row(new_row)
                rows.append(new_row[:])
            else:
                col = [rng.randrange(field.p) for _ in range(len(rows))]
                fact.extend_column(col)
                for row, x in zip(rows, col):
                    row.append(x)
                ncols += 1
        scratch = Matrix(field, rows)
        scratch.ncols = ncols
        assert tuple(fact.pivots) == scratch.rref()[1]
        assert fact.null_space() == scratch.null_space()
        for v in fact.null_space():
            assert all(x == 0 for x in scratch.mat_vec(v))


def _arrays(fact):
    """``(R, T, F)`` of a factorization as nested lists, either kernel."""
    if fact._numpy:
        return fact._rows.tolist(), fact._t.tolist(), fact._free_t.tolist()
    return [r[:] for r in fact._rows], [r[:] for r in fact._t], [r[:] for r in fact._free_t]


def _assert_equals_rebuild(fact, field, rows, ncols):
    """``fact`` against :meth:`RrefFactorization.from_matrix` of ``rows``.

    Pivots, ``R`` and the null basis must be equal.  ``T`` must be equal
    too when the rows are independent (``R = T A`` then fixes it); with
    dependent rows any ``T`` with ``R = T A`` is valid, so the check is
    that one and that the free-row transforms span the left null space.
    """
    scratch = Matrix(field, rows)
    scratch.ncols = ncols
    rebuilt = (
        RrefFactorization.from_matrix(scratch) if rows
        else RrefFactorization(field, ncols)
    )
    (r, t, free), (r2, t2, _) = _arrays(fact), _arrays(rebuilt)
    assert (fact.pivots, r, fact.n_source, fact.ncols) == (
        rebuilt.pivots, r2, len(rows), ncols
    )
    assert fact.null_space() == rebuilt.null_space()
    if len(fact.pivots) == len(rows):
        assert (t, free) == (t2, [])
        return
    if t:
        assert (Matrix(field, t) @ scratch).rows == r
    assert len(free) == len(rows) - len(r)
    assert Matrix(field, t + free).rank() == len(rows)
    for row in free:
        assert not any((Matrix(field, [row]) @ scratch).rows[0])


@pytest.mark.parametrize("field", FIELDS + [PrimeField(3)],
                         ids=["numpy-kernel", "python-kernel", "p=3"])
@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["row", "duplicate", "column", "remove", "truncate"]),
            st.integers(0, 2**16),
        ),
        max_size=16,
    ),
    ncols=st.integers(1, 5),
)
def test_property_growth_and_removal_equal_a_rebuild(field, ops, ncols):
    """Random interleavings of :meth:`~RrefFactorization.extend_row`,
    :meth:`~RrefFactorization.extend_column`,
    :meth:`~RrefFactorization.remove_row` and
    :meth:`~RrefFactorization.truncate`, duplicate rows included, leave
    the state a from-scratch factorization of the changed matrix has."""
    fact = RrefFactorization(field, ncols)
    rows = []
    for op, draw in ops:
        rng = random.Random(draw)
        if op == "duplicate" and rows:
            new_row = rows[draw % len(rows)][:]
            fact.extend_row(new_row)
            rows.append(new_row)
        elif op in ("row", "duplicate"):
            new_row = [rng.randrange(field.p) for _ in range(ncols)]
            fact.extend_row(new_row)
            rows.append(new_row)
        elif op == "column":
            col = [rng.randrange(field.p) for _ in rows]
            fact.extend_column(col)
            for row, x in zip(rows, col):
                row.append(x)
            ncols += 1
        elif op == "remove" and rows:
            source = draw % len(rows)
            fact.remove_row(source)
            del rows[source]
        elif op == "truncate":
            keep = draw % (ncols + 1)
            pivots = fact.pivots[:]
            assert fact.truncate(keep) == all(pc < keep for pc in pivots)
            if fact.ncols == keep:
                rows = [row[:keep] for row in rows]
                ncols = keep
        _assert_equals_rebuild(fact, field, rows, ncols)


@pytest.mark.parametrize("field", FIELDS, ids=["numpy-kernel", "python-kernel"])
def test_remove_row_picks_the_largest_pivot_and_refuses_bad_input(field):
    """Three independent rows, then the middle one twice over: removing a
    source no free row uses drops the largest pivot that uses it; removing
    one a free row uses leaves ``R`` alone."""
    rng = random.Random(17)
    rows = [[rng.randrange(field.p) for _ in range(5)] for _ in range(3)]
    rows.append(rows[1][:])
    fact = Matrix(field, rows).rref_factorization()
    assert fact.rank == 3 and fact.pivots == [0, 1, 2]
    before = _arrays(fact)[0]
    fact.remove_row(3)  # the duplicate: its free row goes, R stays
    assert _arrays(fact)[0] == before
    _assert_equals_rebuild(fact, field, rows[:3], 5)
    fact.remove_row(0)
    _assert_equals_rebuild(fact, field, rows[1:3], 5)
    with pytest.raises(InvalidParameterError):
        fact.remove_row(2)
    with pytest.raises(InvalidParameterError):
        fact.truncate(6)
    assert fact.truncate(1) is False and fact.ncols == 5


@settings(max_examples=15)
@given(
    nrows=st.integers(1, 6),
    ncols=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
def test_property_null_space_dimension_theorem(nrows, ncols, seed):
    """rank + nullity == ncols, over both kernels."""
    for field in FIELDS:
        m = random_matrix(field, nrows, ncols, seed=seed)
        assert m.rank() + len(m.null_space()) == ncols


@settings(max_examples=15)
@given(seed=st.integers(0, 1000))
def test_property_acv_shape(seed):
    """The exact shape ACV-BGKM relies on: a matrix with an all-ones first
    column and fewer rows than columns always has a nontrivial null space,
    and every basis vector is orthogonal to every row."""
    rng = random.Random(seed)
    field = SMALL
    n = rng.randrange(2, 7)
    rows = [[1] + [rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
    basis = Matrix(field, rows).null_space()
    assert basis
    for v in basis:
        for row in rows:
            assert vec_dot(row, v, field.p) == 0
