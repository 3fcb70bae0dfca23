"""The paper's worked example (Section V-C.2) reproduced verbatim.

With q = 17, the matrix

    A = | 1 15  3  4 |
        | 1  4 13  3 |
        | 1 12  5  6 |

has null vector Y = (4, 4, 3, 3)^T; with K4 = 11 the published vector is
X = (15, 4, 3, 3)^T and the doctor's KEV (1, 15, 3, 4) recovers
K4 = (1,15,3,4) . (15,4,3,3) = 11, while the level-58 nurse cannot build a
KEV at all.
"""

import random


from repro.mathx.field import PrimeField
from repro.mathx.linalg import Matrix
from tests.mathx.reference import vec_dot

F17 = PrimeField(17)

A_ROWS = [
    [1, 15, 3, 4],
    [1, 4, 13, 3],
    [1, 12, 5, 6],
]
Y = (4, 4, 3, 3)
K4 = 11
X = (15, 4, 3, 3)


class TestWorkedExample:
    def test_y_is_in_null_space(self):
        matrix = Matrix(F17, A_ROWS)
        assert all(v == 0 for v in matrix.mat_vec(Y))

    def test_x_is_y_plus_key(self):
        assert tuple((y + (K4 if i == 0 else 0)) % 17 for i, y in enumerate(Y)) == X

    def test_doctor_kev_recovers_key(self):
        """(1, a_{1,1}, a_{1,2}, a_{1,3}) . X = 11 -- the paper's numbers."""
        kev = (1, 15, 3, 4)
        assert vec_dot(kev, X, 17) == K4

    def test_all_matrix_rows_are_valid_kevs(self):
        for row in A_ROWS:
            assert vec_dot(row, X, 17) == K4

    def test_solver_finds_equivalent_null_space(self):
        """Our solver's basis spans a space containing the paper's Y."""
        matrix = Matrix(F17, A_ROWS)
        basis = matrix.null_space()
        assert len(basis) == 1  # rank 3, 4 columns
        basis_vector = basis[0]
        # Y must be a scalar multiple of the basis vector.
        scale = None
        for a, b in zip(Y, basis_vector):
            if b != 0:
                scale = (a * pow(b, 15, 17)) % 17
                break
        assert scale is not None
        assert tuple((scale * b) % 17 for b in basis_vector) == Y

    def test_nurse_without_css_cannot_build_kev(self):
        """The level-58 nurse holds the CSS for 'role = nur' only; KEVs need
        the full per-policy tuple, so every candidate she can compute is a
        wrong one.  Emulated here by checking that no vector of the form
        (1, w, x, y) with entries derived from wrong-guess hashes hits K4
        except with chance ~1/17 -- structurally, the paper's point is that
        the scheme reduces her to guessing; we check guessing fails for a
        sweep of wrong rows."""
        hits = 0
        rng = random.Random(1)
        for _ in range(100):
            guess = (1, rng.randrange(17), rng.randrange(17), rng.randrange(17))
            if vec_dot(guess, X, 17) == K4:
                hits += 1
        # Pr[hit] = 1/17 per guess; 100 draws -> expect ~6, never anywhere
        # near certainty.  Bound generously to keep the test deterministic.
        assert hits < 30


class TestEndToEndOnF17:
    """Run the real AcvBgkm machinery over F_17 to mirror the example's
    scale (hash outputs differ from the paper's illustrative values, but
    the algebra is identical)."""

    def test_three_subscriber_scenario(self):
        from repro.gkm.acv import AcvBgkm

        rng = random.Random(42)
        gkm = AcvBgkm(F17)
        doctor1 = (b"86571",)
        doctor2 = (b"13011",)
        nurse = (b"11109", b"60987")
        rows = [doctor1, doctor2, nurse]
        key, header = gkm.generate(rows, n_max=3, rng=rng)
        assert gkm.derive(header, doctor1) == key
        assert gkm.derive(header, doctor2) == key
        assert gkm.derive(header, nurse) == key
        # The nurse's partial tuple (only 'role = nur' CSS) does not work.
        assert gkm.derive(header, (b"60987",)) != key
