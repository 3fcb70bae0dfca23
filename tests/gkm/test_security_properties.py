"""The security requirements of Section I / VI-B as executable tests."""


import pytest

from repro.gkm.acv import FAST_FIELD, AcvBgkm
from tests.mathx.reference import vec_dot


@pytest.fixture
def gkm():
    return AcvBgkm(FAST_FIELD)


def make_rows(rng, count, arity=2):
    return [
        tuple(bytes(rng.randrange(256) for _ in range(8)) for _ in range(arity))
        for _ in range(count)
    ]


class TestForwardSecrecy:
    """A revoked subscriber must not derive post-revocation keys."""

    def test_revoked_row_fails_after_rekey(self, gkm, rng):
        rows = make_rows(rng, 5)
        key1, header1 = gkm.generate(rows, rng=rng)
        leaving = rows.pop(2)
        assert gkm.derive(header1, leaving) == key1  # was a member
        key2, header2 = gkm.generate(rows, rng=rng)
        assert gkm.derive(header2, leaving) != key2
        for row in rows:
            assert gkm.derive(header2, row) == key2

    def test_old_kev_useless_against_new_header(self, gkm, rng):
        rows = make_rows(rng, 4)
        key1, header1 = gkm.generate(rows, rng=rng)
        old_kev = gkm.key_extraction_vector(header1, rows[0])
        rows_without = rows[1:]
        key2, header2 = gkm.generate(rows_without, n_max=4, rng=rng)
        # Replaying the *old* KEV against the new X misses the new key.
        assert vec_dot(old_kev, header2.x, header2.q) != key2


class TestBackwardSecrecy:
    """A newly joined subscriber must not derive pre-join keys."""

    def test_new_member_fails_on_old_header(self, gkm, rng):
        rows = make_rows(rng, 4)
        key1, header1 = gkm.generate(rows, rng=rng)
        newcomer = make_rows(rng, 1)[0]
        rows.append(newcomer)
        key2, header2 = gkm.generate(rows, rng=rng)
        assert gkm.derive(header2, newcomer) == key2     # current session OK
        assert gkm.derive(header1, newcomer) != key1     # old session not


class TestCollusionResistance:
    """Colluding unqualified subscribers gain nothing (Section VI-B.2)."""

    def test_two_partial_holders_cannot_combine(self, gkm, rng):
        """Each colluder holds one CSS of a 2-condition policy -- together
        they hold both CSS values but neither's *row* (the tuple order/
        membership binds them): combining across rows fails."""
        row_a = (b"css-a1", b"css-a2")
        row_b = (b"css-b1", b"css-b2")
        key, header = gkm.generate([row_a, row_b], rng=rng)
        # Frankenstein tuples mixing the colluders' secrets:
        for frank in [
            (b"css-a1", b"css-b2"),
            (b"css-b1", b"css-a2"),
            (b"css-a2", b"css-a1"),  # wrong order
        ]:
            assert gkm.derive(header, frank) != key

    def test_revoked_members_cannot_pool_old_knowledge(self, gkm, rng):
        rows = make_rows(rng, 5)
        key1, header1 = gkm.generate(rows, rng=rng)
        revoked = [rows[0], rows[1]]
        survivors = rows[2:]
        key2, header2 = gkm.generate(survivors, rng=rng)
        # Both revoked rows, separately and "combined" (any of their KEVs
        # or sums thereof), miss the new key.
        kev0 = gkm.key_extraction_vector(header2, revoked[0])
        kev1 = gkm.key_extraction_vector(header2, revoked[1])
        q = header2.q
        combined = tuple((a + b) % q for a, b in zip(kev0, kev1))
        for candidate in (kev0, kev1, combined):
            assert vec_dot(candidate, header2.x, q) != key2


class TestKeyIndependenceAndIndistinguishability:
    def test_keys_of_different_sessions_independent(self, gkm, rng):
        """Same rows, two sessions: knowing key1 says nothing about key2
        (they are drawn independently and the headers differ)."""
        rows = make_rows(rng, 3)
        key1, header1 = gkm.generate(rows, rng=rng)
        key2, header2 = gkm.generate(rows, rng=rng)
        assert key1 != key2
        assert header1.x != header2.x

    def test_any_key_consistent_with_public_x(self, gkm, rng):
        """Key indistinguishability (Section VI-B.2): for ANY candidate key
        K' there exists a KEV nu with nu . X = K', so the public values
        rule nothing out."""
        rows = make_rows(rng, 3)
        key, header = gkm.generate(rows, rng=rng)
        q = header.q
        x = header.x
        # Find a coordinate j >= 1 with x_j != 0 and solve for nu_j.
        j = next(i for i in range(1, len(x)) if x[i] != 0)
        for k_prime in (1, 2, key, q - 1):
            nu = [1] + [0] * (len(x) - 1)
            nu[j] = ((k_prime - x[0]) * pow(x[j], q - 2, q)) % q
            assert vec_dot(nu, x, q) == k_prime

    def test_derived_values_for_outsiders_spread(self, gkm, rng):
        """Outsider derivations behave like uniform field elements: no two
        wrong CSS tuples land on the same value (whp), and none on K."""
        rows = make_rows(rng, 3)
        key, header = gkm.generate(rows, rng=rng)
        outsider_values = {
            gkm.derive(header, (bytes([i]) * 8,)) for i in range(32)
        }
        assert key not in outsider_values
        assert len(outsider_values) == 32


class TestMinimalTrust:
    def test_only_publisher_holds_secrets(self, gkm, rng):
        """Structural: everything a subscriber needs is (header, own CSS);
        the header alone is public and reveals no key."""
        rows = make_rows(rng, 3)
        key, header = gkm.generate(rows, rng=rng)
        public_only_guess = gkm.derive(header, (b"",))
        assert public_only_guess != key
