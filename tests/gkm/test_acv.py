"""Tests for the ACV-BGKM core."""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashes import HashFunction, hash_concat, sha1, sha256
from repro.errors import (
    CapacityError,
    InvalidParameterError,
    KeyDerivationError,
    SerializationError,
)
from repro.gkm.acv import FAST_FIELD, PAPER_FIELD, SEED_BYTES, AcvBgkm, AcvHeader


@pytest.fixture
def gkm():
    return AcvBgkm(FAST_FIELD)


def make_rows(rng, count, arity=2):
    return [
        tuple(bytes(rng.randrange(256) for _ in range(8)) for _ in range(arity))
        for _ in range(count)
    ]


class TestSoundness:
    """Every qualified row derives exactly K (Section VI-B.1)."""

    def test_all_rows_derive(self, gkm, rng):
        rows = make_rows(rng, 6)
        key, header = gkm.generate(rows, n_max=10, rng=rng)
        for row in rows:
            assert gkm.derive(header, row) == key

    def test_mixed_arity_rows(self, gkm, rng):
        rows = [make_rows(rng, 1, arity)[0] for arity in (1, 2, 3, 5)]
        key, header = gkm.generate(rows, rng=rng)
        for row in rows:
            assert gkm.derive(header, row) == key

    def test_unqualified_css_does_not_derive(self, gkm, rng):
        rows = make_rows(rng, 4)
        key, header = gkm.generate(rows, rng=rng)
        assert gkm.derive(header, (b"not-a-css",)) != key

    def test_partial_css_tuple_fails(self, gkm, rng):
        """Holding only one of two CSSs in a conjunction must not help --
        this is the collusion-relevant property at the row level."""
        rows = make_rows(rng, 3, arity=2)
        key, header = gkm.generate(rows, rng=rng)
        assert gkm.derive(header, (rows[0][0],)) != key
        assert gkm.derive(header, (rows[0][0], rows[1][1])) != key

    def test_key_in_multiplicative_group(self, gkm, rng):
        key, _ = gkm.generate(make_rows(rng, 2), rng=rng)
        assert 1 <= key < gkm.field.p

    @settings(max_examples=10)
    @given(n_rows=st.integers(0, 8), slack=st.integers(0, 5), seed=st.integers(0, 99))
    def test_property_soundness(self, n_rows, slack, seed):
        rng = random.Random(seed)
        gkm = AcvBgkm(FAST_FIELD)
        rows = make_rows(rng, n_rows)
        key, header = gkm.generate(rows, n_max=max(n_rows, 1) + slack, rng=rng)
        for row in rows:
            assert gkm.derive(header, row) == key


class TestCapacityAndParameters:
    def test_capacity_violation(self, gkm, rng):
        rows = make_rows(rng, 5)
        with pytest.raises(CapacityError):
            gkm.generate(rows, n_max=4, rng=rng)

    def test_default_capacity_is_row_count(self, gkm, rng):
        rows = make_rows(rng, 5)
        _, header = gkm.generate(rows, rng=rng)
        assert header.capacity == 5

    def test_empty_rows_supported(self, gkm, rng):
        """No qualified subscriber: header exists, nobody derives."""
        key, header = gkm.generate([], n_max=3, rng=rng)
        assert gkm.derive(header, (b"anything",)) != key

    def test_seed_follows_paper_rule(self, gkm, rng):
        """tau * N > 160 bits (Section V-C), carried by the seed alone at
        every N: nonce j is seed || u32(j)."""
        assert SEED_BYTES * 8 >= 160
        for n in (1, 2, 10, 100):
            _, header = gkm.generate(make_rows(rng, 1), n_max=n, rng=rng)
            assert len(header.seed) == SEED_BYTES and header.capacity == n
            assert header.zs == tuple(
                header.seed + struct.pack(">I", j) for j in range(n)
            )

    def test_compress_terms_validation(self):
        with pytest.raises(InvalidParameterError):
            AcvBgkm(FAST_FIELD, compress_terms=0)

    def test_works_on_80bit_paper_field(self, rng):
        gkm = AcvBgkm(PAPER_FIELD)
        rows = make_rows(rng, 4)
        key, header = gkm.generate(rows, n_max=6, rng=rng)
        assert all(gkm.derive(header, row) == key for row in rows)

    def test_fresh_keys_per_generate(self, gkm, rng):
        rows = make_rows(rng, 3)
        k1, h1 = gkm.generate(rows, rng=rng)
        k2, h2 = gkm.generate(rows, rng=rng)
        assert k1 != k2
        assert h1.seed != h2.seed

    def test_system_rng_path(self, gkm):
        rows = make_rows(random.Random(0), 2)
        key, header = gkm.generate(rows)  # secrets-based path
        assert gkm.derive(header, rows[0]) == key


class TestKevStructure:
    def test_kev_first_entry_one(self, gkm, rng):
        rows = make_rows(rng, 3)
        _, header = gkm.generate(rows, rng=rng)
        kev = gkm.key_extraction_vector(header, rows[0])
        assert kev[0] == 1
        assert len(kev) == header.capacity + 1

    def test_kev_skips_zero_coordinates(self, rng):
        gkm = AcvBgkm(FAST_FIELD, compress_terms=1)
        rows = make_rows(rng, 2)
        _, header = gkm.generate(rows, n_max=30, rng=rng)
        kev = gkm.key_extraction_vector(header, rows[0])
        for j in range(1, len(header.x)):
            if header.x[j] == 0:
                assert kev[j] == 0

    def test_kev_entries_are_eq2(self, gkm, rng):
        rows = make_rows(rng, 4)
        _, header = gkm.generate(rows, n_max=6, rng=rng)
        kev = gkm.key_extraction_vector(header, rows[1])
        for j, z in enumerate(header.zs, 1):
            if header.x[j]:
                assert kev[j] == hash_concat(
                    gkm.hash_fn, list(rows[1]) + [z], header.q
                )

    def test_export_key_deterministic(self, gkm):
        assert gkm.export_key(12345) == gkm.export_key(12345)
        assert gkm.export_key(12345) != gkm.export_key(12346)
        assert len(gkm.export_key(1, key_len=24)) == 24


class TestKevMemo:
    """The optional memo argument: explicit, filled in place, never kept."""

    def test_memo_is_filled_and_then_spares_every_hash(self, rng, counting_hash):
        h, calls = counting_hash
        gkm = AcvBgkm(FAST_FIELD, h, compress_terms=None)
        rows = make_rows(rng, 5)
        key, header = gkm.generate(rows, n_max=8, rng=rng)
        memo = [None] * header.capacity
        del calls[:]
        assert gkm.derive(header, rows[0], memo) == key
        assert len(calls) == sum(1 for x_j in header.x[1:] if x_j) == 8
        assert None not in memo
        assert gkm.derive(header, rows[0], memo) == key
        assert gkm.key_extraction_vector(header, rows[0], memo) == (
            gkm.key_extraction_vector(header, rows[0])
        )
        assert len(calls) == 8 + 8  # only the memo-less reference call hashed

    def test_only_missing_coordinates_are_computed(self, rng, counting_hash):
        h, calls = counting_hash
        gkm = AcvBgkm(FAST_FIELD, h, compress_terms=1)
        rows = make_rows(rng, 2)
        fact = gkm.factorize(rows, bytes(SEED_BYTES), 12)
        memo = [None] * 12
        seen = set()
        for _ in range(6):  # same nonces, a different sparse X each time
            key, header = gkm.rekey_from_factorization(fact, rng=rng)
            needed = {j for j, x_j in enumerate(header.x[1:]) if x_j}
            del calls[:]
            assert gkm.derive(header, rows[1], memo) == key
            assert len(calls) == len(needed - seen)
            seen |= needed
            assert {j for j, a in enumerate(memo) if a is not None} == seen
        assert len(seen) < 12  # coordinates never multiplied were never hashed

    def test_instance_keeps_nothing_between_calls(self, rng, counting_hash):
        h, calls = counting_hash
        gkm = AcvBgkm(FAST_FIELD, h, compress_terms=None)
        rows = make_rows(rng, 3)
        _, header = gkm.generate(rows, n_max=5, rng=rng)
        before = dict(vars(gkm))
        del calls[:]
        for _ in range(3):
            gkm.derive(header, rows[0])
        assert len(calls) == 3 * 5
        assert vars(gkm) == before

    def test_wrong_length_memo_is_refused(self, gkm, rng):
        rows = make_rows(rng, 2)
        _, header = gkm.generate(rows, n_max=4, rng=rng)
        with pytest.raises(InvalidParameterError, match="memo"):
            gkm.derive(header, rows[0], [None] * 3)

    def test_hostile_header_fails_before_touching_the_memo(self, gkm):
        memo = [None, None]
        short = AcvHeader(q=FAST_FIELD.p, x=(1,), seed=_SEED, capacity=2)
        with pytest.raises(KeyDerivationError, match="arity"):
            gkm.derive(short, [b"css"], memo)
        bad_q = AcvHeader(q=1, x=(1, 2, 3), seed=_SEED, capacity=2)
        with pytest.raises(KeyDerivationError, match="modulus"):
            gkm.derive(bad_q, [b"css"], memo)
        assert memo == [None, None]


#: SHA-256 over a seeded generate / generate_with_factorization / extend /
#: rekey_from_factorization / build_matrix transcript (header bytes, keys,
#: matrix entries).  First computed with per-entry ``hash_concat`` calls
#: before the row-hashing kernel replaced them; re-pinned when the header
#: moved to seeded nonces, with the same values from ``row_hasher`` and
#: from a per-entry ``hash_concat`` over ``seed || u32(j)``.
_TRANSCRIPTS = {
    ("fast", "sha256"): "655cb3bea1b0772be86efed7ed0fa2d4dbfa40afa2774bd18e108bc913cb58ce",
    ("fast", "sha1"): "372fd125be7a5ea9beb6715edfa8898a0b7a89a362059c7b78e4fd72ae01daff",
    ("paper", "sha256"): "810052f96e1946824fa2223fd1202fe410e8293d10cc2e12f7187106098ad2cd",
    ("paper", "sha1"): "2bdb41aa34e1b12449bf009f30895f6408cfc0367bb87e626c41cff249534c8d",
}


@pytest.mark.parametrize("field_name,h", [
    ("fast", sha256), ("fast", sha1), ("paper", sha256), ("paper", sha1),
])
def test_publisher_side_bytes_unchanged_by_the_row_kernel(field_name, h):
    field = {"fast": FAST_FIELD, "paper": PAPER_FIELD}[field_name]
    rng = random.Random(2010)
    gkm = AcvBgkm(field, h)
    rows = [
        (b"css-%d" % i, b"second-%d" % i) if i % 3 else (b"only-%d" % i,)
        for i in range(12)
    ]
    out = hashlib.sha256()
    key, header = gkm.generate(rows, n_max=16, rng=rng)
    out.update(header.to_bytes() + b"%d" % key)
    key, header, fact = gkm.generate_with_factorization(rows[:8], n_max=10, rng=rng)
    out.update(header.to_bytes() + b"%d" % key)
    fact.extend(rows[8:], added_capacity=3)
    key, header = gkm.rekey_from_factorization(fact, rng=rng)
    out.update(header.to_bytes() + b"%d" % key)
    matrix = gkm.build_matrix(rows, header.seed, header.capacity)
    out.update(repr([list(map(int, r)) for r in matrix.rows]).encode())
    assert out.hexdigest() == _TRANSCRIPTS[field_name, h.name]


#: SHA-256 over seeded generate / generate_with_factorization / extend
#: (+4 rows, +4 columns) / rekey_from_factorization headers, keys and the
#: extended null basis at row counts on both sides of the elimination
#: kernel's 32-column panels, computed with the per-pivot elimination loop
#: (``tests/mathx/reference.py``) before the panel kernel replaced it, and
#: re-pinned under seeded nonces with that loop and the panel kernel
#: agreeing.
_MULTI_PANEL_TRANSCRIPT = (
    "c09d3bf4c5aa1f625d7e3d69d7e3cf7e0e3e42d23bcd9bb7b471d4428b2ab1da"
)


def test_multi_panel_bytes_match_the_scalar_kernel():
    rng = random.Random(2028)
    gkm = AcvBgkm(FAST_FIELD, sha256)
    out = hashlib.sha256()
    for m in (31, 32, 33, 64, 65, 188, 192):
        rows = [
            (b"css-%d-%d" % (m, i), b"second-%d" % i)
            if i % 3
            else (b"only-%d-%d" % (m, i),)
            for i in range(m + 4)
        ]
        key, header = gkm.generate(rows[:m], n_max=m + 2, rng=rng)
        out.update(header.to_bytes() + b"%d" % key)
        key, header, fact = gkm.generate_with_factorization(rows[:m], rng=rng)
        out.update(header.to_bytes() + b"%d" % key)
        fact.extend(rows[m:], added_capacity=4)
        key, header = gkm.rekey_from_factorization(fact, rng=rng)
        out.update(header.to_bytes() + b"%d" % key)
        out.update(repr(fact.null_basis()).encode())
    assert out.hexdigest() == _MULTI_PANEL_TRANSCRIPT


#: A fixed nonce seed for the tests that build headers by hand.
_SEED = bytes(range(SEED_BYTES))


class TestRowRemoval:
    """:meth:`AcvFactorization.remove`, the inverse of ``extend``."""

    @pytest.mark.parametrize("field", [FAST_FIELD, PAPER_FIELD], ids=["fast", "paper"])
    def test_remove_equals_a_factorization_of_the_surviving_rows(self, field, rng):
        core = AcvBgkm(field)
        rows = make_rows(rng, 12)
        rows[7] = rows[2]  # a duplicate row: one of the pair is dependent
        fact = core.factorize(rows, _SEED, 14)
        assert fact.remove([11, 0, 7], 10) is True
        survivors = [row for i, row in enumerate(rows) if i not in (0, 7, 11)]
        rebuilt = core.factorize(survivors, _SEED, 10)
        assert (fact.rows, fact.seed, fact.capacity) == (
            rebuilt.rows, rebuilt.seed, rebuilt.capacity
        )
        assert fact.null_basis() == rebuilt.null_basis()
        one = core.rekey_from_factorization(fact, rng=random.Random(5))
        other = core.rekey_from_factorization(rebuilt, rng=random.Random(5))
        assert one[0] == other[0]
        assert one[1].to_bytes() == other[1].to_bytes()
        for row in survivors:
            assert core.derive(one[1], row) == one[0]

    def test_a_cut_to_a_small_capacity_keeps_the_seed(self, gkm, rng):
        """The seed carries the 160 bits at every N, so a cut from N = 8 to
        N = 5 keeps it (explicit nonces needed 5 bytes each at N = 5 and
        refused this cut) and equals a factorization at N = 5."""
        rows = make_rows(rng, 8)
        fact = gkm.factorize(rows, _SEED, 8)
        assert fact.remove([0, 1, 2], 5) is True
        rebuilt = gkm.factorize(rows[3:], _SEED, 5)
        assert (fact.seed, fact.capacity) == (_SEED, 5)
        assert fact.null_basis() == rebuilt.null_basis()

    def test_cutting_a_pivot_column_is_refused(self, rng):
        """A hash blind to the CSS on the first six nonces makes every row
        equal there, so the surviving rows need pivots among the nonces a
        cut back to N = 6 would drop."""
        blind = {struct.pack(">I", j) for j in range(6)}

        def digest(data):
            return hashlib.sha256(data[-4:] if data[-4:] in blind else data).digest()

        core = AcvBgkm(FAST_FIELD, HashFunction("blind", 32, digest))
        fact = core.factorize(make_rows(rng, 8), _SEED, 10)
        assert fact.remove([0, 1], 6) is False

    def test_capacity_bounds(self, gkm, rng):
        fact = gkm.factorize(make_rows(rng, 8), _SEED, 10)
        with pytest.raises(CapacityError):
            fact.remove([0], 6)
        with pytest.raises(InvalidParameterError):
            fact.remove([0], 11)
        assert fact.remove([], 10) is True and len(fact.rows) == 8


class TestHeaderSerialization:
    def test_roundtrip(self, gkm, rng):
        rows = make_rows(rng, 4)
        _, header = gkm.generate(rows, n_max=8, rng=rng)
        parsed = AcvHeader.from_bytes(header.to_bytes())
        assert parsed == header

    def test_roundtrip_sparse(self, rng):
        gkm = AcvBgkm(FAST_FIELD, compress_terms=1)
        rows = make_rows(rng, 2)
        _, header = gkm.generate(rows, n_max=40, rng=rng)
        assert AcvHeader.from_bytes(header.to_bytes()) == header

    def test_roundtrip_empty_rows(self, gkm, rng):
        _, header = gkm.generate([], n_max=2, rng=rng)
        assert AcvHeader.from_bytes(header.to_bytes()) == header

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            AcvHeader.from_bytes(b"NOPE" + b"\x00" * 20)

    def test_truncated(self, gkm, rng):
        rows = make_rows(rng, 3)
        _, header = gkm.generate(rows, rng=rng)
        raw = header.to_bytes()
        with pytest.raises(SerializationError):
            AcvHeader.from_bytes(raw[: len(raw) // 2])

    def test_compression_shrinks_sparse_headers(self, rng):
        """The Figure-5 effect: fewer current subscribers => smaller ACV."""
        sparse_gkm = AcvBgkm(PAPER_FIELD, compress_terms=1)
        few_rows = make_rows(rng, 10)
        many_rows = make_rows(rng, 80)
        _, sparse_header = sparse_gkm.generate(few_rows, n_max=100, rng=rng)
        _, dense_header = sparse_gkm.generate(many_rows, n_max=100, rng=rng)
        assert sparse_header.byte_size() < dense_header.byte_size()

    def test_derivation_after_serialization(self, gkm, rng):
        rows = make_rows(rng, 3)
        key, header = gkm.generate(rows, rng=rng)
        parsed = AcvHeader.from_bytes(header.to_bytes())
        assert gkm.derive(parsed, rows[1]) == key


def _rewrite_modulus(raw: bytes, q: int) -> bytes:
    """Byte-surgically replace the modulus field of a wire header."""
    (q_len,) = struct.unpack_from(">H", raw, 4)
    q_raw = q.to_bytes(q_len, "big")
    return raw[:6] + q_raw + raw[6 + q_len :]


def _rewrite_seed(raw: bytes, seed: bytes) -> bytes:
    """Byte-surgically replace the seed field of a wire header."""
    (q_len,) = struct.unpack_from(">H", raw, 4)
    offset = 6 + q_len
    end = offset + 1 + raw[offset]
    return raw[:offset] + bytes([len(seed)]) + seed + raw[end:]


def _rewrite_counts(raw: bytes, count: int, n_x: int) -> bytes:
    """Byte-surgically replace the nonce count and the X arity of a wire
    header."""
    (q_len,) = struct.unpack_from(">H", raw, 4)
    offset = 6 + q_len + 1 + raw[6 + q_len]
    return raw[:offset] + struct.pack(">II", count, n_x) + raw[offset + 8 :]


class TestHostileHeaders:
    """Attacker-crafted broadcasts must fail typed, never with bare
    ZeroDivisionError / IndexError (regressions for the parse- and
    derive-time validation)."""

    @pytest.fixture
    def raw_header(self, gkm, rng):
        rows = make_rows(rng, 3)
        _, header = gkm.generate(rows, n_max=5, rng=rng)
        return header.to_bytes()

    @pytest.mark.parametrize("bad_q", [0, 1])
    def test_degenerate_modulus_rejected_at_parse(self, raw_header, bad_q):
        # Previously q=0 parsed fine and crashed derive() with
        # ZeroDivisionError; q=1 collapsed every key to 0.
        hostile = _rewrite_modulus(raw_header, bad_q)
        with pytest.raises(SerializationError, match="not a valid field"):
            AcvHeader.from_bytes(hostile)

    def test_zero_width_nonces_rejected_at_parse(self, raw_header):
        # An empty seed leaves only the index in every nonce.
        hostile = _rewrite_seed(raw_header, b"")
        with pytest.raises(SerializationError, match="nonce"):
            AcvHeader.from_bytes(hostile)

    def test_zero_nonce_count_rejected_at_parse(self, raw_header):
        hostile = _rewrite_counts(raw_header, 0, 6)
        with pytest.raises(SerializationError, match="nonce"):
            AcvHeader.from_bytes(hostile)

    def test_short_x_fails_typed_in_kev(self, gkm):
        # len(x) must be capacity + 1; a short X used to escape as a bare
        # IndexError from key_extraction_vector's header.x[j + 1] access.
        header = AcvHeader(q=FAST_FIELD.p, x=(1,), seed=_SEED, capacity=2)
        with pytest.raises(KeyDerivationError, match="arity"):
            gkm.key_extraction_vector(header, [b"css"])

    def test_short_x_fails_typed_in_derive(self, gkm):
        header = AcvHeader(q=FAST_FIELD.p, x=(1, 2), seed=_SEED, capacity=3)
        with pytest.raises(KeyDerivationError, match="arity"):
            gkm.derive(header, [b"css"])

    @pytest.mark.parametrize("bad_q", [0, 1])
    def test_degenerate_modulus_fails_typed_in_kev(self, gkm, bad_q):
        # Defense in depth for headers built in-process (bypassing
        # from_bytes), e.g. by the bucketed candidate scan.
        header = AcvHeader(q=bad_q, x=(1, 2, 3), seed=_SEED, capacity=2)
        with pytest.raises(KeyDerivationError, match="modulus"):
            gkm.key_extraction_vector(header, [b"css"])

    def test_valid_header_still_parses_after_surgery_helpers(self, raw_header):
        # Sanity-check the byte surgery itself: rewriting the fields with
        # their *original* values must leave the header parseable.
        header = AcvHeader.from_bytes(raw_header)
        same_q = _rewrite_modulus(raw_header, header.q)
        same_seed = _rewrite_seed(raw_header, header.seed)
        same_counts = _rewrite_counts(raw_header, 5, 6)
        assert AcvHeader.from_bytes(same_q) == header
        assert AcvHeader.from_bytes(same_seed) == header
        assert AcvHeader.from_bytes(same_counts) == header
