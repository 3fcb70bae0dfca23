"""Tests for hash functions and hash-to-field helpers."""

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashes import (
    HashFunction,
    default_hash,
    expand_message,
    hash_concat,
    hash_to_int,
    hash_to_range,
    row_hasher,
    sha1,
    sha256,
)
from repro.errors import InvalidParameterError


class TestPureImplementations:
    """The named instances compute SHA-1 / SHA-256, and the row hasher's
    absorbed prefix state is exact across the 64-byte block boundary."""

    KNOWN_SHA256 = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    ]
    KNOWN_SHA1 = [
        (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    ]

    @pytest.mark.parametrize("data,expected", KNOWN_SHA256)
    def test_sha256_known_answers(self, data, expected):
        assert sha256.digest(data).hex() == expected

    @pytest.mark.parametrize("data,expected", KNOWN_SHA1)
    def test_sha1_known_answers(self, data, expected):
        assert sha1.digest(data).hex() == expected

    @pytest.mark.parametrize("n", [55, 56, 63, 64, 65, 119, 120, 128])
    def test_padding_boundaries(self, n):
        """Prefix lengths around the 64-byte block boundary: the copied
        state must carry a partial block exactly."""
        part = bytes(range(256))[:n]
        for h in (sha256, sha1):
            for q in (1073741827, 604462909807314587353111):
                a = row_hasher(h, [part], q)
                assert a(b"z") == hash_concat(h, [part, b"z"], q)

    def test_metadata(self):
        assert sha256.digest_size == 32
        assert sha1.digest_size == 20
        assert sha256.block_size == 64
        assert default_hash().name == "sha256"
        assert sha256.hexdigest(b"abc") == hashlib.sha256(b"abc").hexdigest()


class TestExpandAndRange:
    def test_expand_lengths(self):
        h = default_hash()
        for n in (0, 1, 31, 32, 33, 100):
            assert len(expand_message(h, b"seed", n)) == n

    def test_expand_deterministic_prefix(self):
        h = default_hash()
        long = expand_message(h, b"seed", 100)
        short = expand_message(h, b"seed", 40)
        assert long[:40] == short

    def test_expand_negative(self):
        with pytest.raises(InvalidParameterError):
            expand_message(default_hash(), b"x", -1)

    @given(st.binary(max_size=64), st.integers(1, 512))
    def test_hash_to_int_bits(self, data, bits):
        value = hash_to_int(default_hash(), data, bits)
        assert 0 <= value < (1 << bits)

    @given(st.binary(max_size=64))
    def test_hash_to_range_bounds(self, data):
        for modulus in (2, 17, 10007, 2**80):
            value = hash_to_range(default_hash(), data, modulus)
            assert 0 <= value < modulus

    def test_hash_to_range_rejects_tiny_modulus(self):
        with pytest.raises(InvalidParameterError):
            hash_to_range(default_hash(), b"x", 1)

    def test_hash_to_range_spreads(self):
        """Different inputs should land on different values (whp)."""
        h = default_hash()
        values = {hash_to_range(h, bytes([i]), 2**80) for i in range(64)}
        assert len(values) == 64


class TestHashConcat:
    """The canonical concatenation hash of the GKM scheme (Eq. 2)."""

    def test_deterministic(self):
        h = default_hash()
        q = 2**80
        assert hash_concat(h, [b"r1", b"r2", b"z"], q) == hash_concat(
            h, [b"r1", b"r2", b"z"], q
        )

    def test_no_concatenation_ambiguity(self):
        """('ab','c') and ('a','bc') must hash differently -- the property
        plain || concatenation would violate."""
        h = default_hash()
        q = 2**80
        assert hash_concat(h, [b"ab", b"c"], q) != hash_concat(h, [b"a", b"bc"], q)

    def test_order_matters(self):
        h = default_hash()
        q = 2**80
        assert hash_concat(h, [b"x", b"y"], q) != hash_concat(h, [b"y", b"x"], q)

    def test_empty_parts_distinct(self):
        h = default_hash()
        q = 2**80
        assert hash_concat(h, [b"", b"x"], q) != hash_concat(h, [b"x", b""], q)

    @given(
        st.lists(st.binary(max_size=16), min_size=1, max_size=4),
        st.lists(st.binary(max_size=16), min_size=1, max_size=4),
    )
    def test_injective_whp(self, parts_a, parts_b):
        h = default_hash()
        q = PRIME_80 = 604462909807314587353111
        if parts_a != parts_b:
            assert hash_concat(h, parts_a, q) != hash_concat(h, parts_b, q)
        else:
            assert hash_concat(h, parts_a, q) == hash_concat(h, parts_b, q)


#: Not in the registry and not hashlib-backed as far as the kernel can
#: tell: it must take the one-shot fallback and still agree.
_ADHOC = HashFunction("adhoc-md5", 16, lambda data: hashlib.md5(data).digest())
#: Same name as a registered instance, different function: the kernel must
#: not mistake it for the hashlib-backed ``sha256``.
_IMPOSTOR = HashFunction("sha256", 32, lambda data: hashlib.sha256(data + b"!").digest())

ROW_HASHES = [sha256, sha1, _ADHOC, _IMPOSTOR]


class TestRowHasher:
    """The prefix-state Eq. 2 kernel equals ``hash_concat``, value for value."""

    @settings(max_examples=100)
    @given(
        parts=st.lists(st.binary(max_size=24), min_size=0, max_size=4),
        nonces=st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=4),
        # 2 .. 521 bits: up to 131 output bytes, i.e. 5 SHA-256 / 7 SHA-1 /
        # 9 MD5 counter blocks, and the shift that trims a bit count which
        # is not a multiple of eight.
        modulus=st.one_of(
            st.integers(2, 2**16),
            st.integers(1, 521).map(lambda bits: (1 << bits) - 1).filter(lambda q: q > 1),
            st.integers(2, 2**521),
        ),
    )
    def test_equals_hash_concat(self, parts, nonces, modulus):
        for h in ROW_HASHES:
            a = row_hasher(h, parts, modulus)
            for z in nonces:
                assert a(z) == hash_concat(h, parts + [z], modulus)
                assert a(bytearray(z)) == a(z)

    @pytest.mark.parametrize("h", ROW_HASHES, ids=lambda h: repr(h))
    def test_paper_and_fast_fields(self, h):
        parts = [b"css-one", b"", b"css-three"]
        for q in (1073741827, 604462909807314587353111):
            a = row_hasher(h, parts, q)
            for z in (b"\x00" * 4, b"nonce", bytes(range(32))):
                assert a(z) == hash_concat(h, parts + [z], q)

    def test_accepts_any_sequence_of_byteslike_parts(self):
        q = 1073741827
        expected = hash_concat(sha256, [b"r1", b"r2", b"z"], q)
        assert row_hasher(sha256, (b"r1", b"r2"), q)(b"z") == expected
        assert row_hasher(sha256, [bytearray(b"r1"), memoryview(b"r2")], q)(b"z") == expected

    def test_one_hasher_is_reusable_and_order_free(self):
        q = 604462909807314587353111
        a = row_hasher(sha1, [b"css"], q)
        nonces = [bytes([i]) * 5 for i in range(20)]
        forward = [a(z) for z in nonces]
        assert [a(z) for z in reversed(nonces)] == forward[::-1]
        assert forward == [hash_concat(sha1, [b"css", z], q) for z in nonces]

    def test_rejects_tiny_modulus(self):
        for h in (sha256, _ADHOC):
            with pytest.raises(InvalidParameterError):
                row_hasher(h, [b"css"], 1)

    @pytest.mark.parametrize("h", [sha256, sha1])
    def test_registered_hashes_still_pickle_by_name(self, h):
        assert pickle.loads(pickle.dumps(h)) is h

    @pytest.mark.parametrize("h", [_ADHOC, _IMPOSTOR])
    def test_unregistered_hashes_still_refuse_to_pickle(self, h):
        with pytest.raises(TypeError):
            pickle.dumps(h)
