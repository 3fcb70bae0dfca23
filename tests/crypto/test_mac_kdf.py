"""HMAC (vs stdlib + RFC fixtures) and HKDF (RFC 5869 vectors)."""

import hashlib
import hmac as std_hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashes import HashFunction, sha1, sha256
from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract
from repro.crypto.mac import constant_time_equal, hmac_digest
from repro.errors import InvalidParameterError


class TestHmac:
    @given(st.binary(max_size=200), st.binary(max_size=200))
    def test_matches_stdlib_sha256(self, key, msg):
        assert hmac_digest(key, msg, sha256) == std_hmac.new(
            key, msg, hashlib.sha256
        ).digest()

    @given(st.binary(max_size=100), st.binary(max_size=100))
    def test_matches_stdlib_sha1(self, key, msg):
        assert hmac_digest(key, msg, sha1) == std_hmac.new(
            key, msg, hashlib.sha1
        ).digest()

    def test_long_key_hashed_down(self):
        key = b"k" * 200  # longer than the 64-byte block
        assert hmac_digest(key, b"m") == std_hmac.new(
            key, b"m", hashlib.sha256
        ).digest()

    def test_pure_hash_backend(self):
        """Any :class:`HashFunction`, not only the registered ones."""
        md5 = HashFunction("md5", 16, lambda data: hashlib.md5(data).digest())
        assert hmac_digest(b"key", b"msg", md5) == std_hmac.new(
            b"key", b"msg", hashlib.md5
        ).digest()

    def test_rfc4231_case_1(self):
        key = b"\x0b" * 20
        data = b"Hi There"
        expected = (
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )
        assert hmac_digest(key, data, sha256).hex() == expected


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"abc", b"abc")

    def test_unequal_same_length(self):
        assert not constant_time_equal(b"abc", b"abd")

    def test_unequal_lengths(self):
        assert not constant_time_equal(b"abc", b"abcd")

    def test_empty(self):
        assert constant_time_equal(b"", b"")


class TestHkdf:
    def test_rfc5869_case_1(self):
        ikm = b"\x0b" * 22
        salt = bytes(range(13))
        info = bytes(range(0xF0, 0xFA))
        prk = hkdf_extract(salt, ikm)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_empty_salt_defaults_to_zeros(self):
        assert hkdf_extract(b"", b"ikm") == hkdf_extract(b"\x00" * 32, b"ikm")

    def test_expand_lengths(self):
        prk = hkdf_extract(b"salt", b"ikm")
        for n in (1, 16, 32, 33, 64, 255):
            assert len(hkdf_expand(prk, b"info", n)) == n

    def test_expand_rejects_bad_lengths(self):
        prk = hkdf_extract(b"salt", b"ikm")
        with pytest.raises(InvalidParameterError):
            hkdf_expand(prk, b"info", 0)
        with pytest.raises(InvalidParameterError):
            hkdf_expand(prk, b"info", 256 * 32)

    def test_info_separates_keys(self):
        prk = hkdf_extract(b"salt", b"ikm")
        assert hkdf_expand(prk, b"a", 16) != hkdf_expand(prk, b"b", 16)

    @given(st.binary(min_size=1, max_size=64), st.integers(8, 64))
    def test_derive_key_deterministic(self, secret, length):
        assert derive_key(secret, length) == derive_key(secret, length)
        assert len(derive_key(secret, length)) == length

    def test_derive_key_domain_separation(self):
        assert derive_key(b"s", 16, info=b"a") != derive_key(b"s", 16, info=b"b")
