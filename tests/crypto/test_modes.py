"""Tests for CTR mode: known answers, the bulk kernel, counter wrap."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.aes import _KERNEL_PASS_BLOCKS, AES
from repro.crypto.modes import (
    _BULK_MIN_BLOCKS,
    ctr_keystream,
    ctr_xor,
    xor_bytes,
)
from repro.errors import InvalidParameterError

KEY = bytes(range(16))
IV = bytes(range(16, 32))


class TestCtr:
    def test_keystream_deterministic(self):
        cipher = AES(KEY)
        assert ctr_keystream(cipher, IV, 40) == ctr_keystream(cipher, IV, 40)

    def test_keystream_is_block_encryptions(self):
        cipher = AES(KEY)
        stream = ctr_keystream(cipher, IV, 32)
        counter = int.from_bytes(IV, "big")
        assert stream[:16] == cipher.encrypt_block(counter.to_bytes(16, "big"))
        assert stream[16:] == cipher.encrypt_block(
            (counter + 1).to_bytes(16, "big")
        )

    def test_counter_wraps(self):
        cipher = AES(KEY)
        stream = ctr_keystream(cipher, b"\xff" * 16, 32)
        assert stream[16:] == cipher.encrypt_block(bytes(16))  # wrapped to 0

    @given(st.binary(max_size=200))
    def test_xor_involution(self, data):
        cipher = AES(KEY)
        assert ctr_xor(cipher, IV, ctr_xor(cipher, IV, data)) == data

    def test_bad_nonce_length(self):
        with pytest.raises(InvalidParameterError):
            ctr_keystream(AES(KEY), b"short", 16)


class TestCtrKnownAnswers:
    """NIST SP 800-38A, F.5.1 / F.5.3 / F.5.5 (CTR-AES128/192/256.Encrypt)."""

    COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    PLAINTEXT = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710"
    )
    VECTORS = {
        "2b7e151628aed2a6abf7158809cf4f3c": (
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee"
        ),
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b": (
            "1abc932417521ca24f2b0459fe7e6e0b"
            "090339ec0aa6faefd5ccc2c6f4ce8e94"
            "1e36b26bd1ebc670d1bd1d665620abf7"
            "4f78a7f6d29809585a97daec58c6b050"
        ),
        "603deb1015ca71be2b73aef0857d7781"
        "1f352c073b6108d72d9810a30914dff4": (
            "601ec313775789a5b7a7f504bbf3d228"
            "f443e3ca4d62b59aca84e990cacaf5c5"
            "2b0930daa23de94ce87017ba2d84988d"
            "dfc9c58db67aada613c2dd08457941a6"
        ),
    }

    # The four-block vector runs on the bulk kernel; its 48-byte prefix stays
    # below the cutover, so the same expected bytes pin the scalar path too.
    @pytest.mark.parametrize("length", [64, 48, 20])
    @pytest.mark.parametrize("key", sorted(VECTORS), ids=lambda k: len(k) * 4)
    def test_sp800_38a(self, key, length):
        cipher = AES(bytes.fromhex(key))
        expected = bytes.fromhex(self.VECTORS[key])[:length]
        assert ctr_xor(cipher, self.COUNTER, self.PLAINTEXT[:length]) == expected
        assert ctr_xor(cipher, self.COUNTER, expected) == self.PLAINTEXT[:length]


def _reference_keystream(cipher, counter, length):
    """CTR from the definition: one ``encrypt_block`` per counter value."""
    blocks = -(-length // 16)
    stream = b"".join(
        cipher.encrypt_block(((counter + i) % (1 << 128)).to_bytes(16, "big"))
        for i in range(blocks)
    )
    return stream[:length]


# Start counters anywhere, and within reach (4 KiB = 256 blocks) of the two
# places the vectorised counter has to carry: a 2**64 word boundary and the
# 2**128 wrap.
_COUNTERS = st.one_of(
    st.integers(0, (1 << 128) - 1),
    st.builds(
        lambda word, back: ((word << 64) - back) % (1 << 128),
        st.integers(0, 1 << 64),
        st.integers(0, 260),
    ),
)


class TestBulkKernelMatchesScalar:
    """The two forward AES paths agree byte for byte."""

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    @settings(max_examples=60)
    @given(
        key=st.binary(min_size=32, max_size=32),
        counter=_COUNTERS,
        length=st.one_of(
            st.integers(0, 4096),
            st.integers(16 * (_BULK_MIN_BLOCKS - 2), 16 * (_BULK_MIN_BLOCKS + 1)),
        ),
    )
    @example(key=bytes(32), counter=(1 << 64) - 1, length=16 * _BULK_MIN_BLOCKS)
    @example(key=bytes(32), counter=(1 << 128) - 1, length=16 * _BULK_MIN_BLOCKS)
    @example(key=bytes(32), counter=(1 << 128) - 200, length=4096)
    @example(key=bytes(32), counter=(7 << 64) - 3, length=16 * _BULK_MIN_BLOCKS - 1)
    def test_keystream_differential(self, key_size, key, counter, length):
        cipher = AES(key[:key_size])
        nonce = counter.to_bytes(16, "big")
        assert ctr_keystream(cipher, nonce, length) == _reference_keystream(
            cipher, counter, length
        )

    def test_kernel_spans_passes(self):
        """A keystream longer than one kernel pass, carrying inside pass two."""
        cipher = AES(KEY)
        blocks = _KERNEL_PASS_BLOCKS + 9
        counter = (1 << 64) - _KERNEL_PASS_BLOCKS - 4
        stream = cipher.encrypt_counter_blocks(counter, blocks)
        assert len(stream) == 16 * blocks
        for index in (0, _KERNEL_PASS_BLOCKS - 1, _KERNEL_PASS_BLOCKS,
                      _KERNEL_PASS_BLOCKS + 3, _KERNEL_PASS_BLOCKS + 4, blocks - 1):
            block = ((counter + index) % (1 << 128)).to_bytes(16, "big")
            assert stream[16 * index : 16 * index + 16] == cipher.encrypt_block(block)

    def test_kernel_edge_counts(self):
        cipher = AES(KEY)
        assert cipher.encrypt_counter_blocks(5, 0) == b""
        assert cipher.encrypt_counter_blocks(5, 1) == cipher.encrypt_block(
            (5).to_bytes(16, "big")
        )
        with pytest.raises(InvalidParameterError):
            cipher.encrypt_counter_blocks(5, -1)


class TestXorBytes:
    @given(st.binary(max_size=100).flatmap(
        lambda a: st.tuples(st.just(a), st.binary(min_size=len(a), max_size=len(a)))
    ))
    def test_matches_bytewise(self, pair):
        a, b = pair
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            xor_bytes(b"abc", b"ab")
