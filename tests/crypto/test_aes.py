"""AES known-answer and structural tests."""

import pytest

from repro.crypto.aes import AES, _SBOX, _gf_mul
from repro.errors import InvalidParameterError

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")


class TestKnownAnswers:
    """FIPS-197 Appendix C vectors."""

    def test_aes128(self):
        key = bytes(range(16))
        assert (
            AES(key).encrypt_block(PLAINTEXT).hex()
            == "69c4e0d86a7b0430d8cdb78070b4c55a"
        )

    def test_aes192(self):
        key = bytes(range(24))
        assert (
            AES(key).encrypt_block(PLAINTEXT).hex()
            == "dda97ca4864cdfe06eaf70a0ec0d7191"
        )

    def test_aes256(self):
        key = bytes(range(32))
        assert (
            AES(key).encrypt_block(PLAINTEXT).hex()
            == "8ea2b7ca516745bfeafc49904b496089"
        )

    def test_sbox_spot_values(self):
        """Classic S-box entries from the FIPS table."""
        assert _SBOX[0x00] == 0x63
        assert _SBOX[0x01] == 0x7C
        assert _SBOX[0x53] == 0xED
        assert _SBOX[0xFF] == 0x16

    def test_sbox_inverse_table(self):
        """The derived S-box is a permutation of the bytes (invertible)."""
        assert sorted(_SBOX) == list(range(256))

    def test_gf_mul_known(self):
        assert _gf_mul(0x57, 0x83) == 0xC1  # FIPS-197 example
        assert _gf_mul(0x57, 0x13) == 0xFE


class TestStructure:
    @pytest.mark.parametrize("key_len,rounds", [(16, 10), (24, 12), (32, 14)])
    def test_round_counts(self, key_len, rounds):
        assert AES(bytes(key_len)).rounds == rounds

    def test_invalid_key_length(self):
        with pytest.raises(InvalidParameterError):
            AES(bytes(15))

    def test_invalid_block_length(self):
        cipher = AES(bytes(16))
        with pytest.raises(InvalidParameterError):
            cipher.encrypt_block(b"short")
        with pytest.raises(InvalidParameterError):
            cipher.encrypt_block(b"x" * 17)

    def test_different_keys_different_ciphertexts(self):
        c1 = AES(bytes(16)).encrypt_block(PLAINTEXT)
        c2 = AES(bytes([1] + [0] * 15)).encrypt_block(PLAINTEXT)
        assert c1 != c2

    def test_avalanche(self):
        """Flipping one plaintext bit flips ~half the ciphertext bits."""
        cipher = AES(bytes(range(16)))
        base = cipher.encrypt_block(PLAINTEXT)
        flipped_pt = bytes([PLAINTEXT[0] ^ 1]) + PLAINTEXT[1:]
        flipped = cipher.encrypt_block(flipped_pt)
        diff_bits = sum(bin(a ^ b).count("1") for a, b in zip(base, flipped))
        assert 32 <= diff_bits <= 96  # 128 bits, expect ~64
