"""Block-cipher modes of operation: CTR and CBC with PKCS#7 padding.

These operate over the raw :class:`~repro.crypto.aes.AES` block transform.
CTR is the library default (no padding, seekable); CBC is provided for
completeness and interoperability tests.
"""

from __future__ import annotations

from repro.crypto.aes import AES
from repro.errors import DecryptionError, InvalidParameterError

__all__ = [
    "xor_bytes",
    "ctr_keystream",
    "ctr_xor",
    "cbc_encrypt",
    "cbc_decrypt",
    "pkcs7_pad",
    "pkcs7_unpad",
]

_BLOCK = 16

# Keystreams of at least this many blocks come from the vectorised kernel
# (:meth:`AES.encrypt_counter_blocks`); shorter ones from ``encrypt_block``.
# Measured: the kernel costs about 58 us for anything up to 8 blocks, the
# scalar path about 30 us per block, so they tie at 2 blocks.  The constant is
# twice that: the kernel's fixed cost is ~110 numpy calls, which vary more from
# host to host than bytecode does, the one-block OCBE envelopes stay on the
# reference path either way, and a 3-block message (nothing sends one) gives up
# 34 us at most (DESIGN.md, "Bulk AES-CTR and the key-state table").
_BULK_MIN_BLOCKS = 4


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (as two big integers, at C speed)."""
    if len(a) != len(b):
        raise InvalidParameterError("xor_bytes needs equal lengths")
    mixed = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return mixed.to_bytes(len(a), "big")


def ctr_keystream(cipher: AES, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` keystream bytes from a 16-byte initial counter."""
    if len(nonce) != _BLOCK:
        raise InvalidParameterError("CTR nonce/counter must be 16 bytes")
    counter = int.from_bytes(nonce, "big")
    blocks = -(-length // _BLOCK)
    if blocks >= _BULK_MIN_BLOCKS:
        return cipher.encrypt_counter_blocks(counter, blocks)[:length]
    out = bytearray()
    for _ in range(blocks):
        out += cipher.encrypt_block(counter.to_bytes(_BLOCK, "big"))
        counter = (counter + 1) % (1 << 128)
    return bytes(out[:length])


def ctr_xor(cipher: AES, nonce: bytes, data: bytes) -> bytes:
    """CTR-mode transform (encryption and decryption are identical)."""
    return xor_bytes(data, ctr_keystream(cipher, nonce, len(data)))


def pkcs7_pad(data: bytes) -> bytes:
    """Pad to a multiple of the block size (always adds 1..16 bytes)."""
    pad = _BLOCK - len(data) % _BLOCK
    return data + bytes([pad]) * pad


def pkcs7_unpad(data: bytes) -> bytes:
    """Strip PKCS#7 padding, raising :class:`DecryptionError` if malformed."""
    if not data or len(data) % _BLOCK:
        raise DecryptionError("ciphertext length is not a block multiple")
    pad = data[-1]
    if pad < 1 or pad > _BLOCK or data[-pad:] != bytes([pad]) * pad:
        raise DecryptionError("invalid PKCS#7 padding")
    return data[:-pad]


def cbc_encrypt(cipher: AES, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt with PKCS#7 padding."""
    if len(iv) != _BLOCK:
        raise InvalidParameterError("CBC IV must be 16 bytes")
    padded = pkcs7_pad(plaintext)
    out = bytearray()
    prev = iv
    for offset in range(0, len(padded), _BLOCK):
        block = xor_bytes(padded[offset : offset + _BLOCK], prev)
        prev = cipher.encrypt_block(block)
        out += prev
    return bytes(out)


def cbc_decrypt(cipher: AES, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC-decrypt and strip PKCS#7 padding."""
    if len(iv) != _BLOCK:
        raise InvalidParameterError("CBC IV must be 16 bytes")
    if len(ciphertext) % _BLOCK:
        raise DecryptionError("ciphertext length is not a block multiple")
    out = bytearray()
    prev = iv
    for offset in range(0, len(ciphertext), _BLOCK):
        block = ciphertext[offset : offset + _BLOCK]
        out += xor_bytes(cipher.decrypt_block(block), prev)
        prev = block
    return pkcs7_unpad(bytes(out))
