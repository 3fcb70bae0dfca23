"""CTR mode over the raw :class:`~repro.crypto.aes.AES` block transform.

CTR needs no padding, is seekable, and decrypts with the forward cipher;
it is the only mode the system uses (:mod:`repro.crypto.symmetric`).
"""

from __future__ import annotations

from repro.crypto.aes import AES
from repro.errors import InvalidParameterError

__all__ = ["xor_bytes", "ctr_keystream", "ctr_xor"]

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
