"""HMAC (RFC 2104) over any :class:`~repro.crypto.hashes.HashFunction`.

Implemented from the definition rather than delegating to :mod:`hmac`, so it
composes with the from-scratch hash implementations; the test suite checks
it against the standard library for random inputs.  Only the tag comparison
is the standard library's.
"""

from __future__ import annotations

import hmac
from typing import Optional

from repro.crypto.hashes import HashFunction, default_hash

__all__ = ["hmac_digest", "constant_time_equal"]

# key XOR ipad / opad over a whole block is one table lookup per byte.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def hmac_digest(
    key: bytes, message: bytes, h: Optional[HashFunction] = None
) -> bytes:
    """HMAC of ``message`` under ``key`` with hash ``h`` (default SHA-256)."""
    h = h or default_hash()
    block = h.block_size
    if len(key) > block:
        key = h.digest(key)
    key = key.ljust(block, b"\x00")
    inner = h.digest(key.translate(_IPAD) + message)
    return h.digest(key.translate(_OPAD) + inner)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch; unequal
    lengths compare ``False``."""
    return hmac.compare_digest(a, b)
