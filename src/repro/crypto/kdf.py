"""HKDF (RFC 5869) and key-derivation helpers.

The OCBE envelopes encrypt under ``H(sigma)``; :func:`derive_key` is the
canonical way the library turns a group element / shared secret into a
symmetric key of the publisher's configured length ``l'`` (Section V-B).
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.hashes import HashFunction, default_hash
from repro.crypto.mac import hmac_digest
from repro.errors import InvalidParameterError

__all__ = ["hkdf_extract", "hkdf_expand", "derive_key"]


def hkdf_extract(
    salt: bytes, ikm: bytes, h: Optional[HashFunction] = None
) -> bytes:
    """HKDF-Extract: a pseudorandom key from input keying material."""
    h = h or default_hash()
    if not salt:
        salt = b"\x00" * h.digest_size
    return hmac_digest(salt, ikm, h)


def hkdf_expand(
    prk: bytes, info: bytes, length: int, h: Optional[HashFunction] = None
) -> bytes:
    """HKDF-Expand: stretch a pseudorandom key to ``length`` bytes."""
    h = h or default_hash()
    if length <= 0:
        raise InvalidParameterError("length must be positive")
    if length > 255 * h.digest_size:
        raise InvalidParameterError("HKDF output too long for one expand")
    blocks = []
    prev = b""
    for counter in range(1, -(-length // h.digest_size) + 1):
        prev = hmac_digest(prk, prev + info + bytes([counter]), h)
        blocks.append(prev)
    return b"".join(blocks)[:length]


def derive_key(
    secret: bytes,
    length: int,
    info: bytes = b"repro/key",
    salt: bytes = b"",
    h: Optional[HashFunction] = None,
) -> bytes:
    """Derive a ``length``-byte symmetric key from ``secret``.

    This realises the paper's ``H(sigma)`` keying step while supporting any
    key length the publisher configures (the paper's ``l'`` parameter).
    """
    return hkdf_expand(hkdf_extract(salt, secret, h), info, length, h)
