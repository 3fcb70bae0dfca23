"""Cryptographic hash functions and hash-to-field helpers.

Two families live here:

* **From-scratch SHA-1 and SHA-256** (:class:`PureSha1`,
  :class:`PureSha256`).  The paper's system hashes with OpenSSL's SHA-1; we
  reimplement both functions from the FIPS specs and validate them against
  ``hashlib`` in the test suite.  They are interchangeable with the
  ``hashlib``-backed default through the small :class:`HashFunction`
  adapter.

* **Canonical concatenation hashing** (:func:`hash_concat`).  The GKM
  scheme computes ``a_{i,j} = H(r_{i,1} || r_{i,2} || ... || z_j)``; the
  paper notes that a "canonical encoding" is assumed.  We make that
  canonical encoding explicit -- every part is length-prefixed so distinct
  tuples can never collide by concatenation ambiguity -- and reduce into
  ``F_q`` with doubled output length to keep the modular bias negligible.
  :func:`row_hasher` is the same function for one fixed CSS tuple and many
  nonces: it absorbs the shared prefix once and is what the ACV code
  calls; ``hash_concat`` stays as the one-shot reference it is tested
  against.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Sequence, Union

from repro.errors import InvalidParameterError

__all__ = [
    "HashFunction",
    "PureSha1",
    "PureSha256",
    "default_hash",
    "get_hash",
    "sha1",
    "sha256",
    "hash_to_int",
    "hash_to_range",
    "hash_concat",
    "row_hasher",
    "expand_message",
]

BytesLike = Union[bytes, bytearray, memoryview]

_U32 = struct.Struct(">I")


class HashFunction:
    """A named hash function: ``digest(data) -> bytes`` plus metadata."""

    __slots__ = ("name", "digest_size", "_fn")

    def __init__(self, name: str, digest_size: int, fn: Callable[[bytes], bytes]):
        self.name = name
        self.digest_size = digest_size
        self._fn = fn

    def digest(self, data: BytesLike) -> bytes:
        """Hash ``data`` and return the raw digest."""
        return self._fn(bytes(data))

    def hexdigest(self, data: BytesLike) -> str:
        """Hash ``data`` and return the hex digest."""
        return self.digest(data).hex()

    @property
    def block_size(self) -> int:
        """Compression-function block size (both SHA-1/SHA-256 use 64)."""
        return 64

    def __repr__(self) -> str:
        return "HashFunction(%s, %d bytes)" % (self.name, self.digest_size)

    def __reduce__(self):
        # Digest callables may be lambdas; named instances pickle by name
        # so whatever holds one (an OCBE setup, a cipher, system
        # parameters) can be pickled.
        if _REGISTRY.get(self.name) is not self:
            raise TypeError(
                "only registered named HashFunction instances are picklable; "
                "%r is not in the registry" % self.name
            )
        return (get_hash, (self.name,))


# ---------------------------------------------------------------------------
# Pure-Python SHA-256 (FIPS 180-4)
# ---------------------------------------------------------------------------

_SHA256_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_SHA256_IV = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK32 = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK32


def _sha256_compress(state: tuple, block: bytes) -> tuple:
    w = list(struct.unpack(">16I", block))
    for i in range(16, 64):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK32)
    a, b, c, d, e, f, g, h = state
    for i in range(64):
        s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = (h + s1 + ch + _SHA256_K[i] + w[i]) & _MASK32
        s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = (s0 + maj) & _MASK32
        h, g, f, e, d, c, b, a = (
            g, f, e, (d + temp1) & _MASK32, c, b, a, (temp1 + temp2) & _MASK32,
        )
    return tuple((s + v) & _MASK32 for s, v in zip(state, (a, b, c, d, e, f, g, h)))


def _md_pad(data: bytes) -> bytes:
    """Merkle--Damgard padding shared by SHA-1 and SHA-256."""
    length = len(data)
    padded = data + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += struct.pack(">Q", length * 8)
    return padded


class PureSha256:
    """From-scratch SHA-256 (FIPS 180-4); use ``PureSha256.hash(data)``."""

    digest_size = 32
    name = "pure-sha256"

    @staticmethod
    def hash(data: BytesLike) -> bytes:
        """One-shot SHA-256 digest of ``data``."""
        state = _SHA256_IV
        padded = _md_pad(bytes(data))
        for offset in range(0, len(padded), 64):
            state = _sha256_compress(state, padded[offset : offset + 64])
        return struct.pack(">8I", *state)


# ---------------------------------------------------------------------------
# Pure-Python SHA-1 (FIPS 180-1) -- the paper's hash
# ---------------------------------------------------------------------------

_SHA1_IV = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)


def _rotl(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & _MASK32


def _sha1_compress(state: tuple, block: bytes) -> tuple:
    w = list(struct.unpack(">16I", block))
    for i in range(16, 80):
        w.append(_rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
    a, b, c, d, e = state
    for i in range(80):
        if i < 20:
            f, k = (b & c) | (~b & d), 0x5A827999
        elif i < 40:
            f, k = b ^ c ^ d, 0x6ED9EBA1
        elif i < 60:
            f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
        else:
            f, k = b ^ c ^ d, 0xCA62C1D6
        a, b, c, d, e = (
            (_rotl(a, 5) + f + e + k + w[i]) & _MASK32,
            a,
            _rotl(b, 30),
            c,
            d,
        )
    return tuple((s + v) & _MASK32 for s, v in zip(state, (a, b, c, d, e)))


class PureSha1:
    """From-scratch SHA-1 (the hash used by the paper's implementation)."""

    digest_size = 20
    name = "pure-sha1"

    @staticmethod
    def hash(data: BytesLike) -> bytes:
        """One-shot SHA-1 digest of ``data``."""
        state = _SHA1_IV
        padded = _md_pad(bytes(data))
        for offset in range(0, len(padded), 64):
            state = _sha1_compress(state, padded[offset : offset + 64])
        return struct.pack(">5I", *state)


# ---------------------------------------------------------------------------
# Named instances
# ---------------------------------------------------------------------------

#: Fast default (hashlib-backed SHA-256).
sha256 = HashFunction("sha256", 32, lambda d: hashlib.sha256(d).digest())
#: Fast SHA-1 for paper-faithful runs (hashlib-backed).
sha1 = HashFunction("sha1", 20, lambda d: hashlib.sha1(d).digest())
#: Interoperable from-scratch implementations.
pure_sha256 = HashFunction("pure-sha256", 32, PureSha256.hash)
pure_sha1 = HashFunction("pure-sha1", 20, PureSha1.hash)

_REGISTRY = {h.name: h for h in (sha256, sha1, pure_sha256, pure_sha1)}

#: The hashlib constructor behind an instance, for callers that absorb a
#: shared prefix once (:func:`row_hasher`).  Keyed by the instance, not its
#: name: an ad-hoc ``HashFunction("sha256", ...)`` may hash differently.
_INCREMENTAL = {sha256: hashlib.sha256, sha1: hashlib.sha1}


def get_hash(name: str) -> HashFunction:
    """Look up a named hash instance (also the unpickle constructor)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError("unknown hash function %r" % name) from None


def default_hash() -> HashFunction:
    """The library-wide default hash (SHA-256)."""
    return sha256


# ---------------------------------------------------------------------------
# Hash-to-integer / hash-to-field
# ---------------------------------------------------------------------------


def expand_message(h: HashFunction, data: bytes, out_len: int) -> bytes:
    """Expand ``data`` into ``out_len`` bytes with counter-mode hashing."""
    if out_len < 0:
        raise InvalidParameterError("out_len must be >= 0")
    count = -(-out_len // h.digest_size)
    blocks = [h.digest(struct.pack(">I", counter) + data) for counter in range(count)]
    return b"".join(blocks)[:out_len]


def hash_to_int(h: HashFunction, data: bytes, bits: int) -> int:
    """Hash ``data`` to a ``bits``-bit integer (counter-expanded)."""
    nbytes = (bits + 7) // 8
    raw = expand_message(h, data, nbytes)
    value = int.from_bytes(raw, "big")
    excess = nbytes * 8 - bits
    return value >> excess if excess else value


def hash_to_range(h: HashFunction, data: bytes, modulus: int) -> int:
    """Hash ``data`` to ``[0, modulus)`` with negligible bias.

    Expands to twice the modulus bit length before reducing, so the bias is
    at most ``2**-len(modulus)``.
    """
    if modulus < 2:
        raise InvalidParameterError("modulus must be >= 2")
    wide = hash_to_int(h, data, 2 * modulus.bit_length())
    return wide % modulus


def hash_concat(
    h: HashFunction, parts: Sequence[BytesLike], modulus: int
) -> int:
    """The GKM hash ``H(part_1 || ... || part_k) mod q`` (Eq. 2 of the paper).

    Every part is prefixed with its 4-byte big-endian length, which realises
    the "canonical encoding" the paper assumes: ``("ab","c")`` and
    ``("a","bc")`` hash differently.
    """
    buf = bytearray()
    for part in parts:
        raw = bytes(part)
        buf += struct.pack(">I", len(raw))
        buf += raw
    return hash_to_range(h, bytes(buf), modulus)


def row_hasher(
    h: HashFunction, parts: Sequence[BytesLike], modulus: int
) -> Callable[[BytesLike], int]:
    """Eq. 2 along one matrix row: ``z -> hash_concat(h, parts + [z], modulus)``.

    A row of the access matrix (and a subscriber's KEV) hashes one fixed
    CSS tuple against every nonce, so everything but the last part is
    shared.  When one counter block covers the expansion (both library
    fields under either hashlib hash) and ``h`` is hashlib-backed, the
    shared prefix ``0 || LP(part_1) || ... || LP(part_k)`` is absorbed
    once and each value costs a state copy, the nonce and a reduction of
    that single digest.  Wider moduli, and any other :class:`HashFunction`
    (which only offers one-shot ``digest``), hash the whole input per
    value.  The values are those of :func:`hash_concat` either way.
    """
    if modulus < 2:
        raise InvalidParameterError("modulus must be >= 2")
    prefix = b"".join(struct.pack(">I", len(raw)) + raw for raw in map(bytes, parts))
    bits = 2 * modulus.bit_length()
    nbytes = (bits + 7) // 8
    new = _INCREMENTAL.get(h)
    if new is None or nbytes > h.digest_size:

        def one_shot(z: BytesLike) -> int:
            z = bytes(z)
            return hash_to_range(h, prefix + struct.pack(">I", len(z)) + z, modulus)

        return one_shot

    excess = nbytes * 8 - bits
    state = new(struct.pack(">I", 0) + prefix)
    length = _U32.pack

    def from_one_block(z: BytesLike) -> int:
        one = state.copy()
        one.update(length(len(z)) + z)
        return (int.from_bytes(one.digest()[:nbytes], "big") >> excess) % modulus

    return from_one_block
