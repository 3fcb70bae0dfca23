"""Cryptographic hash functions and hash-to-field helpers.

Two parts live here:

* **Named hash functions** (:class:`HashFunction`): ``hashlib``-backed
  SHA-256 (the library default) and SHA-1 (the hash of the paper's
  OpenSSL-based system), registered by name so whatever holds one pickles.

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
# Named instances
# ---------------------------------------------------------------------------

#: Fast default (hashlib-backed SHA-256).
sha256 = HashFunction("sha256", 32, lambda d: hashlib.sha256(d).digest())
#: Fast SHA-1 for paper-faithful runs (hashlib-backed).
sha1 = HashFunction("sha1", 20, lambda d: hashlib.sha1(d).digest())

_REGISTRY = {h.name: h for h in (sha256, sha1)}

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
