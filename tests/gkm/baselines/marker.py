"""The reviewer's XOR/marker GKM scheme (Section VIII-D).

For a (sub)document with policies ``acp_1..acp_alpha`` the publisher picks
a random ``z`` and broadcasts, for every qualified (policy, subscriber)
row, the value ``(k || m) xor H(r_1 || ... || r_w || z)`` where ``m`` is a
well-known marker.  A subscriber hashes its CSS tuple with ``z`` and XORs
against every broadcast value; the one revealing the marker yields ``k``.

The paper accepts this scheme is plausible but highlights two drawbacks
which this implementation faithfully exhibits (and the test suite
demonstrates):

* the key must be strictly shorter than the hash output, and
* reusing ``z`` across two documents with the same user base leaks
  ``k1 xor k2`` to an attacker who knows ``k1``
  (``X1 xor X2 = (k1||m) xor (k2||m) xor 0``), whereas ACV-BGKM can reuse
  its nonces with independent ACVs safely.
"""

from __future__ import annotations

import random
import secrets
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.hashes import HashFunction, default_hash
from repro.errors import (
    InvalidParameterError,
    KeyDerivationError,
    SerializationError,
)
from tests.gkm.baselines.base import BroadcastGkm, RekeyBroadcast

__all__ = ["MarkerHeader", "MarkerBgkm", "MarkerBroadcastGkm", "DEFAULT_MARKER"]

#: "Well-known marker that is long enough to avoid collision" (Sec. VIII-D).
DEFAULT_MARKER = b"\xa5REPRO-MARK\x5a"

_MAGIC = b"MRK1"


@dataclass(frozen=True)
class MarkerHeader:
    """The broadcast payload: nonce ``z`` plus the XOR-masked values."""

    z: bytes
    masked: Tuple[bytes, ...]

    def to_bytes(self) -> bytes:
        out = bytearray(_MAGIC)
        out += struct.pack(">H", len(self.z))
        out += self.z
        out += struct.pack(">I", len(self.masked))
        for value in self.masked:
            out += struct.pack(">H", len(value))
            out += value
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MarkerHeader":
        try:
            if data[:4] != _MAGIC:
                raise SerializationError("bad magic")
            offset = 4
            (z_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            z = data[offset : offset + z_len]
            offset += z_len
            (count,) = struct.unpack_from(">I", data, offset)
            offset += 4
            if count * 2 > len(data):
                raise SerializationError("masked-value count exceeds payload")
            masked: List[bytes] = []
            for _ in range(count):
                (m_len,) = struct.unpack_from(">H", data, offset)
                offset += 2
                if offset + m_len > len(data):
                    raise SerializationError("truncated masked value")
                masked.append(data[offset : offset + m_len])
                offset += m_len
            return cls(z=z, masked=tuple(masked))
        except (IndexError, struct.error) as exc:
            raise SerializationError("truncated marker header") from exc

    def byte_size(self) -> int:
        return len(self.to_bytes())


class MarkerBgkm:
    """Core marker-scheme operations (policy-aware row interface)."""

    def __init__(
        self,
        hash_fn: Optional[HashFunction] = None,
        marker: bytes = DEFAULT_MARKER,
        key_len: int = 16,
        z_bytes: int = 16,
    ):
        self.hash_fn = hash_fn or default_hash()
        self.marker = marker
        self.key_len = key_len
        self.z_bytes = z_bytes
        # Section VIII-D restriction: key || marker must fit in one digest.
        if key_len + len(marker) > self.hash_fn.digest_size:
            raise InvalidParameterError(
                "key (%d) + marker (%d) exceed hash output (%d); "
                "the marker scheme cannot carry keys this long"
                % (key_len, len(marker), self.hash_fn.digest_size)
            )

    def _pad(self, css: Sequence[bytes], z: bytes) -> bytes:
        buf = bytearray()
        for part in css:
            buf += struct.pack(">I", len(part))
            buf += bytes(part)
        buf += struct.pack(">I", len(z))
        buf += z
        return self.hash_fn.digest(bytes(buf))[: self.key_len + len(self.marker)]

    def generate(
        self,
        rows: Sequence[Sequence[bytes]],
        rng: Optional[random.Random] = None,
        z: Optional[bytes] = None,
        key: Optional[bytes] = None,
    ) -> Tuple[bytes, MarkerHeader]:
        """One rekey: returns ``(key_bytes, header)``.

        ``z``/``key`` may be pinned by the caller -- used by the tests that
        demonstrate the nonce-reuse weakness the paper points out.
        """
        if key is None:
            if rng is not None:
                key = bytes(rng.randrange(256) for _ in range(self.key_len))
            else:
                key = secrets.token_bytes(self.key_len)
        if len(key) != self.key_len:
            raise InvalidParameterError("key must be %d bytes" % self.key_len)
        if z is None:
            if rng is not None:
                z = bytes(rng.randrange(256) for _ in range(self.z_bytes))
            else:
                z = secrets.token_bytes(self.z_bytes)
        plain = key + self.marker
        masked = tuple(
            bytes(a ^ b for a, b in zip(plain, self._pad(css, z))) for css in rows
        )
        return key, MarkerHeader(z=z, masked=masked)

    def derive(self, header: MarkerHeader, css: Sequence[bytes]) -> bytes:
        """Try all masked values; return the key whose marker matches."""
        pad = self._pad(css, header.z)
        for value in header.masked:
            if len(value) != len(pad):
                continue
            plain = bytes(a ^ b for a, b in zip(value, pad))
            if plain[self.key_len :] == self.marker:
                return plain[: self.key_len]
        raise KeyDerivationError("no masked value revealed the marker")


class MarkerBroadcastGkm(BroadcastGkm):
    """Flat-membership adapter for the benchmark sweeps."""

    name = "marker"

    def __init__(self, hash_fn: Optional[HashFunction] = None, key_len: int = 16):
        super().__init__()
        self._core = MarkerBgkm(hash_fn=hash_fn, key_len=key_len)

    def rekey(self, rng: Optional[random.Random] = None) -> Tuple[bytes, RekeyBroadcast]:
        rows = [(secret,) for _, secret in sorted(self._members.items())]
        key, header = self._core.generate(rows, rng=rng)
        return key, RekeyBroadcast(
            scheme=self.name, payload=header.to_bytes(), parts=header
        )

    def derive(self, secret: bytes, broadcast: RekeyBroadcast) -> bytes:
        header = (
            broadcast.parts
            if isinstance(broadcast.parts, MarkerHeader)
            else MarkerHeader.from_bytes(broadcast.payload)
        )
        return self._core.derive(header, (secret,))
