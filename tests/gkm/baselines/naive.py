"""The "simplistic approach" of Section VIII-B: per-member key delivery.

On every rekey the publisher encrypts the fresh group key *individually*
for every member under that member's long-lived secret and sends the
bundle.  Functionally correct, trivially secure -- and exactly the scheme
the paper's introduction rejects: the publisher must reach every member on
every key change, members accumulate one key per policy configuration, and
the "broadcast" degenerates into n unicasts.

The implementation still packages the n ciphertexts as one payload so the
benchmarks can compare bytes-on-the-wire and publisher compute uniformly.
"""

from __future__ import annotations

import random
import secrets
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.symmetric import SymmetricCipher, default_cipher
from repro.errors import DecryptionError, KeyDerivationError, SerializationError
from tests.gkm.baselines.base import BroadcastGkm, RekeyBroadcast

__all__ = ["NaiveGkm"]

_MAGIC = b"NKD1"


@dataclass(frozen=True)
class _NaiveHeader:
    envelopes: Tuple[bytes, ...]

    def to_bytes(self) -> bytes:
        out = bytearray(_MAGIC)
        out += struct.pack(">I", len(self.envelopes))
        for env in self.envelopes:
            out += struct.pack(">I", len(env))
            out += env
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "_NaiveHeader":
        try:
            if data[:4] != _MAGIC:
                raise SerializationError("bad magic")
            offset = 4
            (count,) = struct.unpack_from(">I", data, offset)
            offset += 4
            if count * 4 > len(data):
                raise SerializationError("envelope count exceeds payload")
            envelopes = []
            for _ in range(count):
                (e_len,) = struct.unpack_from(">I", data, offset)
                offset += 4
                if offset + e_len > len(data):
                    raise SerializationError("truncated envelope")
                envelopes.append(data[offset : offset + e_len])
                offset += e_len
            return cls(envelopes=tuple(envelopes))
        except (IndexError, struct.error) as exc:
            raise SerializationError("truncated naive header") from exc


class NaiveGkm(BroadcastGkm):
    """One encrypted copy of the key per member, per rekey."""

    name = "naive-delivery"

    def __init__(self, key_len: int = 16, cipher: Optional[SymmetricCipher] = None):
        super().__init__()
        self.key_len = key_len
        self.cipher = cipher or default_cipher()

    @property
    def unicast_count(self) -> int:
        """Number of point-to-point messages a rekey costs (= n)."""
        return len(self._members)

    def rekey(self, rng: Optional[random.Random] = None) -> Tuple[bytes, RekeyBroadcast]:
        if rng is not None:
            key = bytes(rng.randrange(256) for _ in range(self.key_len))
        else:
            key = secrets.token_bytes(self.key_len)
        envelopes = tuple(
            self.cipher.encrypt(secret, key)
            for _, secret in sorted(self._members.items())
        )
        header = _NaiveHeader(envelopes=envelopes)
        return key, RekeyBroadcast(
            scheme=self.name, payload=header.to_bytes(), parts=header
        )

    def derive(self, secret: bytes, broadcast: RekeyBroadcast) -> bytes:
        header = (
            broadcast.parts
            if isinstance(broadcast.parts, _NaiveHeader)
            else _NaiveHeader.from_bytes(broadcast.payload)
        )
        for envelope in header.envelopes:
            try:
                return self.cipher.decrypt(secret, envelope)
            except DecryptionError:
                continue
        raise KeyDerivationError("no envelope decrypted (not a member?)")
