"""Access control polynomial (ACP) baseline (Zou, Dai & Bertino [14]).

The publisher encodes the group key in a polynomial over ``F_q``:

    ``P(x) = prod_{i in members} (x - H(s_i || z)) + K``

and broadcasts ``(z, coefficients of P)``.  A member evaluates ``P`` at
its personal point ``x_i = H(s_i || z)`` and reads off ``K``; an outsider
evaluates at a non-root and obtains a random-looking element.

The paper's related-work section notes that these "special polynomials"
are a vanishingly small subset of all degree-n polynomials and that the
scheme's security "is neither fully analyzed nor proven"; it serves here
as the O(n)-broadcast baseline with O(n^2) publisher cost (incremental
product construction).
"""

from __future__ import annotations

import random
import secrets
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto.hashes import HashFunction, default_hash, hash_concat
from repro.crypto.kdf import derive_key
from repro.errors import KeyDerivationError, SerializationError
from repro.mathx.field import PrimeField
from tests.gkm.baselines.base import BroadcastGkm, RekeyBroadcast

__all__ = ["AcPolyGkm"]

_MAGIC = b"ACP1"

_DEFAULT_FIELD = PrimeField(
    170141183460469231731687303715884105757, check_prime=False
)  # 128-bit


@dataclass(frozen=True)
class _PolyHeader:
    z: bytes
    coeffs: Tuple[int, ...]  # low-degree first

    def to_bytes(self, elem_len: int) -> bytes:
        out = bytearray(_MAGIC)
        out += struct.pack(">H", len(self.z))
        out += self.z
        out += struct.pack(">IH", len(self.coeffs), elem_len)
        for c in self.coeffs:
            out += c.to_bytes(elem_len, "big")
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "_PolyHeader":
        try:
            if data[:4] != _MAGIC:
                raise SerializationError("bad magic")
            offset = 4
            (z_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            z = data[offset : offset + z_len]
            offset += z_len
            count, elem_len = struct.unpack_from(">IH", data, offset)
            offset += 6
            if count * max(elem_len, 1) > len(data):
                raise SerializationError("coefficient count exceeds payload")
            coeffs = []
            for _ in range(count):
                if offset + elem_len > len(data):
                    raise SerializationError("truncated coefficient")
                coeffs.append(int.from_bytes(data[offset : offset + elem_len], "big"))
                offset += elem_len
            return cls(z=z, coeffs=tuple(coeffs))
        except (IndexError, struct.error) as exc:
            raise SerializationError("truncated ACP header") from exc


class AcPolyGkm(BroadcastGkm):
    """The access-control-polynomial baseline."""

    name = "ac-polynomial"

    def __init__(
        self,
        field: PrimeField = _DEFAULT_FIELD,
        hash_fn: Optional[HashFunction] = None,
        key_len: int = 16,
    ):
        super().__init__()
        self.field = field
        self.hash_fn = hash_fn or default_hash()
        self.key_len = key_len

    def _point(self, secret: bytes, z: bytes) -> int:
        return hash_concat(self.hash_fn, [secret, z], self.field.p)

    def rekey(self, rng: Optional[random.Random] = None) -> Tuple[bytes, RekeyBroadcast]:
        p = self.field.p
        if rng is not None:
            key_int = rng.randrange(1, p)
            z = bytes(rng.randrange(256) for _ in range(16))
        else:
            key_int = secrets.randbelow(p - 1) + 1
            z = secrets.token_bytes(16)
        # Incrementally build prod (x - x_i); low-degree-first coefficients.
        coeffs: List[int] = [1]
        for _, secret in sorted(self._members.items()):
            root = self._point(secret, z)
            # Multiply by (x - root).
            new = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] = (new[i + 1] + c) % p
                new[i] = (new[i] - c * root) % p
            coeffs = new
        coeffs[0] = (coeffs[0] + key_int) % p
        header = _PolyHeader(z=z, coeffs=tuple(coeffs))
        key = self._export(key_int)
        return key, RekeyBroadcast(
            scheme=self.name,
            payload=header.to_bytes(self.field.byte_length),
            parts=header,
        )

    def derive(self, secret: bytes, broadcast: RekeyBroadcast) -> bytes:
        header = (
            broadcast.parts
            if isinstance(broadcast.parts, _PolyHeader)
            else _PolyHeader.from_bytes(broadcast.payload)
        )
        p = self.field.p
        x = self._point(secret, header.z)
        acc = 0
        for c in reversed(header.coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            raise KeyDerivationError("evaluated to zero (not a member?)")
        return self._export(acc)

    def _export(self, key_int: int) -> bytes:
        raw = key_int.to_bytes(self.field.byte_length, "big")
        return derive_key(raw, self.key_len, info=b"repro/acp/doc-key")
