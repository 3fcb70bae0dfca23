"""Secure lock (Chiou & Chen 1989, reference [19]): CRT-based rekeying.

Every member ``i`` holds a private prime modulus ``N_i`` and a secret
``s_i``.  To rekey, the publisher masks the key for each member as
``R_i = K xor PRF(s_i, nonce)`` and broadcasts the single *lock*

    ``L = CRT(R_1 mod N_1, ..., R_n mod N_n)``

A member recovers ``K = (L mod N_i) xor PRF(s_i, nonce)``.

The paper's related-work section notes why this loses to ACV-BGKM at
scale: the lock is a number of ``sum_i log2 N_i`` bits and the CRT
computation grows quadratically with the member count -- which is exactly
what the ablation benchmark shows.
"""

from __future__ import annotations

import random
import secrets
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.crypto.mac import hmac_digest
from repro.errors import KeyDerivationError, SerializationError
from repro.mathx.modular import crt
from repro.mathx.primes import random_prime
from tests.gkm.baselines.base import BroadcastGkm, RekeyBroadcast

__all__ = ["SecureLockGkm"]

_MAGIC = b"SLK1"


@dataclass(frozen=True)
class _LockHeader:
    nonce: bytes
    lock: int

    def to_bytes(self) -> bytes:
        lock_raw = self.lock.to_bytes((self.lock.bit_length() + 7) // 8 or 1, "big")
        return (
            _MAGIC
            + struct.pack(">H", len(self.nonce))
            + self.nonce
            + struct.pack(">I", len(lock_raw))
            + lock_raw
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "_LockHeader":
        try:
            if data[:4] != _MAGIC:
                raise SerializationError("bad magic")
            offset = 4
            (n_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            nonce = data[offset : offset + n_len]
            offset += n_len
            (l_len,) = struct.unpack_from(">I", data, offset)
            offset += 4
            lock = int.from_bytes(data[offset : offset + l_len], "big")
            return cls(nonce=nonce, lock=lock)
        except (IndexError, struct.error) as exc:
            raise SerializationError("truncated lock header") from exc


class SecureLockGkm(BroadcastGkm):
    """The CRT secure-lock baseline.

    A member's ``secret`` doubles as PRF key; the per-member modulus is
    derived deterministically from the secret (a random prime seeded by
    it), so the flat ``derive(secret, broadcast)`` interface suffices.
    """

    name = "secure-lock"

    def __init__(self, key_len: int = 16, modulus_bits: int = 160):
        super().__init__()
        if 8 * (modulus_bits // 8) <= key_len * 8:
            raise SerializationError("modulus must exceed key length")
        self.key_len = key_len
        self.modulus_bits = modulus_bits
        self._moduli: Dict[str, int] = {}

    # -- helpers -----------------------------------------------------------

    def _modulus_for(self, secret: bytes) -> int:
        """Per-member prime modulus derived from the member secret."""
        seed = int.from_bytes(
            hmac_digest(secret, b"repro/secure-lock/modulus"), "big"
        )
        return random_prime(self.modulus_bits, random.Random(seed))

    def _mask(self, secret: bytes, nonce: bytes) -> int:
        pad = hmac_digest(secret, b"repro/secure-lock/pad" + nonce)[: self.key_len]
        return int.from_bytes(pad, "big")

    def _on_join(self, member_id: str, secret: bytes) -> None:
        self._moduli[member_id] = self._modulus_for(secret)

    def _on_leave(self, member_id: str) -> None:
        self._moduli.pop(member_id, None)

    # -- keying -------------------------------------------------------------

    def rekey(self, rng: Optional[random.Random] = None) -> Tuple[bytes, RekeyBroadcast]:
        if rng is not None:
            key = bytes(rng.randrange(256) for _ in range(self.key_len))
            nonce = bytes(rng.randrange(256) for _ in range(16))
        else:
            key = secrets.token_bytes(self.key_len)
            nonce = secrets.token_bytes(16)
        key_int = int.from_bytes(key, "big")
        residues = []
        moduli = []
        for member_id, secret in sorted(self._members.items()):
            residues.append(key_int ^ self._mask(secret, nonce))
            moduli.append(self._moduli[member_id])
        if moduli:
            lock, _ = crt(residues, moduli)
        else:
            lock = 0
        header = _LockHeader(nonce=nonce, lock=lock)
        return key, RekeyBroadcast(
            scheme=self.name, payload=header.to_bytes(), parts=header
        )

    def derive(self, secret: bytes, broadcast: RekeyBroadcast) -> bytes:
        header = (
            broadcast.parts
            if isinstance(broadcast.parts, _LockHeader)
            else _LockHeader.from_bytes(broadcast.payload)
        )
        modulus = self._modulus_for(secret)
        residue = header.lock % modulus
        key_int = residue ^ self._mask(secret, header.nonce)
        if key_int.bit_length() > 8 * self.key_len:
            raise KeyDerivationError("residue out of key range (not a member?)")
        return key_int.to_bytes(self.key_len, "big")
