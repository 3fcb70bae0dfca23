"""AES block cipher (FIPS-197), implemented from first principles.

The S-box is *derived* at import time from the GF(2^8) multiplicative
inverse followed by the affine transform, rather than pasted as a table, so
the construction is auditable; known-answer tests in the suite pin the
result to the FIPS-197 vectors.

Only the raw 16-byte block transform lives here; chaining modes are in
:mod:`repro.crypto.modes`.

There are exactly two forward paths.  :meth:`AES.encrypt_block` is the
byte-list reference: one block, every FIPS-197 step spelled out, the path
the known-answer tests, CBC and :meth:`AES.decrypt_block` use.
:meth:`AES.encrypt_counter_blocks` is the bulk path behind CTR mode: it
runs *n* consecutive counter blocks through the same rounds as one numpy
``(n, 16)`` matrix with SubBytes and MixColumns folded into four 256-entry
word tables.  A property test pins the two equal.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Sequence

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["AES"]


def _gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple:
    """Compute the AES S-box from inversion + affine map."""
    # Build the inverse table via exp/log over the generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inv(a: int) -> int:
        return 0 if a == 0 else exp[255 - log[a]]

    sbox = [0] * 256
    for a in range(256):
        b = inv(a)
        # affine transform: b ^ rotl1(b) ^ rotl2(b) ^ rotl3(b) ^ rotl4(b) ^ 0x63
        r = b
        for shift in range(1, 5):
            r ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[a] = r ^ 0x63
    inv_sbox = [0] * 256
    for a, s in enumerate(sbox):
        inv_sbox[s] = a
    return tuple(sbox), tuple(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

# Precomputed GF(2^8) multiplication tables for MixColumns.
_MUL2 = tuple(_gf_mul(x, 2) for x in range(256))
_MUL3 = tuple(_gf_mul(x, 3) for x in range(256))
_MUL9 = tuple(_gf_mul(x, 9) for x in range(256))
_MUL11 = tuple(_gf_mul(x, 11) for x in range(256))
_MUL13 = tuple(_gf_mul(x, 13) for x in range(256))
_MUL14 = tuple(_gf_mul(x, 14) for x in range(256))

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8)

_ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}

# -- tables of the bulk kernel -------------------------------------------------
#
# The state is ``state[r + 4c]`` (column-major), so one little-endian 32-bit
# word is one column with row 0 in its low byte.  ``_ROUND_TABLES[r][x]`` is
# the column MixColumns produces from a column that holds ``SubBytes(x)`` in
# row ``r`` and zeros elsewhere; a full round is then four look-ups and three
# XORs per column.  The dtypes name their byte order, so viewing words as
# bytes gives the same 16 bytes on any host.


def _build_round_tables() -> tuple:
    sub = np.array(_SBOX, dtype=np.uint32)
    # Rows of the MixColumns matrix: out_row = XOR_r coeff[out_row][r] * a_r.
    by_coeff = {
        1: sub,
        2: np.array(_MUL2, dtype=np.uint32)[sub],
        3: np.array(_MUL3, dtype=np.uint32)[sub],
    }
    mix = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
    tables = []
    for r in range(4):
        word = np.zeros(256, dtype=np.uint32)
        for out_row in range(4):
            word |= by_coeff[mix[out_row][r]] << np.uint32(8 * out_row)
        tables.append(word.astype("<u4"))
    return tuple(tables)


_ROUND_TABLES = _build_round_tables()
_SBOX_BYTES = np.array(_SBOX, dtype=np.uint8)
# ShiftRows as a gather: output byte ``r + 4c`` reads input ``r + 4((c+r)%4)``.
_SHIFT_ROWS = np.array([r + 4 * ((c + r) % 4) for c in range(4) for r in range(4)])
# The same gather with the output laid out row-major, so ``[:, r]`` of the
# reshaped ``(n, 4, 4)`` result is the four row-``r`` bytes, one per column.
_SHIFT_ROWS_BY_ROW = _SHIFT_ROWS.reshape(4, 4).T.ravel()
# Blocks per kernel pass: bounds the temporaries (about 100 bytes per block)
# and keeps them cache-resident however long the keystream is.
_KERNEL_PASS_BLOCKS = 4096


class AES:
    """AES-128/192/256 raw block cipher.

    >>> cipher = AES(bytes(range(16)))
    >>> block = cipher.encrypt_block(bytes(16))
    >>> cipher.decrypt_block(block) == bytes(16)
    True
    """

    block_size = 16

    def __init__(self, key: bytes):
        if len(key) not in _ROUNDS_BY_KEYLEN:
            raise InvalidParameterError(
                "AES key must be 16/24/32 bytes, got %d" % len(key)
            )
        self.key_size = len(key)
        self.rounds = _ROUNDS_BY_KEYLEN[len(key)]
        self._round_keys = self._expand_key(key)

    # -- key schedule --------------------------------------------------------

    def _expand_key(self, key: bytes) -> List[List[int]]:
        nk = len(key) // 4
        total_words = 4 * (self.rounds + 1)
        words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, total_words):
            temp = words[i - 1][:]
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [_SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]  # AES-256 extra Sub
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        # Group into 16-byte round keys (column-major state order).
        round_keys = []
        for r in range(self.rounds + 1):
            rk = []
            for c in range(4):
                rk.extend(words[4 * r + c])
            round_keys.append(rk)
        return round_keys

    @cached_property
    def _round_key_bytes(self) -> np.ndarray:
        """The schedule as ``(rounds + 1, 16)`` bytes, built on first bulk
        use: a key that only ever meets one-block envelopes never pays."""
        return np.array(self._round_keys, dtype=np.uint8)

    # -- block transforms ------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise InvalidParameterError("block must be 16 bytes")
        s = [b ^ k for b, k in zip(block, self._round_keys[0])]
        for rnd in range(1, self.rounds):
            s = self._encrypt_round(s, self._round_keys[rnd])
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        s = [_SBOX[b] for b in s]
        s = self._shift_rows(s)
        rk = self._round_keys[self.rounds]
        return bytes(b ^ k for b, k in zip(s, rk))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != 16:
            raise InvalidParameterError("block must be 16 bytes")
        s = [b ^ k for b, k in zip(block, self._round_keys[self.rounds])]
        s = self._inv_shift_rows(s)
        s = [_INV_SBOX[b] for b in s]
        for rnd in range(self.rounds - 1, 0, -1):
            rk = self._round_keys[rnd]
            s = [b ^ k for b, k in zip(s, rk)]
            s = self._inv_mix_columns(s)
            s = self._inv_shift_rows(s)
            s = [_INV_SBOX[b] for b in s]
        rk = self._round_keys[0]
        return bytes(b ^ k for b, k in zip(s, rk))

    def encrypt_counter_blocks(self, counter: int, count: int) -> bytes:
        """Encrypt ``count`` consecutive 128-bit big-endian counter blocks.

        Returns the ``16 * count`` bytes ``encrypt_block(counter) ||
        encrypt_block(counter + 1) || ...`` with the counter taken modulo
        2**128 -- the CTR keystream -- computed for all blocks at once.
        """
        if count < 0:
            raise InvalidParameterError("block count must be >= 0")
        return b"".join(
            self._encrypt_counters(
                counter + start, min(_KERNEL_PASS_BLOCKS, count - start)
            ).tobytes()
            for start in range(0, count, _KERNEL_PASS_BLOCKS)
        )

    def _encrypt_counters(self, counter: int, n: int) -> np.ndarray:
        """One kernel pass: the ``(n, 16)`` byte matrix of ciphertext blocks."""
        # The counter as two big-endian 64-bit words.  uint64 arithmetic
        # wraps, so a low word below the first one marks a block past the
        # 2**64 boundary (a pass crosses at most one); the carry it adds to
        # the high word wraps in turn, which is the counter's 2**128 wrap.
        high, low = divmod(counter % (1 << 128), 1 << 64)
        low_words = np.arange(n, dtype=np.uint64) + np.uint64(low)
        blocks = np.empty((n, 2), dtype=">u8")
        blocks[:, 0] = (low_words < np.uint64(low)) + np.uint64(high)
        blocks[:, 1] = low_words
        state = blocks.view(np.uint8)

        t0, t1, t2, t3 = _ROUND_TABLES
        round_keys = self._round_key_bytes
        round_words = round_keys.view("<u4")
        state ^= round_keys[0]
        for rnd in range(1, self.rounds):
            rows = state.take(_SHIFT_ROWS_BY_ROW, axis=1).reshape(n, 4, 4)
            # Indices are bytes, the tables have 256 entries: no bounds check.
            columns = t0.take(rows[:, 0], mode="clip")
            columns ^= t1.take(rows[:, 1], mode="clip")
            columns ^= t2.take(rows[:, 2], mode="clip")
            columns ^= t3.take(rows[:, 3], mode="clip")
            columns ^= round_words[rnd]
            state = columns.view(np.uint8)
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        state = _SBOX_BYTES.take(state.take(_SHIFT_ROWS, axis=1), mode="clip")
        state ^= round_keys[self.rounds]
        return state

    # -- round helpers (state is a 16-list in column-major order) -------------

    def _encrypt_round(self, s: Sequence[int], rk: Sequence[int]) -> List[int]:
        s = [_SBOX[b] for b in s]
        s = self._shift_rows(s)
        s = self._mix_columns(s)
        return [b ^ k for b, k in zip(s, rk)]

    # fmt: off
    @staticmethod
    def _shift_rows(s: Sequence[int]) -> List[int]:
        # state[r + 4c]; row r rotates left by r.
        return [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]

    @staticmethod
    def _inv_shift_rows(s: Sequence[int]) -> List[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]
    # fmt: on

    @staticmethod
    def _mix_columns(s: Sequence[int]) -> List[int]:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            out[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            out[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            out[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
        return out

    @staticmethod
    def _inv_mix_columns(s: Sequence[int]) -> List[int]:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out
