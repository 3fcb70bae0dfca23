"""ACV-BGKM: broadcast group key management with access control vectors.

This is the paper's core contribution (Section V-C).  For one policy
configuration the publisher:

1. collects, for every access control policy ``acp_k`` and every subscriber
   qualified for it, the ordered tuple of CSS values ``(r_{i,1}..r_{i,m_k})``
   matching ``acp_k``'s conditions -- one *row* per (policy, subscriber);
2. draws one seed of :data:`SEED_BYTES` bytes; nonce ``z_j`` is
   ``seed || u32(j)`` (``j = 0..N-1``), so the 160-bit seed alone meets
   the paper's ``tau * N > 160`` bound (Section V-C); and forms the matrix
   ``A`` with rows ``(1, a_{i,1}, ..., a_{i,N})`` where
   ``a_{i,j} = H(r_{i,1} || ... || r_{i,m_k} || z_j) mod q``   (Eq. 2);
3. solves ``A Y = 0`` for a nonzero access control vector ``Y`` and
   publishes ``X = (K, 0, ..., 0)^T + Y`` together with the seed and the
   count ``N`` (the paper publishes the ``N`` nonces themselves).

A qualified subscriber recomputes its row -- the *key extraction vector*
``nu = (1, a_1, ..., a_N)`` -- and recovers ``K = nu . X``; everyone else
sees only uniformly random-looking values (Section VI-B).  Rekeying =
regenerate and re-publish; no unicast, no subscriber state change.
:meth:`AcvBgkm.generate` is that regeneration.  The publish path instead
carries the elimination across membership changes
(:class:`AcvFactorization`): a join extends it and a revoke removes rows
from it, keeping the seed and changing only the count.

The published vector is serialized with zero-run-length compression, which
reproduces the paper's Figure 5 behaviour (ACV size growing with the number
of *current* subscribers, not just with the capacity ``N``): choosing the
ACV as a combination of few null-space basis vectors keeps it sparse when
the matrix has few rows.
"""

from __future__ import annotations

import random
import secrets
import struct
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashes import HashFunction, default_hash, row_hasher
from repro.crypto.kdf import derive_key
from repro.errors import (
    CapacityError,
    GKMError,
    InvalidParameterError,
    KeyDerivationError,
    SerializationError,
)
from repro.mathx.field import PrimeField
from repro.mathx.linalg import Matrix, RrefFactorization
from repro.wire.codec import Cursor, Field, Record, magic, pack_scalar

__all__ = [
    "AcvHeader",
    "AcvBgkm",
    "AcvFactorization",
    "PAPER_FIELD",
    "FAST_FIELD",
    "GKM_FIELDS",
]

#: The paper's experiments use an 80-bit prime field for F_q.
PAPER_FIELD = PrimeField(604462909807314587353111, check_prime=False)
#: Word-sized field: elimination vectorises through the numpy kernel.
FAST_FIELD = PrimeField(1073741827, check_prime=False)
#: The fields a scenario file may name in its ``gkm_field`` setting.
GKM_FIELDS: Dict[str, PrimeField] = {"fast": FAST_FIELD, "paper": PAPER_FIELD}

#: The format tag every ACV keying header starts with.
ACV_MAGIC = b"ACV1"

#: Seed length: the nonces ``seed || u32(j)`` carry the paper's
#: ``tau * N > 160`` bits in the seed alone, and a header with a shorter
#: seed is refused.
SEED_BYTES = 20


def _draw_seed(rng: Optional[random.Random]) -> bytes:
    """A fresh nonce seed from ``rng`` (or the system CSPRNG)."""
    if rng is not None:
        return rng.getrandbits(8 * SEED_BYTES).to_bytes(SEED_BYTES, "big")
    return secrets.token_bytes(SEED_BYTES)


def _draw_field_key(p: int, rng: Optional[random.Random]) -> int:
    """A uniform element of ``F_p^*`` from ``rng`` (or the system CSPRNG)."""
    if rng is not None:
        return rng.randrange(1, p)
    return secrets.randbelow(p - 1) + 1


#: Element widths whose literal runs are read in one ``struct`` call: the
#: format code of that width.
_WIDE = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: The longest literal run the encoder writes.
_MAX_LITERAL = 0xFFFF


def _pack_body(value) -> bytes:
    """``q``, the seed, the count, then ``X`` as zero runs and literal runs."""
    q, seed, count, x = value
    q_raw = pack_scalar(q)
    out = [q_raw, struct.pack(">B", len(seed)), seed, struct.pack(">II", count, len(x))]
    for nonzero, run in groupby(x, bool):
        run = list(run)
        if not nonzero:
            out.append(b"\x00" + struct.pack(">I", len(run)))
            continue
        for i in range(0, len(run), _MAX_LITERAL):
            literal = run[i : i + _MAX_LITERAL]
            out.append(b"\x01" + struct.pack(">H", len(literal)))
            out.extend(v.to_bytes(len(q_raw) - 2, "big") for v in literal)
    return b"".join(out)


def _read_body(build: bool, cursor: Cursor, group):
    """``(q, seed, count, x)``, checked in one pass; unless ``build``, the
    same refusals and nothing decoded (the validate-only reader)."""
    data = cursor.data
    try:
        (q_len,) = struct.unpack_from(">H", data, cursor.offset)
        offset = cursor.offset + 2 + q_len
        if offset > cursor.end:
            raise SerializationError("truncated modulus")
        q = int.from_bytes(data[offset - q_len : offset], "big")
        # The modulus is attacker-controlled: q < 2 would make derive()
        # divide by zero (or reduce everything to 0) instead of failing
        # typed.  No valid field has such a modulus, so refuse at parse.
        if q < 2:
            raise SerializationError("modulus q=%d is not a valid field" % q)
        if data[offset - q_len] == 0:
            raise SerializationError("non-canonical modulus (leading zero byte)")
        seed_len = data[offset]
        offset += 1 + seed_len
        # A short seed falls below the paper's 160 bits of nonce; the
        # publisher always draws SEED_BYTES.
        if seed_len < SEED_BYTES:
            raise SerializationError("nonce seed shorter than %d bytes" % SEED_BYTES)
        seed_at = offset - seed_len
        n_z, n_x = struct.unpack_from(">II", data, offset)
        offset += 8
        # The count costs no payload bytes, yet it sizes X, the KEV and a
        # subscriber's memo: refuse any count no explicit-nonce header of
        # this length could have carried (one byte per nonce at least)
        # before anything is allocated.  A capacity-0 header only appears
        # forged (the publisher's capacity is at least 1).
        if n_z == 0:
            raise SerializationError("header must carry at least one nonce")
        if n_z > cursor.end:
            raise SerializationError(
                "nonce count %d exceeds the %d-byte header" % (n_z, cursor.end)
            )
        zero = bytes(q_len)
        literals: List[Tuple[int, int, int]] = []
        filled = 0
        previous = None  # 0: a zero run, 1: a short literal run, 2: a full one
        while filled < n_x:
            token = data[offset]
            if token == 0:
                (run,) = struct.unpack_from(">I", data, offset + 1)
                offset += 5
                if run == 0:
                    raise SerializationError("empty zero run")
                if previous == 0:
                    raise SerializationError("two zero runs in a row")
                if run > n_x - filled:
                    raise SerializationError("zero run exceeds X arity")
                filled += run
            elif token == 1:
                (count,) = struct.unpack_from(">H", data, offset + 1)
                offset += 3
                if count == 0:
                    raise SerializationError("empty literal run")
                if previous == 1:
                    raise SerializationError("short literal run split in two")
                end = offset + count * q_len
                if end > cursor.end:
                    raise SerializationError("literal run exceeds payload")
                if count > n_x - filled:
                    raise SerializationError("X over-run")
                # A zero element is q_len zero bytes at an element boundary;
                # honest literals rarely hold q_len zero bytes in a row at
                # all, so the byte search almost always ends at once.
                at = data.find(zero, offset, end)
                while at >= 0:
                    if (at - offset) % q_len == 0:
                        raise SerializationError("zero inside a literal run")
                    at = data.find(zero, at + 1, end)
                literals.append((filled, offset, count))
                filled += count
                offset = end
                token = 1 if count < _MAX_LITERAL else 2
            else:
                raise SerializationError("bad RLE token %d" % token)
            previous = token
        if offset > cursor.end:
            raise IndexError(offset)
    except (IndexError, struct.error) as exc:
        raise SerializationError("truncated ACV header") from exc
    # derive() refuses this arity too, but only after a subscriber has
    # filed a KEV memo under the header's seed.
    if n_x != n_z + 1:
        raise SerializationError(
            "X arity %d is not the nonce count plus one (%d)" % (n_x, n_z + 1)
        )
    cursor.offset = offset
    if not build:
        return None
    x = [0] * n_x
    wide = _WIDE.get(q_len)
    for at, offset, count in literals:
        if wide is not None:
            x[at : at + count] = struct.unpack_from(
                ">%d%s" % (count, wide), data, offset
            )
        else:
            x[at : at + count] = [
                int.from_bytes(data[i : i + q_len], "big")
                for i in range(offset, offset + count * q_len, q_len)
            ]
    return q, data[seed_at : seed_at + seed_len], n_z, tuple(x)


#: ``X``'s elements are as wide as ``q``'s encoding and there is one more
#: of them than the count, so ``q``, the seed, the count and ``X`` are one
#: grouped entry.
_BODY = Field(_pack_body, partial(_read_body, True), partial(_read_body, False))


@dataclass(frozen=True)
class AcvHeader(Record):
    """The public rekey payload ``(X, seed, N)`` broadcast with documents.

    The seed (a ``u8`` length, at least :data:`SEED_BYTES`) and the
    capacity ``N`` (a ``u32``) stand for the nonces ``seed || u32(j)``,
    ``j < N``.  ``X`` travels as zero runs (``0x00``, a ``u32`` length) and
    literal runs (``0x01``, a ``u16`` count, elements as wide as ``q``);
    only the encoder's own runs are accepted, so two accepted encodings
    are equal exactly when their headers are.  :meth:`byte_size` is the
    compressed size Figure 5 measures.
    """

    q: int
    x: Tuple[int, ...]
    seed: bytes
    #: The maximum-user parameter N: the number of nonces.
    capacity: int

    FIELDS = (((), magic(ACV_MAGIC)), (("q", "seed", "capacity", "x"), _BODY))

    @property
    def zs(self) -> Tuple[bytes, ...]:
        """The nonces ``seed || u32(j)`` the seed and count stand for."""
        return tuple(self.seed + struct.pack(">I", j) for j in range(self.capacity))


class AcvBgkm:
    """Publisher- and subscriber-side ACV-BGKM operations for one field."""

    def __init__(
        self,
        field: PrimeField = PAPER_FIELD,
        hash_fn: Optional[HashFunction] = None,
        compress_terms: Optional[int] = 1,
    ):
        """``compress_terms`` controls how many null-space basis vectors are
        mixed into the ACV: ``1`` (default) keeps it as sparse as the current
        membership allows (the paper's "compressed" broadcast); ``None``
        mixes all of them (dense)."""
        if compress_terms is not None and compress_terms < 1:
            raise InvalidParameterError("compress_terms must be >= 1 or None")
        self.field = field
        self.hash_fn = hash_fn or default_hash()
        self.compress_terms = compress_terms

    # -- publisher side -----------------------------------------------------

    def build_matrix(
        self, rows: Sequence[Sequence[bytes]], seed: bytes, capacity: int
    ) -> Matrix:
        """The matrix ``A`` of Section V-C.1 for given CSS rows and the
        ``capacity`` nonces of ``seed``."""
        q = self.field.p
        h = self.hash_fn
        data = []
        for css_tuple in rows:
            a = row_hasher(h, css_tuple, seed, q)
            data.append([1] + [a(j) for j in range(capacity)])
        return Matrix(self.field, data)

    def generate(
        self,
        rows: Sequence[Sequence[bytes]],
        n_max: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> Tuple[int, AcvHeader]:
        """Run one rekey: returns ``(K, header)`` with ``K`` uniform in
        ``F_q^*``.

        ``rows`` holds one CSS tuple per (policy, qualified subscriber)
        pair; ``n_max`` is the capacity ``N`` (defaults to ``len(rows)``,
        the tightest capacity Eq. 1 allows).
        """
        m = len(rows)
        n = n_max if n_max is not None else max(m, 1)
        if n < m:
            raise CapacityError(
                "capacity N=%d below the %d qualified rows (Eq. 1)" % (n, m)
            )
        seed = _draw_seed(rng)
        key = _draw_field_key(self.field.p, rng)

        if rows:
            matrix = self.build_matrix(rows, seed, n)
            basis = matrix.null_space()
        else:
            # No qualified subscriber: any nonzero vector is a valid ACV.
            basis = [
                tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n + 1)
            ]
        if not basis:
            raise GKMError("null space unexpectedly trivial")
        y = self._random_combination(basis, n + 1, rng)
        x = list(y)
        x[0] = (x[0] + key) % self.field.p
        return key, AcvHeader(q=self.field.p, x=tuple(x), seed=seed, capacity=n)

    def factorize(
        self, rows: Sequence[Sequence[bytes]], seed: bytes, capacity: int
    ) -> "AcvFactorization":
        """The carried elimination state for ``rows`` under the
        ``capacity`` nonces of ``seed``."""
        if len(rows) > capacity:
            raise CapacityError(
                "capacity N=%d below the %d qualified rows (Eq. 1)"
                % (capacity, len(rows))
            )
        if rows:
            rref = self.build_matrix(rows, seed, capacity).rref_factorization()
        else:
            rref = RrefFactorization(self.field, capacity + 1)
        return AcvFactorization(self, rows, seed, capacity, rref)

    def generate_with_factorization(
        self,
        rows: Sequence[Sequence[bytes]],
        n_max: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> Tuple[int, AcvHeader, "AcvFactorization"]:
        """:meth:`generate`, additionally returning the elimination state.

        Draw order (seed, key, combination coefficients) and the
        null-space basis (RREF is canonical) match :meth:`generate` exactly,
        so for the same seeded ``rng`` the header is byte-identical -- the
        factorization rides along for free, ready for later
        :meth:`AcvFactorization.extend` calls.
        """
        m = len(rows)
        n = n_max if n_max is not None else max(m, 1)
        if n < m:
            raise CapacityError(
                "capacity N=%d below the %d qualified rows (Eq. 1)" % (n, m)
            )
        seed = _draw_seed(rng)
        key = _draw_field_key(self.field.p, rng)
        fact = self.factorize(rows, seed, n)
        key, header = self.rekey_from_factorization(fact, rng, key)
        return key, header, fact

    def rekey_from_factorization(
        self,
        fact: "AcvFactorization",
        rng: Optional[random.Random] = None,
        key: Optional[int] = None,
    ) -> Tuple[int, AcvHeader]:
        """Publish a fresh ``(K, header)`` from a maintained factorization.

        The expensive part -- the null space of the access matrix -- is
        already carried by ``fact``; this only draws a key (unless the
        caller supplies one for a shared-key bucket group) and a fresh
        random combination, mirroring the tail of :meth:`generate`.
        """
        p = self.field.p
        if key is None:
            key = _draw_field_key(p, rng)
        y = self._random_combination(fact.null_basis(), fact.capacity + 1, rng)
        x = list(y)
        x[0] = (x[0] + key) % p
        header = AcvHeader(q=p, x=tuple(x), seed=fact.seed, capacity=fact.capacity)
        return key, header

    def _random_combination(
        self,
        basis: Sequence[Tuple[int, ...]],
        width: int,
        rng: Optional[random.Random],
    ) -> List[int]:
        """A random nonzero combination of (a subset of) the basis."""
        p = self.field.p
        if self.compress_terms is not None and len(basis) > self.compress_terms:
            if rng is not None:
                chosen = rng.sample(range(len(basis)), self.compress_terms)
            else:
                sysrand = random.SystemRandom()
                chosen = sysrand.sample(range(len(basis)), self.compress_terms)
            basis = [basis[i] for i in chosen]
        while True:
            if rng is not None:
                coeffs = [rng.randrange(1, p) for _ in basis]
            else:
                coeffs = [secrets.randbelow(p - 1) + 1 for _ in basis]
            y = [0] * width
            for c, b in zip(coeffs, basis):
                for j, bj in enumerate(b):
                    if bj:
                        y[j] = (y[j] + c * bj) % p
            if any(y):
                return y

    # -- subscriber side -----------------------------------------------------

    def key_extraction_vector(
        self,
        header: AcvHeader,
        css: Sequence[bytes],
        memo: Optional[List[Optional[int]]] = None,
    ) -> Tuple[int, ...]:
        """The subscriber's KEV ``(1, a_1, ..., a_N)`` for its CSS tuple.

        Entries multiplying a zero coordinate of ``X`` are skipped (left 0),
        which both mirrors the compressed broadcast and speeds derivation.

        ``memo`` is the caller's record of the Eq. 2 values it already
        holds for exactly this ``(css, header.q, header.seed)``: one slot
        per nonce, ``None`` where ``a_j`` was never needed.  Known slots are
        used as they are and the ones computed here are written back, so
        the same header seen again costs no hash at all.  This object
        keeps no such record itself -- Figure 4 times :meth:`derive` in a
        loop on one instance and must keep measuring N hashes -- and
        whether a memo still belongs to a header is the caller's decision
        (:class:`~repro.system.subscriber.Subscriber` compares seeds).

        The arity/modulus checks live here (not only in :meth:`derive`)
        because the bucketed candidate scan calls this directly with
        attacker-influenced headers: a short ``X`` must fail typed, not
        with a bare ``IndexError``.
        """
        if len(header.x) != header.capacity + 1:
            raise KeyDerivationError("header X has wrong arity")
        if header.q < 2:
            raise KeyDerivationError("header modulus is not a valid field")
        if memo is None:
            memo = [None] * header.capacity
        elif len(memo) != header.capacity:
            raise InvalidParameterError("KEV memo does not match the header")
        kev = [a if x_j else 0 for a, x_j in zip(memo, header.x[1:])]
        if None in kev:
            a = row_hasher(self.hash_fn, css, header.seed, header.q)
            for j, value in enumerate(kev):
                if value is None:
                    kev[j] = memo[j] = a(j)
        return (1, *kev)

    def derive(
        self,
        header: AcvHeader,
        css: Sequence[bytes],
        memo: Optional[List[Optional[int]]] = None,
    ) -> int:
        """Derive ``K = KEV . X`` (Section V-C "Decryption Key Derivation").

        The result is only the *correct* key when the CSS tuple matches a
        qualified row; otherwise it is an unpredictable field element --
        callers detect failure through authenticated decryption.
        ``memo`` is passed through to :meth:`key_extraction_vector`.
        """
        q = header.q
        kev = self.key_extraction_vector(header, css, memo)
        return sum(a * b for a, b in zip(kev, header.x)) % q

    def export_key(self, key: int, key_len: int = 16) -> bytes:
        """Map the group key ``K in F_q`` to symmetric key bytes."""
        raw = key.to_bytes(self.field.byte_length, "big")
        return derive_key(raw, key_len, info=b"repro/acv-bgkm/doc-key")


class AcvFactorization:
    """Carried elimination state of one configuration (or one bucket).

    Bundles the CSS rows (in matrix feed order), the nonce seed and count,
    and a tracked :class:`~repro.mathx.linalg.RrefFactorization` of the
    access matrix ``A``, so a membership *join* -- a pure row/column
    extension -- costs ``O(m^2)`` instead of the ``O(m^3)`` from-scratch
    elimination.

    A revoke runs the other way: :meth:`remove` takes the dead rows out of
    the carried state and cuts the count back to the Eq.-1 capacity, with
    no hashing and no elimination.  Either way the seed stays: nonce ``j``
    is ``seed || u32(j)``, so growth appends nonces and a cut drops the
    trailing ones.

    Security envelope: reusing the nonces across an extension is safe
    precisely because a join only ever *adds* rows -- every previously
    qualified CSS tuple stays qualified, and no tuple loses entitlement.
    Reusing them across a removal is safe because the next header draws
    a fresh combination from the null space of the *surviving* rows only:
    a removed row is no longer annihilated, so its KEV yields ``K'`` plus
    a fresh random multiple of a value it cannot predict.  A join that
    grows the count back over indices a removed row already hashed is
    the same column set a fresh extension would add, and the same
    argument holds.  Callers never serve a vector built before the
    removal (``AcvBuildCache.note_revoke``), and the bucketed strategy,
    whose buckets share ``K``, re-solves instead (DESIGN.md, "GKM
    strategies").
    """

    __slots__ = ("_core", "rows", "seed", "capacity", "_rref", "_basis")

    def __init__(
        self,
        core: AcvBgkm,
        rows: Sequence[Sequence[bytes]],
        seed: bytes,
        capacity: int,
        rref: RrefFactorization,
    ):
        self._core = core
        self.rows: List[Tuple[bytes, ...]] = [tuple(r) for r in rows]
        self.seed = seed
        #: The maximum-user parameter N: the number of nonces.
        self.capacity = capacity
        self._rref = rref
        self._basis: Optional[List[Tuple[int, ...]]] = None

    def extend(
        self, new_rows: Sequence[Sequence[bytes]], added_capacity: int = 0
    ) -> None:
        """Fold a join in: grow the count by ``added_capacity`` nonces of
        the same seed, then reduce each new CSS row against the carried
        pivots.

        Each appended nonce contributes one new matrix column mapped
        through the carried row transform; each new row then costs one
        reduction pass.  Existing rows, nonces, and the annihilation
        property for every old row are untouched.
        """
        if added_capacity < 0:
            raise InvalidParameterError("negative capacity extension")
        total = len(self.rows) + len(new_rows)
        capacity = self.capacity + added_capacity
        if total > capacity:
            raise CapacityError(
                "capacity N=%d below the %d qualified rows (Eq. 1)"
                % (capacity, total)
            )
        q = self._core.field.p
        h = self._core.hash_fn
        if added_capacity:
            hashers = [row_hasher(h, row, self.seed, q) for row in self.rows]
            for j in range(self.capacity, capacity):
                self._rref.extend_column([a(j) for a in hashers])
        self.capacity = capacity
        for row in new_rows:
            a = row_hasher(h, row, self.seed, q)
            self._rref.extend_row([1] + [a(j) for j in range(capacity)])
            self.rows.append(tuple(row))
        self._basis = None

    def remove(self, dead: Sequence[int], n_max: int) -> bool:
        """Fold a revoke in, the inverse of :meth:`extend`: drop the rows at
        indices ``dead`` (feed order), then keep the first ``n_max`` nonces.

        No row is hashed and nothing is eliminated: each removal is one
        :meth:`~repro.mathx.linalg.RrefFactorization.remove_row`, and the
        cut drops matrix columns the removals freed.  The state then
        equals :meth:`AcvBgkm.factorize` of the surviving rows under the
        same seed at ``n_max``, so the header has the byte length of a
        fresh solve at ``n_max``.  Refused (False) when a dropped column
        is a pivot (the rows are removed by then, so the state is spent);
        the caller then re-solves.
        """
        dead = sorted(set(dead), reverse=True)
        if n_max > self.capacity:
            raise InvalidParameterError("remove() cannot grow the capacity")
        if n_max < len(self.rows) - len(dead):
            raise CapacityError(
                "capacity N=%d below the %d qualified rows (Eq. 1)"
                % (n_max, len(self.rows) - len(dead))
            )
        for index in dead:
            self._rref.remove_row(index)
            del self.rows[index]
        self._basis = None
        if not self._rref.truncate(n_max + 1):
            return False
        self.capacity = n_max
        return True

    def null_basis(self) -> List[Tuple[int, ...]]:
        """The null-space basis of the carried matrix (cached per state)."""
        if self._basis is None:
            basis = self._rref.null_space()
            if not basis:
                raise GKMError("null space unexpectedly trivial")
            self._basis = basis
        return self._basis
