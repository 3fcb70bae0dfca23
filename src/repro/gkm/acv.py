"""ACV-BGKM: broadcast group key management with access control vectors.

This is the paper's core contribution (Section V-C).  For one policy
configuration the publisher:

1. collects, for every access control policy ``acp_k`` and every subscriber
   qualified for it, the ordered tuple of CSS values ``(r_{i,1}..r_{i,m_k})``
   matching ``acp_k``'s conditions -- one *row* per (policy, subscriber);
2. draws nonces ``z_1..z_N`` (``tau * N > 160`` bits total, Section V-C) and
   forms the matrix ``A`` with rows ``(1, a_{i,1}, ..., a_{i,N})`` where
   ``a_{i,j} = H(r_{i,1} || ... || r_{i,m_k} || z_j) mod q``   (Eq. 2);
3. solves ``A Y = 0`` for a nonzero access control vector ``Y`` and
   publishes ``X = (K, 0, ..., 0)^T + Y`` together with the nonces.

A qualified subscriber recomputes its row -- the *key extraction vector*
``nu = (1, a_1, ..., a_N)`` -- and recovers ``K = nu . X``; everyone else
sees only uniformly random-looking values (Section VI-B).  Rekeying =
regenerate and re-publish; no unicast, no subscriber state change.

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
from typing import List, Optional, Sequence, Tuple

from repro.crypto.hashes import HashFunction, default_hash, row_hasher
from repro.crypto.kdf import derive_key
from repro.errors import (
    CapacityError,
    GKMError,
    InvalidParameterError,
    KeyDerivationError,
    SerializationError,
)
from repro.gkm.base import BroadcastGkm, RekeyBroadcast
from repro.mathx.field import PrimeField
from repro.mathx.linalg import Matrix, RrefFactorization

__all__ = [
    "AcvHeader",
    "AcvBgkm",
    "AcvBroadcastGkm",
    "AcvFactorization",
    "PAPER_FIELD",
    "FAST_FIELD",
]

#: The paper's experiments use an 80-bit prime field for F_q.
PAPER_FIELD = PrimeField(604462909807314587353111, check_prime=False)
#: Word-sized field: elimination vectorises through the numpy kernel.
FAST_FIELD = PrimeField(1073741827, check_prime=False)

_MAGIC = b"ACV1"


def _auto_z_bytes(n: int) -> int:
    """Nonce width: the paper requires ``tau * N > 160`` bits in total.

    We additionally floor the width at 4 bytes so individual nonces stay
    collision-free up to tens of thousands of columns -- duplicate nonces
    are harmless for correctness but would make matrix columns coincide,
    distorting the size/derivation profile the benchmarks measure.
    """
    return max(4, -(-168 // (8 * max(n, 1))))


def _draw_nonces(
    count: int, width: int, rng: Optional[random.Random]
) -> Tuple[bytes, ...]:
    """``count`` nonces of ``width`` bytes, in the canonical draw order.

    Shared by :meth:`AcvBgkm.generate` and the incremental extension path so
    a seeded ``rng`` produces the same stream either way.
    """
    if rng is not None:
        return tuple(
            bytes(rng.randrange(256) for _ in range(width)) for _ in range(count)
        )
    return tuple(secrets.token_bytes(width) for _ in range(count))


def _draw_field_key(p: int, rng: Optional[random.Random]) -> int:
    """A uniform element of ``F_p^*`` from ``rng`` (or the system CSPRNG)."""
    if rng is not None:
        return rng.randrange(1, p)
    return secrets.randbelow(p - 1) + 1


@dataclass(frozen=True)
class AcvHeader:
    """The public rekey payload ``(X, z_1..z_N)`` broadcast with documents."""

    q: int
    x: Tuple[int, ...]
    zs: Tuple[bytes, ...]

    @property
    def capacity(self) -> int:
        """The maximum-user parameter N."""
        return len(self.zs)

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical wire encoding with zero-run-length compressed ``X``."""
        q_raw = self.q.to_bytes((self.q.bit_length() + 7) // 8, "big")
        z_len = len(self.zs[0]) if self.zs else 0
        out = bytearray()
        out += _MAGIC
        out += struct.pack(">H", len(q_raw))
        out += q_raw
        out += struct.pack(">IH", len(self.zs), z_len)
        for z in self.zs:
            if len(z) != z_len:
                raise SerializationError("inconsistent nonce lengths")
            out += z
        elem_len = len(q_raw)
        i = 0
        n = len(self.x)
        out += struct.pack(">I", n)
        while i < n:
            if self.x[i] == 0:
                run = i
                while run < n and self.x[run] == 0:
                    run += 1
                out += b"\x00" + struct.pack(">I", run - i)
                i = run
            else:
                run = i
                while run < n and self.x[run] != 0 and run - i < 0xFFFF:
                    run += 1
                out += b"\x01" + struct.pack(">H", run - i)
                for j in range(i, run):
                    out += self.x[j].to_bytes(elem_len, "big")
                i = run
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AcvHeader":
        """Parse :meth:`to_bytes` output."""
        try:
            if data[:4] != _MAGIC:
                raise SerializationError("bad magic")
            offset = 4
            (q_len,) = struct.unpack_from(">H", data, offset)
            offset += 2
            q = int.from_bytes(data[offset : offset + q_len], "big")
            offset += q_len
            # The modulus is attacker-controlled: q < 2 would make derive()
            # divide by zero (or reduce everything to 0) instead of failing
            # typed.  No valid field has such a modulus, so refuse at parse.
            if q < 2:
                raise SerializationError("modulus q=%d is not a valid field" % q)
            n_z, z_len = struct.unpack_from(">IH", data, offset)
            offset += 6
            # Zero-width (or absent) nonces would collapse every matrix
            # column into the same hash; the publisher never emits them
            # (z_bytes >= 4, capacity >= 1), so they only appear in hostile
            # headers.
            if n_z == 0 or z_len == 0:
                raise SerializationError("header must carry nonzero-width nonces")
            # Bounds sanity: counts are attacker-controlled; never allocate
            # more than the payload could possibly encode.
            if n_z * z_len > len(data):
                raise SerializationError("nonce count exceeds payload")
            end = offset + n_z * z_len
            if end > len(data):
                raise SerializationError("truncated nonce")
            zs = tuple(data[i : i + z_len] for i in range(offset, end, z_len))
            offset = end
            (n_x,) = struct.unpack_from(">I", data, offset)
            offset += 4
            if n_x > 8 * len(data) + 64:
                raise SerializationError("X arity exceeds payload")
            x: List[int] = []
            while len(x) < n_x:
                token = data[offset]
                offset += 1
                if token == 0:
                    (run,) = struct.unpack_from(">I", data, offset)
                    offset += 4
                    if run > n_x - len(x):
                        raise SerializationError("zero run exceeds X arity")
                    x.extend([0] * run)
                elif token == 1:
                    (count,) = struct.unpack_from(">H", data, offset)
                    offset += 2
                    end = offset + count * q_len
                    if end > len(data):
                        raise SerializationError("literal run exceeds payload")
                    x.extend(
                        [
                            int.from_bytes(data[i : i + q_len], "big")
                            for i in range(offset, end, q_len)
                        ]
                    )
                    offset = end
                else:
                    raise SerializationError("bad RLE token %d" % token)
            if len(x) != n_x:
                raise SerializationError("X over-run")
            return cls(q=q, x=tuple(x), zs=zs)
        except (IndexError, struct.error) as exc:
            raise SerializationError("truncated ACV header") from exc

    def byte_size(self) -> int:
        """Compressed wire size (what Figure 5 measures)."""
        return len(self.to_bytes())


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
        self,
        rows: Sequence[Sequence[bytes]],
        zs: Sequence[bytes],
    ) -> Matrix:
        """The matrix ``A`` of Section V-C.1 for given CSS rows and nonces."""
        q = self.field.p
        h = self.hash_fn
        data = []
        for css_tuple in rows:
            a = row_hasher(h, css_tuple, q)
            data.append([1] + [a(z) for z in zs])
        return Matrix(self.field, data)

    def generate(
        self,
        rows: Sequence[Sequence[bytes]],
        n_max: Optional[int] = None,
        rng: Optional[random.Random] = None,
        z_bytes: Optional[int] = None,
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
        zb = z_bytes if z_bytes is not None else _auto_z_bytes(n)
        zs = _draw_nonces(n, zb, rng)
        key = _draw_field_key(self.field.p, rng)

        if rows:
            matrix = self.build_matrix(rows, zs)
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
        return key, AcvHeader(q=self.field.p, x=tuple(x), zs=zs)

    def factorize(
        self, rows: Sequence[Sequence[bytes]], zs: Sequence[bytes]
    ) -> "AcvFactorization":
        """The carried elimination state for ``rows`` under nonces ``zs``."""
        if len(rows) > len(zs):
            raise CapacityError(
                "capacity N=%d below the %d qualified rows (Eq. 1)"
                % (len(zs), len(rows))
            )
        if rows:
            rref = self.build_matrix(rows, zs).rref_factorization()
        else:
            rref = RrefFactorization(self.field, len(zs) + 1)
        return AcvFactorization(self, rows, zs, rref)

    def generate_with_factorization(
        self,
        rows: Sequence[Sequence[bytes]],
        n_max: Optional[int] = None,
        rng: Optional[random.Random] = None,
        z_bytes: Optional[int] = None,
    ) -> Tuple[int, AcvHeader, "AcvFactorization"]:
        """:meth:`generate`, additionally returning the elimination state.

        Draw order (nonces, key, combination coefficients) and the
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
        zb = z_bytes if z_bytes is not None else _auto_z_bytes(n)
        zs = _draw_nonces(n, zb, rng)
        key = _draw_field_key(self.field.p, rng)
        fact = self.factorize(rows, zs)
        y = self._random_combination(fact.null_basis(), n + 1, rng)
        x = list(y)
        x[0] = (x[0] + key) % self.field.p
        return key, AcvHeader(q=self.field.p, x=tuple(x), zs=zs), fact

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
        return key, AcvHeader(q=p, x=tuple(x), zs=fact.zs)

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
        holds for exactly this ``(css, header.q, header.zs)``: one slot per
        nonce, ``None`` where ``a_j`` was never needed.  Known slots are
        used as they are and the ones computed here are written back, so
        the same header seen again costs no hash at all.  This object
        keeps no such record itself -- Figure 4 times :meth:`derive` in a
        loop on one instance and must keep measuring N hashes -- and
        whether a memo still belongs to a header is the caller's decision
        (:class:`~repro.system.subscriber.Subscriber` compares nonces).

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
            a = row_hasher(self.hash_fn, css, header.q)
            for j, z in enumerate(header.zs):
                if kev[j] is None:
                    kev[j] = memo[j] = a(z)
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

    Bundles the CSS rows (in matrix feed order), the nonce tuple, and a
    tracked :class:`~repro.mathx.linalg.RrefFactorization` of the access
    matrix ``A``, so a membership *join* -- a pure row/column extension --
    costs ``O(m^2)`` instead of the ``O(m^3)`` from-scratch elimination.

    Security envelope: reusing the nonces across an extension is safe
    precisely because a join only ever *adds* rows -- every previously
    qualified CSS tuple stays qualified, and no tuple loses entitlement.
    A revoke or credential replacement removes/changes a row, which
    demands fresh nonces and a full re-solve; callers enforce that by
    dropping the factorization (see ``AcvBuildCache.invalidate``).
    """

    __slots__ = ("_core", "rows", "zs", "_rref", "_basis")

    def __init__(
        self,
        core: AcvBgkm,
        rows: Sequence[Sequence[bytes]],
        zs: Sequence[bytes],
        rref: RrefFactorization,
    ):
        self._core = core
        self.rows: List[Tuple[bytes, ...]] = [tuple(r) for r in rows]
        self.zs: Tuple[bytes, ...] = tuple(zs)
        self._rref = rref
        self._basis: Optional[List[Tuple[int, ...]]] = None

    @property
    def capacity(self) -> int:
        """The maximum-user parameter N carried by this state."""
        return len(self.zs)

    def extend(
        self,
        new_rows: Sequence[Sequence[bytes]],
        added_capacity: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Fold a join in: grow capacity by ``added_capacity`` fresh nonces,
        then reduce each new CSS row against the carried pivots.

        Fresh nonces are drawn at the *existing* nonce width (the header
        wire format requires uniform lengths), each contributing one new
        matrix column mapped through the carried row transform; each new
        row then costs one reduction pass.  Existing rows, nonces, and the
        annihilation property for every old row are untouched.
        """
        if added_capacity < 0:
            raise InvalidParameterError("negative capacity extension")
        total = len(self.rows) + len(new_rows)
        if total > self.capacity + added_capacity:
            raise CapacityError(
                "capacity N=%d below the %d qualified rows (Eq. 1)"
                % (self.capacity + added_capacity, total)
            )
        q = self._core.field.p
        h = self._core.hash_fn
        width = len(self.zs[0]) if self.zs else _auto_z_bytes(
            self.capacity + added_capacity
        )
        fresh = _draw_nonces(added_capacity, width, rng)
        if fresh:
            hashers = [row_hasher(h, row, q) for row in self.rows]
            for z in fresh:
                self._rref.extend_column([a(z) for a in hashers])
        self.zs = self.zs + fresh
        for row in new_rows:
            a = row_hasher(h, row, q)
            self._rref.extend_row([1] + [a(z) for z in self.zs])
            self.rows.append(tuple(row))
        self._basis = None

    def null_basis(self) -> List[Tuple[int, ...]]:
        """The null-space basis of the carried matrix (cached per state)."""
        if self._basis is None:
            basis = self._rref.null_space()
            if not basis:
                raise GKMError("null space unexpectedly trivial")
            self._basis = basis
        return self._basis


class AcvBroadcastGkm(BroadcastGkm):
    """Flat-membership adapter: one member = one single-CSS row.

    Lets ACV-BGKM compete in the baseline benchmarks that treat a group as
    a set of (id, secret) members without policy structure.
    """

    name = "acv-bgkm"

    def __init__(
        self,
        field: PrimeField = PAPER_FIELD,
        capacity: Optional[int] = None,
        hash_fn: Optional[HashFunction] = None,
        key_len: int = 16,
    ):
        super().__init__()
        self._core = AcvBgkm(field, hash_fn)
        self.capacity = capacity
        self.key_len = key_len
        self._last_header: Optional[AcvHeader] = None

    def rekey(self, rng: Optional[random.Random] = None) -> Tuple[bytes, RekeyBroadcast]:
        rows = [(secret,) for _, secret in sorted(self._members.items())]
        n_max = self.capacity
        if n_max is not None and n_max < len(rows):
            raise CapacityError("more members than configured capacity")
        key_int, header = self._core.generate(rows, n_max=n_max, rng=rng)
        self._last_header = header
        key = self._core.export_key(key_int, self.key_len)
        return key, RekeyBroadcast(
            scheme=self.name, payload=header.to_bytes(), parts=header
        )

    def derive(self, secret: bytes, broadcast: RekeyBroadcast) -> bytes:
        header = (
            broadcast.parts
            if isinstance(broadcast.parts, AcvHeader)
            else AcvHeader.from_bytes(broadcast.payload)
        )
        key_int = self._core.derive(header, (secret,))
        if key_int == 0:
            raise KeyDerivationError("derived the zero element")
        return self._core.export_key(key_int, self.key_len)
