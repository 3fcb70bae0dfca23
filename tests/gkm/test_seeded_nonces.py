"""Seeded nonces: one seed and a count stand for the nonces ``seed || u32(j)``.

The differential half writes Section V-C out over explicit nonces -- the
access matrix from one-shot ``hash_concat`` calls, its null space from
:class:`~repro.mathx.linalg.Matrix`, ``X = K e_0 + Y`` -- and holds the
seeded path to it: fed the same RNG, :meth:`AcvBgkm.generate` publishes
the same key and ``X``, and every carried state (grown, cut, grown back)
is annihilated by the explicit matrix of its rows and derives through
explicit key extraction vectors.

The hostile half feeds the decoder what only a forger writes: a seed
under 160 bits, a zero count, an ``X`` whose arity is not the count plus
one, and a count no payload pays for.  The count sizes ``X``, the KEV and
a subscriber's memo, so a ~40-byte header claiming ``2**32 - 1`` must be
refused before any of them is allocated.
"""

import random
import struct
import tracemalloc

import pytest

from repro.crypto.hashes import hash_concat, sha1, sha256
from repro.documents.package import BroadcastPackage, ConfigHeader
from repro.errors import SerializationError
from repro.gkm.acv import FAST_FIELD, PAPER_FIELD, SEED_BYTES, AcvBgkm, AcvHeader
from repro.gkm.buckets import BucketedHeader
from repro.gkm.strategy import decode_keying_header
from repro.mathx.linalg import Matrix
from repro.workloads.generator import make_css_rows

FIELDS = {"fast": FAST_FIELD, "paper": PAPER_FIELD}


def _explicit_nonces(seed, count):
    return [seed + struct.pack(">I", j) for j in range(count)]


def _explicit_kev(field, h, row, nonces):
    return [1] + [hash_concat(h, list(row) + [z], field.p) for z in nonces]


def _explicit_generate(field, h, rows, n, rng):
    """:meth:`AcvBgkm.generate` (one null-space term) written out over
    explicit nonces, drawing from ``rng`` in the same order: the seed, the
    key, the basis vector, its coefficient."""
    p = field.p
    seed = rng.getrandbits(8 * SEED_BYTES).to_bytes(SEED_BYTES, "big")
    nonces = _explicit_nonces(seed, n)
    key = rng.randrange(1, p)
    if rows:
        matrix = Matrix(field, [_explicit_kev(field, h, row, nonces) for row in rows])
        basis = matrix.null_space()
    else:
        basis = [tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)]
    if len(basis) > 1:
        basis = [basis[rng.sample(range(len(basis)), 1)[0]]]
    while True:
        coefficient = rng.randrange(1, p)
        y = [coefficient * b % p for b in basis[0]]
        if any(y):
            break
    y[0] = (y[0] + key) % p
    return key, nonces, tuple(y)


@pytest.mark.parametrize("h", [sha256, sha1], ids=lambda h: h.name)
@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("m,n", [(0, 1), (1, 1), (3, 7), (8, 8), (12, 15)])
def test_seeded_generate_equals_the_explicit_nonce_construction(field_name, h, m, n):
    field = FIELDS[field_name]
    rows = make_css_rows(m, rng=random.Random(m * 31 + n)) if m else []
    key, header = AcvBgkm(field, h).generate(rows, n_max=n, rng=random.Random(n))
    ref_key, nonces, x = _explicit_generate(field, h, rows, n, random.Random(n))
    assert (key, header.x, list(header.zs)) == (ref_key, x, nonces)
    for row in rows:
        kev = _explicit_kev(field, h, row, nonces)
        assert sum(a * b for a, b in zip(kev, x)) % field.p == key
        assert AcvBgkm(field, h).derive(header, row) == key


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_carried_states_equal_the_explicit_nonce_construction(field_name):
    """Grow, cut, grow back over indices the removed rows hashed: each
    state's null basis is the explicit matrix's, and each rekey's ``Y``
    is annihilated by it and derives for every row."""
    field = FIELDS[field_name]
    rng = random.Random(0x5EED)
    core = AcvBgkm(field)
    rows = make_css_rows(10, rng=rng)
    _, first, fact = core.generate_with_factorization(rows, rng=rng)

    def check():
        key, header = core.rekey_from_factorization(fact, rng=rng)
        assert (header.seed, header.capacity) == (first.seed, fact.capacity)
        nonces = _explicit_nonces(first.seed, fact.capacity)
        kevs = [_explicit_kev(field, core.hash_fn, row, nonces) for row in fact.rows]
        matrix = Matrix(field, kevs)
        assert fact.null_basis() == matrix.null_space()
        y = (header.x[0] - key) % field.p, *header.x[1:]
        assert all(v == 0 for v in matrix.mat_vec(y))
        for row in fact.rows:
            assert core.derive(header, row) == key

    fact.extend(make_css_rows(2, rng=rng), added_capacity=3)
    check()
    assert fact.remove([0, 4, 11], 9) is True
    check()
    fact.extend(make_css_rows(4, rng=rng), added_capacity=4)
    check()


# -- hostile seeded headers ------------------------------------------------------


#: ``X = (7, 0, 0)``: a literal run of one, then a zero run of two.
_RUNS = b"\x01\x00\x01\x00\x00\x00\x07" + b"\x00\x00\x00\x00\x02"


def _raw(seed=bytes(SEED_BYTES), count=2, n_x=3, runs=_RUNS):
    """A FAST_FIELD wire header, field by field."""
    q = FAST_FIELD.p.to_bytes(4, "big")
    return (
        b"ACV1" + struct.pack(">H", 4) + q + bytes([len(seed)]) + seed
        + struct.pack(">II", count, n_x) + runs
    )


def _refused(raw, match):
    for parse in (AcvHeader.from_bytes, AcvHeader.validate, decode_keying_header):
        with pytest.raises(SerializationError, match=match):
            parse(raw)


def test_the_hand_built_header_parses():
    header = AcvHeader.from_bytes(_raw())
    assert (header.seed, header.capacity, header.x) == (bytes(SEED_BYTES), 2, (7, 0, 0))
    assert header.to_bytes() == _raw()


@pytest.mark.parametrize("length", [0, 1, SEED_BYTES - 1])
def test_a_seed_under_160_bits_is_refused(length):
    _refused(_raw(seed=bytes(length)), "seed shorter than %d bytes" % SEED_BYTES)


def test_a_zero_count_is_refused():
    _refused(_raw(count=0, n_x=1, runs=_RUNS[:7]), "at least one nonce")


@pytest.mark.parametrize("count,n_x", [(2, 2), (2, 4), (3, 3), (1, 3)])
def test_an_x_arity_other_than_the_count_plus_one_is_refused(count, n_x):
    runs = _RUNS[:8] + struct.pack(">I", n_x - 1)
    _refused(_raw(count=count, n_x=n_x, runs=runs), "arity")


def test_the_count_may_reach_the_header_length_and_no_further():
    """An explicit-nonce header spent at least one byte per nonce, so no
    count above its byte length was ever accepted."""
    length = len(_raw())

    def header(count):
        runs = _RUNS[:8] + struct.pack(">I", count)
        return _raw(count=count, n_x=count + 1, runs=runs)

    assert AcvHeader.from_bytes(header(length)).capacity == length
    _refused(header(length + 1), "exceeds the %d-byte header" % length)


def test_a_huge_count_is_refused_typed_before_any_allocation():
    """A 39-byte header -- no ``X`` runs at all -- claiming ``2**32 - 1``
    nonces, alone, as a bucket and inside a broadcast package."""
    raw = _raw(count=0xFFFFFFFF, n_x=0xFFFFFFFF, runs=b"")
    assert len(raw) == 39
    wrapped = b"BKT1" + struct.pack(">II", 1, len(raw)) + raw
    forged = AcvHeader(
        q=FAST_FIELD.p, x=(7,), seed=bytes(SEED_BYTES), capacity=0xFFFFFFFF
    )
    package = BroadcastPackage(
        "doc", (ConfigHeader("pc1", (("role = doc",),), forged),), ()
    ).to_bytes()
    tracemalloc.start()
    try:
        _refused(raw, "exceeds the 39-byte header")
        with pytest.raises(SerializationError, match="exceeds"):
            BucketedHeader.from_bytes(wrapped)
        with pytest.raises(SerializationError, match="exceeds"):
            BroadcastPackage.from_bytes(package)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
