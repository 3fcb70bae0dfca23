"""Validation and materialization of keying headers are one walk.

A package parse only *validates* a keying header; a subscriber decodes
the ones it derives from.  The contract that makes that safe: on any
input -- here honest dense and bucketed headers, mutated and truncated
-- the validator and the decoder accept exactly the same bytes and fail
with the same typed error, and whatever is accepted is the canonical
encoding of what it decodes to (so equal bytes <=> equal headers).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.gkm.acv import FAST_FIELD, PAPER_FIELD, AcvBgkm
from repro.gkm.strategy import (
    KEYING_HEADER,
    AcvBuildCache,
    BucketedGkmStrategy,
    decode_keying_header,
)
from repro.wire.codec import Cursor


def validate_keying_header(raw):
    """What a package parse runs on a keying header: the field's check."""
    cursor = Cursor(raw)
    KEYING_HEADER.check(cursor, None)
    cursor.expect_end()


def _honest():
    rng = random.Random(0xACE)
    blobs = []
    for field in (FAST_FIELD, PAPER_FIELD):
        core = AcvBgkm(field)
        rows = [(bytes(rng.randrange(256) for _ in range(8)),) for _ in range(7)]
        # Sparse (zero runs between literal runs), tight, and bucketed.
        blobs.append(core.generate(rows[:2], n_max=12, rng=rng)[1].to_bytes())
        blobs.append(core.generate(rows, rng=rng)[1].to_bytes())
        strategy = BucketedGkmStrategy(core, AcvBuildCache(), bucket_size=3)
        blobs.append(strategy.build(rows, None, 1, rng)[1].to_bytes())
    return blobs


HONEST = _honest()


def _outcome(check, raw):
    try:
        check(raw)
    except SerializationError as exc:
        return type(exc), str(exc)
    return None


_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10_000)),
    st.tuples(st.just("flip"), st.integers(0, 10_000), st.integers(1, 255)),
    st.tuples(
        st.just("insert"), st.integers(0, 10_000), st.binary(min_size=1, max_size=6)
    ),
    st.tuples(st.just("delete"), st.integers(0, 10_000), st.integers(1, 6)),
)


def _apply(raw, edit):
    kind, at = edit[0], edit[1] % (len(raw) + 1)
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        if not raw:
            return raw
        at %= len(raw)
        return raw[:at] + bytes([raw[at] ^ edit[2]]) + raw[at + 1 :]
    if kind == "insert":
        return raw[:at] + edit[2] + raw[at:]
    return raw[:at] + raw[at + edit[2] :]


@settings(max_examples=400)
@given(which=st.integers(0, len(HONEST) - 1), edits=st.lists(_EDITS, max_size=3))
def test_validator_and_decoder_agree(which, edits):
    raw = HONEST[which]
    for edit in edits:
        raw = _apply(raw, edit)
    verdict = _outcome(validate_keying_header, raw)
    assert verdict == _outcome(decode_keying_header, raw)
    if verdict is None:
        assert decode_keying_header(raw).to_bytes() == raw


def test_honest_headers_round_trip_byte_for_byte():
    for raw in HONEST:
        validate_keying_header(raw)
        assert decode_keying_header(raw).to_bytes() == raw
