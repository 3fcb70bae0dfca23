"""The record codec over every net frame, wire message, store record,
the values registration carries (OCBE messages, tokens, assertions) and
the broadcast package with its keying headers.

Two checks span the five tables at once:

* a SHA-256 over ``(type id, encoded bytes)`` of every sample in the
  three seeded sample tables, computed before the families moved onto
  the declarative codec, and one over ``(class name, encoded bytes)`` of
  the seeded value table (``tests/wire/values.py``) and of the package
  table (``tests/wire/packages.py``), each computed before its types
  did, so the encoding itself is pinned byte for byte (the first two
  re-pinned once since, for new assertion signatures only);
* a structural fuzzer: starting from those samples, up to three
  truncations, byte flips, insertions or deletions, and either decoding
  raises a :class:`~repro.errors.ReproError` or the decoded value
  re-encodes to exactly the mutated input (every decoder is canonical).
  A decoded package re-encodes through its lazily decoded keying
  headers, so the fuzzer also checks that every header the package
  parse validated does decode.
"""

import dataclasses
import hashlib
import random
import secrets

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.documents.package import (
    BroadcastPackage,
    ConfigHeader,
    EncryptedSubdocument,
)
from repro.errors import ReproError
from repro.gkm.acv import AcvHeader
from repro.gkm.buckets import BucketedHeader
from repro.net.protocol import (
    NET_MESSAGE_TYPES,
    NetMessage,
    TrafficRecord,
    decode_net_payload,
)
from repro.ocbe.derived import NeCommitMessage, NeEnvelope
from repro.ocbe.eq import EqEnvelope
from repro.ocbe.ge import BitCommitMessage, BitwiseEnvelope
from repro.store.snapshots import STORE_RECORD_TYPES, StateRecord, decode_state
from repro.system.identity import AttributeAssertion, IdentityToken
from repro.wire.codec import Cursor
from repro.wire.messages import MESSAGE_TYPES
from tests.net.samples import SAMPLES as NET_SAMPLES
from tests.store.test_snapshots import SAMPLES as STORE_SAMPLES
from tests.wire.conftest import build_wire_world
from tests.wire.packages import build_packages
from tests.wire.test_messages import _sample_messages
from tests.wire.values import build_values

#: SHA-256 over the three sample tables (net, wire, store, in table order).
#: Both pins moved once, from 363e4816... and dcd62e64..., when the IdP
#: began to sign an assertion's declared fields: only the assertion
#: signatures changed (the wire table's token request, the value table's
#: two assertions).
SAMPLE_TABLES_SHA256 = (
    "23073fde0ea8952bcc978726e31f4cc07f05bd3001b0e8126a6f6b206c997c67"
)

#: SHA-256 over the value table (``tests/wire/values.py``), in order.
VALUE_TABLE_SHA256 = (
    "ca4c4128c4b01bea42e1ee16228342dfb07f5e5778f1931ab127d50f23fa5dd0"
)
#: Every value type: no registry holds them, they travel inside messages.
VALUE_TYPES = (
    EqEnvelope,
    BitCommitMessage,
    BitwiseEnvelope,
    NeCommitMessage,
    NeEnvelope,
    AttributeAssertion,
    IdentityToken,
)

#: SHA-256 over the package table (``tests/wire/packages.py``), in order,
#: computed with the hand-written package and keying-header codecs, and
#: re-pinned once, from 4196f057..., when keying headers moved to seeded
#: nonces and the table gained its two edge headers.
PACKAGE_TABLE_SHA256 = (
    "a489717a0728a0bf9fc16bfdc717cabcb67783e1c29f686ddc8a4c04a2e0009b"
)
#: The broadcast package's records and the two keying header formats.
PACKAGE_TYPES = (
    BroadcastPackage,
    ConfigHeader,
    EncryptedSubdocument,
    AcvHeader,
    BucketedHeader,
)


def _payload(record) -> bytes:
    if isinstance(record, (StateRecord, *VALUE_TYPES, *PACKAGE_TYPES)):
        return record.to_bytes()
    return record.payload_bytes()


def _decode(record, payload: bytes, group):
    """Decode ``payload`` through the registry of ``record``'s family."""
    if isinstance(record, (*VALUE_TYPES, *PACKAGE_TYPES)):
        return type(record).from_bytes(payload, group)
    type_id = type(record).TYPE_ID
    if isinstance(record, StateRecord):
        return decode_state(type_id, payload, group)
    if isinstance(record, NetMessage):
        return decode_net_payload(type_id, payload)
    return MESSAGE_TYPES[type_id].from_payload(payload, group)


def _digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        raw = _payload(record)
        digest.update(bytes([type(record).TYPE_ID]) + len(raw).to_bytes(4, "big"))
        digest.update(raw)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def wire_samples(wire_world):
    return _sample_messages(wire_world)


@pytest.fixture(scope="module")
def group(wire_world):
    return wire_world[2].params.pedersen.group


@pytest.fixture(scope="module")
def value_samples():
    return build_values()


@pytest.fixture(scope="module")
def package_samples():
    return build_packages()


def test_sample_tables_cover_every_type(wire_samples, value_samples, package_samples):
    assert {type(s) for s in NET_SAMPLES} == set(NET_MESSAGE_TYPES.values())
    assert {type(s) for s in wire_samples} == set(MESSAGE_TYPES.values())
    assert {type(s) for s in STORE_SAMPLES} == set(STORE_RECORD_TYPES.values())
    assert {type(s) for s in value_samples} == set(VALUE_TYPES)
    assert {type(s) for s in package_samples} == {
        BroadcastPackage, BucketedHeader, AcvHeader
    }


def _named_digest(values) -> str:
    digest = hashlib.sha256()
    for value in values:
        name = type(value).__name__.encode()
        raw = value.to_bytes()
        digest.update(bytes([len(name)]) + name + len(raw).to_bytes(4, "big") + raw)
    return digest.hexdigest()


def test_value_table_bytes_are_pinned(value_samples):
    assert _named_digest(value_samples) == VALUE_TABLE_SHA256


def test_package_table_bytes_are_pinned(package_samples):
    assert _named_digest(package_samples) == PACKAGE_TABLE_SHA256


def test_sample_table_bytes_are_pinned(monkeypatch):
    # The wire table's broadcast draws its cipher nonces from `secrets`;
    # a seeded stand-in makes the whole table reproducible.
    nonces = random.Random(0x5A17)
    monkeypatch.setattr(secrets, "token_bytes", nonces.randbytes)
    wire_samples = _sample_messages(build_wire_world())
    records = list(NET_SAMPLES) + wire_samples + list(STORE_SAMPLES)
    assert _digest(records) == SAMPLE_TABLES_SHA256


def test_lazy_keying_field_keeps_a_copied_slice(package_samples):
    """A parsed header holds its keying bytes -- the ``u32`` length and
    the header, copied out of the frame -- until ``acv`` is first read."""
    package = package_samples[3]
    parsed = BroadcastPackage.from_bytes(package.to_bytes())
    for header, built in zip(parsed.headers, package.headers):
        (pending,) = [v for k, v in vars(header).items() if k.endswith("_pending")]
        keying = b"" if built.acv is None else built.acv.to_bytes()
        assert type(pending.raw) is bytes
        assert pending.raw == len(keying).to_bytes(4, "big") + keying
        assert header.acv == built.acv
        assert not [k for k in vars(header) if k.endswith("_pending")]


def test_every_type_declares_each_field_once():
    """A declaration names every dataclass field exactly once, so no
    field can be left off the wire; net frames end with the trace."""
    types = [TrafficRecord, *NET_MESSAGE_TYPES.values(), *MESSAGE_TYPES.values(),
             *STORE_RECORD_TYPES.values(), *VALUE_TYPES, *PACKAGE_TYPES]
    for cls in types:
        declared = [
            one
            for name, _ in cls.FIELDS
            for one in ((name,) if isinstance(name, str) else name)
        ]
        assert sorted(declared) == sorted(f.name for f in dataclasses.fields(cls))
    for cls in NET_MESSAGE_TYPES.values():
        assert cls.FIELDS[-1][0] == "trace"


def _field_starts(record, payload: bytes, group):
    """Where each declared field begins in ``payload``: the schema tells
    the fuzzer where length prefixes, counts and flags sit."""
    cursor = Cursor(payload)
    starts = []
    for _, field in type(record).FIELDS:
        starts.append(cursor.offset)
        field.read(cursor, group)
    return starts


def _mutate(data: bytes, starts, mutations) -> bytes:
    out = bytearray(data)
    for kind, (anchor, offset), byte in mutations:
        position = offset if anchor is None else starts[anchor % len(starts)] + offset
        if kind == "truncate":
            del out[position % (len(out) + 1):]
        elif kind == "insert":
            out.insert(position % (len(out) + 1), byte)
        elif out and kind == "flip":
            out[position % len(out)] ^= byte or 0xFF
        elif out:
            del out[position % len(out)]
    return bytes(out)


# A position is a field start plus a small offset (mostly), or anywhere.
POSITIONS = st.one_of(
    st.tuples(st.integers(0, 15), st.integers(0, 5)),
    st.tuples(st.none(), st.integers(0, 1 << 16)),
)
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["truncate", "flip", "insert", "delete"]),
        POSITIONS,
        st.one_of(st.sampled_from([0x00, 0x01, 0xFF]), st.integers(0, 255)),
    ),
    min_size=1,
    max_size=3,
)


def _refused_or_canonical(samples, group, data) -> None:
    record = data.draw(st.sampled_from(samples), label="sample")
    payload = _payload(record)
    starts = _field_starts(record, payload, group)
    mutated = _mutate(payload, starts, data.draw(MUTATIONS, label="mutations"))
    try:
        decoded = _decode(record, mutated, group)
    except ReproError:
        return
    assert _payload(decoded) == mutated


@settings(max_examples=400)
@given(data=st.data())
def test_mutated_records_are_refused_or_canonical(
    wire_samples, value_samples, group, data
):
    """Every decoder is canonical: a mutated payload either raises a
    library error or decodes to a value whose encoding *is* that payload."""
    samples = list(NET_SAMPLES) + wire_samples + list(STORE_SAMPLES) + value_samples
    _refused_or_canonical(samples, group, data)


@settings(max_examples=300)
@given(data=st.data())
def test_mutated_packages_are_refused_or_canonical(package_samples, group, data):
    """The same property over the package table."""
    _refused_or_canonical(package_samples, group, data)


def test_every_package_byte_flip_is_refused_or_canonical(package_samples):
    """Exhaustively, one byte at a time: a flip inside a keying header
    keeps every length intact, so only the header's own validation can
    refuse it -- and a header the parse let through must then decode."""
    for record in package_samples:
        payload = record.to_bytes()
        for at in range(len(payload)):
            mutated = payload[:at] + bytes([payload[at] ^ 0xFF]) + payload[at + 1 :]
            try:
                decoded = type(record).from_bytes(mutated)
            except ReproError:
                continue
            assert decoded.to_bytes() == mutated
