"""Snapshot/record codecs: exact round trips, typed failures on hostility.

Every store record type must satisfy ``byte_size() == len(to_bytes())``
and survive ``from_payload(to_bytes())`` unchanged; every mangling of the
payload must raise :class:`SerializationError` (or a
:class:`ReproError` subclass), never ``struct.error``/``IndexError``.
"""

import pytest

from repro.errors import ReproError, SerializationError
from repro.policy.acp import parse_policy
from repro.store.snapshots import (
    STORE_RECORD_TYPES,
    CredentialRevokedRecord,
    CssExtractedRecord,
    CssInstalledRecord,
    EpochAdvancedRecord,
    GkmStrategyChangedRecord,
    IdMgrSnapshot,
    PublisherSnapshot,
    SubscriberSnapshot,
    SubscriptionRevokedRecord,
    TokenHeldRecord,
    TokenIssuedRecord,
    decode_state,
)
from repro.wire.codec import pack_str, pack_u16
from tests.store.conftest import build_world


def _samples():
    """One representative instance of every store record type."""
    idp, idmgr, pub, sub = build_world()
    pub.table.set(sub.nym, "role = doc", b"\x01" * 16)
    pub.table.set(sub.nym, "level >= 50", b"\x02" * 16)
    pub.table.set("pn-0099", "role = doc", b"\x03" * 16)
    wallet = sub.wallet_entries()
    return [
        IdMgrSnapshot(
            group_name=idmgr.group.name,
            signing_key=idmgr.signing_key,
            nym_counter=idmgr.nym_counter,
            issued=tuple(idmgr.issued),
        ),
        PublisherSnapshot(
            name=pub.name,
            epoch=3,
            policies=tuple(pub.policies),
            table=pub.table.rows(),
        ),
        PublisherSnapshot(
            name=pub.name,
            epoch=7,
            policies=tuple(pub.policies),
            table=pub.table.rows(),
            gkm="bucketed",
            gkm_bucket_size=8,
        ),
        SubscriberSnapshot(
            nym=sub.nym,
            wallet=tuple((w.token, w.x, w.r) for w in wallet),
            css=(("role = doc", b"\x01" * 16),),
        ),
        TokenIssuedRecord(nym=sub.nym, tag="role", decoy=False),
        TokenIssuedRecord(nym=sub.nym, tag="ghost", decoy=True),
        CssInstalledRecord(nym=sub.nym, condition_key="role = doc", css=b"s" * 16),
        CredentialRevokedRecord(nym=sub.nym, condition_key="role = doc"),
        SubscriptionRevokedRecord(nym=sub.nym),
        EpochAdvancedRecord(epoch=41),
        TokenHeldRecord(token=wallet[0].token, x=wallet[0].x, r=wallet[0].r),
        CssExtractedRecord(condition_key="level >= 50", css=b"t" * 16),
        GkmStrategyChangedRecord(gkm="bucketed", gkm_bucket_size=4),
        GkmStrategyChangedRecord(gkm="dense", gkm_bucket_size=0),
    ]


SAMPLES = _samples()


@pytest.mark.parametrize(
    "record", SAMPLES, ids=[type(s).__name__ for s in SAMPLES]
)
class TestRoundTrip:
    def test_exact_round_trip(self, record, group):
        raw = record.to_bytes()
        assert record.byte_size() == len(raw)
        back = type(record).from_payload(raw, group)
        assert back == record

    def test_registry_dispatch(self, record, group):
        assert STORE_RECORD_TYPES[record.TYPE_ID] is type(record)
        back = decode_state(record.TYPE_ID, record.to_bytes(), group)
        assert back == record

    def test_truncated_tail_raises_typed(self, record, group):
        raw = record.to_bytes()
        for cut in range(len(raw)):
            with pytest.raises(ReproError):
                type(record).from_payload(raw[:cut], group)

    def test_trailing_garbage_raises(self, record, group):
        with pytest.raises(SerializationError):
            type(record).from_payload(record.to_bytes() + b"\x00", group)

    def test_every_single_byte_flip_is_typed(self, record, group):
        """Bit flips either still parse (to a different value) or raise a
        library error -- never an uncaught low-level exception."""
        raw = record.to_bytes()
        stride = max(1, len(raw) // 48)  # bounded work on big snapshots
        for i in range(0, len(raw), stride):
            mangled = raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:]
            try:
                type(record).from_payload(mangled, group)
            except ReproError:
                pass


def test_unknown_type_id_raises(group):
    with pytest.raises(SerializationError, match="unknown store record"):
        decode_state(200, b"", group)


def test_unknown_gkm_strategy_in_snapshot_raises(group):
    snapshot = next(
        s for s in SAMPLES
        if isinstance(s, PublisherSnapshot) and s.gkm == "dense"
    )
    raw = snapshot.to_bytes()
    # "dense" -> "densa": still a valid string, not a valid strategy.
    mangled = raw.replace(b"dense", b"densa")
    with pytest.raises(SerializationError, match="GKM strategy"):
        PublisherSnapshot.from_payload(mangled, group)


def test_type_ids_are_unique_and_stable():
    ids = [cls.TYPE_ID for cls in STORE_RECORD_TYPES.values()]
    assert len(ids) == len(set(ids))
    # Snapshots sit below 16, transition records at 16+: renumbering would
    # silently orphan existing data dirs, so pin the assignment here.
    assert IdMgrSnapshot.TYPE_ID == 1
    assert PublisherSnapshot.TYPE_ID == 2
    assert SubscriberSnapshot.TYPE_ID == 3
    assert min(
        cls.TYPE_ID
        for cls in STORE_RECORD_TYPES.values()
        if "Snapshot" not in cls.__name__
    ) == 16


def test_unsorted_or_repeated_policy_objects_refused(group):
    """A policy's object set is written ascending; ``b, a, a`` would decode
    to the set ``{a, b}`` and re-encode differently, so it is refused."""
    policy = parse_policy("role = doc", ["a", "b"], "report")
    snapshot = PublisherSnapshot(name="pub", epoch=0, policies=(policy,), table=())
    raw = snapshot.to_bytes()
    ascending = pack_u16(2) + pack_str("a") + pack_str("b")
    assert raw.count(ascending) == 1
    for objects in (["b", "a"], ["b", "a", "a"], ["a", "a", "b"]):
        listed = pack_u16(len(objects)) + b"".join(pack_str(o) for o in objects)
        with pytest.raises(SerializationError, match="ascending"):
            PublisherSnapshot.from_payload(raw.replace(ascending, listed), group)


def test_subscriber_snapshot_decodes_tokens(group):
    snapshot = next(s for s in SAMPLES if isinstance(s, SubscriberSnapshot))
    tokens = type(snapshot).from_payload(snapshot.to_bytes(), group).wallet
    assert [t.tag for t, _, _ in tokens] == ["level", "role"]
    assert all(t.nym == snapshot.nym for t, _, _ in tokens)
