"""Per-entity persistence adapters: live objects <-> :class:`StateStore`.

Each adapter plays two roles:

* **recovery** -- ``attach()`` opens the data directory, applies the
  recovered snapshot + WAL tail to a freshly *built* entity (construction
  stays with :mod:`repro.net.bootstrap` / the caller; the store only owns
  the state that cannot be rebuilt: tables, wallets, registries, keys,
  epochs), and refuses with :class:`~repro.errors.SnapshotMismatchError`
  when the directory belongs to a different deployment (wrong entity
  name, drifted policy set, wrong group);
* **journaling** -- the adapter then installs itself as the entity's
  ``journal``: every state transition the entity announces (a CSS
  minted, a token issued, an epoch advanced, ...) is appended to the WAL
  *before* the triggering reply leaves the process, and after
  ``compact_every`` records the WAL is folded into a fresh snapshot.

A fresh directory gets an immediate snapshot on attach, so base state
that never changes again (the IdMgr's signing key, a publisher's policy
configuration) is durable from the first moment.
"""

from __future__ import annotations

from repro.errors import LogCorruptionError, SnapshotMismatchError
from repro.obs.metrics import get_registry
from repro.store.snapshots import (
    CredentialRevokedRecord,
    CssExtractedRecord,
    CssInstalledRecord,
    EpochAdvancedRecord,
    GkmStrategyChangedRecord,
    IdMgrSnapshot,
    PublisherSnapshot,
    StateRecord,
    SubscriberSnapshot,
    SubscriptionRevokedRecord,
    TokenHeldRecord,
    TokenIssuedRecord,
    decode_state,
)
from repro.store.state import StateStore

__all__ = [
    "DEFAULT_COMPACT_EVERY",
    "IdMgrPersistence",
    "PublisherPersistence",
    "SubscriberPersistence",
]

#: WAL records tolerated before the adapter folds them into a snapshot.
DEFAULT_COMPACT_EVERY = 256


class _Persistence:
    """Shared open/apply/compact plumbing."""

    SNAPSHOT_CLS: type = StateRecord

    def __init__(
        self, store: StateStore, entity, compact_every: int = DEFAULT_COMPACT_EVERY
    ):
        self.store = store
        self.entity = entity
        self.compact_every = compact_every
        #: True when the data directory held state from a previous run.
        self.recovered = store.recovered
        self._apply_recovered()
        store.release_recovered()  # applied once; don't carry the log forever
        entity.journal = self

    @classmethod
    def attach(
        cls,
        data_dir: str,
        entity,
        sync: bool = True,
        compact_every: int = DEFAULT_COMPACT_EVERY,
    ) -> "_Persistence":
        """Open ``data_dir``, recover ``entity`` from it, start journaling."""
        self = cls(StateStore(data_dir, sync=sync), entity, compact_every)
        if not self.recovered:
            self.snapshot_now()  # base state is durable from the start
        return self

    # -- recovery ----------------------------------------------------------

    def _group(self):
        raise NotImplementedError

    def _apply_snapshot(self, snapshot: StateRecord) -> None:
        raise NotImplementedError

    def _apply_record(self, record: StateRecord) -> None:
        raise NotImplementedError

    def _build_snapshot(self) -> StateRecord:
        raise NotImplementedError

    def _apply_recovered(self) -> None:
        group = self._group()
        if self.store.snapshot is not None:
            snapshot = decode_state(
                self.store.snapshot.type_id, self.store.snapshot.payload, group
            )
            if not isinstance(snapshot, self.SNAPSHOT_CLS):
                raise SnapshotMismatchError(
                    "data dir holds a %s, expected a %s"
                    % (type(snapshot).__name__, self.SNAPSHOT_CLS.__name__)
                )
            self._apply_snapshot(snapshot)
        for raw in self.store.tail:
            self._apply_record(decode_state(raw.type_id, raw.payload, group))

    # -- journaling --------------------------------------------------------

    def _journal(self, record: StateRecord) -> None:
        self.store.append(record.TYPE_ID, record.to_bytes())
        if self.store.pending_records >= self.compact_every:
            self.snapshot_now()

    def snapshot_now(self) -> None:
        """Fold the live entity state into a fresh snapshot + empty WAL."""
        registry = get_registry()
        with registry.timer("store.compaction_seconds"):
            snapshot = self._build_snapshot()
            self.store.save_snapshot(snapshot.TYPE_ID, snapshot.to_bytes())
        registry.inc("store.compactions")

    def close(self) -> None:
        if getattr(self.entity, "journal", None) is self:
            self.entity.journal = None
        self.store.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class IdMgrPersistence(_Persistence):
    """Durable IdMgr: signing key, pseudonym counter, issued-token registry."""

    SNAPSHOT_CLS = IdMgrSnapshot

    def _group(self):
        return self.entity.group

    def _apply_snapshot(self, snapshot: IdMgrSnapshot) -> None:
        idmgr = self.entity
        if snapshot.group_name != idmgr.group.name:
            raise SnapshotMismatchError(
                "snapshot group %r does not match IdMgr group %r"
                % (snapshot.group_name, idmgr.group.name)
            )
        idmgr.restore_signing_key(snapshot.signing_key)
        idmgr.restore_registry(snapshot.nym_counter, snapshot.issued)

    def _apply_record(self, record: StateRecord) -> None:
        if isinstance(record, TokenIssuedRecord):
            self.entity.issued.append((record.nym, record.tag, record.decoy))
        else:
            raise LogCorruptionError(
                "%s in an IdMgr WAL" % type(record).__name__
            )

    def _build_snapshot(self) -> IdMgrSnapshot:
        idmgr = self.entity
        return IdMgrSnapshot(
            group_name=idmgr.group.name,
            signing_key=idmgr.signing_key,
            nym_counter=idmgr.nym_counter,
            issued=tuple(idmgr.issued),
        )

    # journal protocol (called by IdentityManager)

    def token_issued(self, nym: str, tag: str, decoy: bool) -> None:
        self._journal(TokenIssuedRecord(nym=nym, tag=tag, decoy=decoy))


class PublisherPersistence(_Persistence):
    """Durable publisher: policy configuration, CSS table ``T``, GKM epoch."""

    SNAPSHOT_CLS = PublisherSnapshot

    def _group(self):
        return self.entity.params.pedersen.group

    def _apply_snapshot(self, snapshot: PublisherSnapshot) -> None:
        publisher = self.entity
        if snapshot.name != publisher.name:
            raise SnapshotMismatchError(
                "snapshot publisher %r does not match %r"
                % (snapshot.name, publisher.name)
            )
        if sorted(p.describe() for p in snapshot.policies) != sorted(
            p.describe() for p in publisher.policies
        ):
            raise SnapshotMismatchError(
                "snapshot policy set differs from the configured policies; "
                "a changed deployment needs a fresh data dir"
            )
        publisher.epoch = snapshot.epoch
        # The strategy the durable table was broadcast under wins over
        # whatever the restarted process was configured with: recovery
        # must rekey with the same bucket layout its subscribers know.
        publisher.set_gkm_strategy(snapshot.gkm, snapshot.gkm_bucket_size)
        for nym, cells in snapshot.table:
            for condition_key, css in cells:
                publisher.table.set(nym, condition_key, css)

    def _apply_record(self, record: StateRecord) -> None:
        publisher = self.entity
        if isinstance(record, CssInstalledRecord):
            publisher.table.set(record.nym, record.condition_key, record.css)
        elif isinstance(record, CredentialRevokedRecord):
            publisher.table.remove_cell(record.nym, record.condition_key)
        elif isinstance(record, SubscriptionRevokedRecord):
            publisher.table.remove_row(record.nym)
        elif isinstance(record, EpochAdvancedRecord):
            publisher.epoch = record.epoch
        elif isinstance(record, GkmStrategyChangedRecord):
            publisher.set_gkm_strategy(record.gkm, record.gkm_bucket_size)
        else:
            raise LogCorruptionError(
                "%s in a publisher WAL" % type(record).__name__
            )

    def _build_snapshot(self) -> PublisherSnapshot:
        publisher = self.entity
        return PublisherSnapshot(
            name=publisher.name,
            epoch=publisher.epoch,
            policies=tuple(publisher.policies),
            table=publisher.table.rows(),
            gkm=publisher.gkm,
            gkm_bucket_size=publisher.gkm_bucket_size,
        )

    # journal protocol (called by Publisher)

    def css_installed(self, nym: str, condition_key: str, css: bytes) -> None:
        self._journal(
            CssInstalledRecord(nym=nym, condition_key=condition_key, css=css)
        )

    def credential_revoked(self, nym: str, condition_key: str) -> None:
        self._journal(
            CredentialRevokedRecord(nym=nym, condition_key=condition_key)
        )

    def subscription_revoked(self, nym: str) -> None:
        self._journal(SubscriptionRevokedRecord(nym=nym))

    def epoch_advanced(self, epoch: int) -> None:
        self._journal(EpochAdvancedRecord(epoch=epoch))

    def gkm_strategy_changed(self, gkm: str, bucket_size: int) -> None:
        self._journal(
            GkmStrategyChangedRecord(gkm=gkm, gkm_bucket_size=bucket_size)
        )


class SubscriberPersistence(_Persistence):
    """Durable subscriber: token wallet (with openings) + extracted CSSs."""

    SNAPSHOT_CLS = SubscriberSnapshot

    def _group(self):
        return self.entity.params.pedersen.group

    def _apply_snapshot(self, snapshot: SubscriberSnapshot) -> None:
        subscriber = self.entity
        if snapshot.nym != subscriber.nym:
            raise SnapshotMismatchError(
                "snapshot nym %r does not match subscriber %r"
                % (snapshot.nym, subscriber.nym)
            )
        for token, x, r in snapshot.wallet:
            subscriber.hold_token(token, x, r)
        for condition_key, css in snapshot.css:
            subscriber.store_css(condition_key, css)

    def _apply_record(self, record: StateRecord) -> None:
        subscriber = self.entity
        if isinstance(record, TokenHeldRecord):
            subscriber.hold_token(record.token, record.x, record.r)
        elif isinstance(record, CssExtractedRecord):
            subscriber.store_css(record.condition_key, record.css)
        else:
            raise LogCorruptionError(
                "%s in a subscriber WAL" % type(record).__name__
            )

    def _build_snapshot(self) -> SubscriberSnapshot:
        subscriber = self.entity
        return SubscriberSnapshot(
            nym=subscriber.nym,
            wallet=tuple(
                (entry.token, entry.x, entry.r)
                for entry in subscriber.wallet_entries()
            ),
            css=tuple(sorted(subscriber.css_store.items())),
        )

    # journal protocol (called by Subscriber)

    def token_held(self, token, x: int, r: int) -> None:
        self._journal(TokenHeldRecord(token=token, x=x, r=r))

    def css_extracted(self, condition_key: str, css: bytes) -> None:
        self._journal(CssExtractedRecord(condition_key=condition_key, css=css))
