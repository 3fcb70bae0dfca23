"""Durable entity state: write-ahead log + snapshots + recovery.

The paper's entities hold long-lived secret state -- the publisher's CSS
table ``T``, the IdMgr's signing key and token registry, each
subscriber's wallet and extracted CSSs.  Losing any of it on a process
restart forces the O(N)-unicast re-registration storm the ACV-BGKM
scheme exists to avoid, so this package makes that state crash-proof:

* :mod:`repro.store.wal` -- the append-only record log (wire-framed,
  CRC-checked, torn-tail-tolerant);
* :mod:`repro.store.snapshots` -- typed byte encodings of each entity's
  full state and of the journaled transitions between snapshots;
* :mod:`repro.store.state` -- :class:`StateStore`, one data directory's
  atomic snapshot + generation-matched WAL with crash-safe compaction;
* :mod:`repro.store.persist` -- adapters recovering a live entity from a
  :class:`StateStore` and journaling its transitions from then on.

The ``python -m repro.net.*`` servers expose all of this as
``--data-dir``; a restarted publisher rejoins with its table intact and
resumes with one rekey *broadcast* -- zero unicast.
"""

from repro.store.persist import (
    DEFAULT_COMPACT_EVERY,
    IdMgrPersistence,
    PublisherPersistence,
    SubscriberPersistence,
)
from repro.store.snapshots import (
    CredentialRevokedRecord,
    CssExtractedRecord,
    CssInstalledRecord,
    EpochAdvancedRecord,
    IdMgrSnapshot,
    PublisherSnapshot,
    STORE_RECORD_TYPES,
    StateRecord,
    SubscriberSnapshot,
    SubscriptionRevokedRecord,
    TokenHeldRecord,
    TokenIssuedRecord,
    decode_state,
)
from repro.store.state import STORE_VERSION, StateStore
from repro.store.wal import WalRecord, WriteAheadLog, scan_records

__all__ = [
    "DEFAULT_COMPACT_EVERY",
    "IdMgrPersistence",
    "PublisherPersistence",
    "SubscriberPersistence",
    "CredentialRevokedRecord",
    "CssExtractedRecord",
    "CssInstalledRecord",
    "EpochAdvancedRecord",
    "IdMgrSnapshot",
    "PublisherSnapshot",
    "STORE_RECORD_TYPES",
    "StateRecord",
    "SubscriberSnapshot",
    "SubscriptionRevokedRecord",
    "TokenHeldRecord",
    "TokenIssuedRecord",
    "decode_state",
    "STORE_VERSION",
    "StateStore",
    "WalRecord",
    "WriteAheadLog",
    "scan_records",
]
