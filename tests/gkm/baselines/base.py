"""Common interface for flat-membership broadcast GKM schemes.

A :class:`BroadcastGkm` manages one logical group: members join and leave,
and every ``rekey()`` produces a fresh group key plus a broadcast payload
from which *current* members -- and only they -- can derive the key using
their long-lived personal secret.  This captures exactly the contract the
paper's evaluation compares schemes on:

* rekey computation time at the publisher,
* broadcast payload size,
* key-derivation time at a subscriber,
* forward/backward secrecy across membership changes.

ACV-BGKM's native API is policy-aware (rows of CSSs); the adapter in
:mod:`tests.gkm.baselines.acv` maps this flat interface onto the
publish-path dense strategy for head-to-head benchmarks.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import GKMError

__all__ = ["RekeyBroadcast", "BroadcastGkm"]


@dataclass(frozen=True)
class RekeyBroadcast:
    """One rekey's public payload.

    ``payload`` is the canonical wire encoding (used for size accounting);
    ``parts`` optionally keeps the structured form so ``derive`` does not
    have to re-parse.
    """

    scheme: str
    payload: bytes
    parts: object = None

    def byte_size(self) -> int:
        """Broadcast size in bytes."""
        return len(self.payload)


class BroadcastGkm(abc.ABC):
    """A key-managed group with join/leave/rekey/derive."""

    #: Human-readable scheme name (used in benchmark tables).
    name: str = "abstract"

    def __init__(self) -> None:
        self._members: Dict[str, bytes] = {}

    # -- membership ------------------------------------------------------------

    @property
    def members(self) -> Dict[str, bytes]:
        """Current member secrets, keyed by member id (publisher view)."""
        return dict(self._members)

    def join(self, member_id: str, secret: bytes) -> None:
        """Add a member with its long-lived personal secret."""
        if member_id in self._members:
            raise GKMError("member %r already present" % member_id)
        self._members[member_id] = secret
        self._on_join(member_id, secret)

    def leave(self, member_id: str) -> None:
        """Remove a member (its old secret must stop working after rekey)."""
        if member_id not in self._members:
            raise GKMError("member %r not present" % member_id)
        del self._members[member_id]
        self._on_leave(member_id)

    def _on_join(self, member_id: str, secret: bytes) -> None:
        """Hook for schemes with per-membership state (default: none)."""

    def _on_leave(self, member_id: str) -> None:
        """Hook for schemes with per-membership state (default: none)."""

    # -- keying -----------------------------------------------------------------

    @abc.abstractmethod
    def rekey(self, rng: Optional[random.Random] = None) -> Tuple[bytes, RekeyBroadcast]:
        """Draw a fresh group key; return ``(key, broadcast)``."""

    @abc.abstractmethod
    def derive(self, secret: bytes, broadcast: RekeyBroadcast) -> bytes:
        """Member-side key derivation from a personal secret.

        Raises :class:`KeyDerivationError` when the secret does not belong
        to a current member.
        """

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        return "%s(members=%d)" % (type(self).__name__, len(self._members))
