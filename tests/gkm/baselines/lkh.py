"""Logical key hierarchy (LKH) baseline (references [17], [18]).

The key server maintains a binary tree of key-encryption keys; each member
holds the keys on its leaf-to-root path, and the root key is the group key.
A membership change refreshes the keys on one path and broadcasts each new
key encrypted under the keys of its children: ``O(log n)`` messages.

The paper's criticism -- which this implementation makes measurable -- is
that members are **stateful**: each member must track ``O(log n)``
auxiliary keys and apply every rekey broadcast, whereas ACV-BGKM members
keep nothing but their CSSs.  Member state is modelled explicitly here
(`_views`): ``derive`` replays a broadcast against the member's persistent
key view exactly like a real LKH client would.
"""

from __future__ import annotations

import itertools
import random
import secrets
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.symmetric import SymmetricCipher, default_cipher
from repro.errors import DecryptionError, GKMError, KeyDerivationError
from tests.gkm.baselines.base import BroadcastGkm, RekeyBroadcast

__all__ = ["LkhGkm"]

_node_ids = itertools.count(1)


@dataclass
class _Node:
    """A node of the key tree (stable ``node_id`` across restructuring)."""

    key: bytes
    node_id: int = field(default_factory=lambda: next(_node_ids))
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    parent: Optional["_Node"] = None
    member_id: Optional[str] = None  # leaves only

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def depth(self) -> int:
        d, node = 0, self
        while node.parent is not None:
            d += 1
            node = node.parent
        return d


@dataclass(frozen=True)
class _RekeyMessage:
    """``new key for node_id``, encrypted under one child's current key."""

    node_id: int
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">II", self.node_id, len(self.ciphertext)) + self.ciphertext
        )


class LkhGkm(BroadcastGkm):
    """Key-tree GKM with O(log n) rekey messages per membership change."""

    name = "lkh"

    def __init__(self, key_len: int = 16, cipher: Optional[SymmetricCipher] = None):
        super().__init__()
        self.key_len = key_len
        self.cipher = cipher or default_cipher()
        self._root: Optional[_Node] = None
        self._leaf: Dict[str, _Node] = {}
        self._views: Dict[str, Dict[int, bytes]] = {}  # member-side key state
        self._pending: List[_RekeyMessage] = []
        self._rng: Optional[random.Random] = None

    # -- internals ----------------------------------------------------------

    def _new_key(self) -> bytes:
        if self._rng is not None:
            return bytes(self._rng.randrange(256) for _ in range(self.key_len))
        return secrets.token_bytes(self.key_len)

    def _shallowest_leaf(self) -> _Node:
        assert self._root is not None
        queue = [self._root]
        while queue:
            node = queue.pop(0)
            if node.is_leaf:
                return node
            queue.extend(c for c in (node.left, node.right) if c is not None)
        raise GKMError("tree has no leaves")

    def _refresh_ancestors(self, node: Optional[_Node]) -> None:
        """Fresh keys for ``node`` and all its ancestors, bottom-up, with one
        broadcast message per (refreshed node, child)."""
        while node is not None:
            node.key = self._new_key()
            for child in (node.left, node.right):
                if child is not None:
                    self._pending.append(
                        _RekeyMessage(
                            node_id=node.node_id,
                            ciphertext=self.cipher.encrypt(child.key, node.key),
                        )
                    )
            node = node.parent

    # -- membership hooks ----------------------------------------------------

    def _on_join(self, member_id: str, secret: bytes) -> None:
        leaf = _Node(key=secret, member_id=member_id)
        self._leaf[member_id] = leaf
        self._views[member_id] = {leaf.node_id: secret}
        if self._root is None:
            self._root = leaf
            return
        split = self._shallowest_leaf()
        internal = _Node(key=b"", parent=split.parent)
        if split.parent is None:
            self._root = internal
        elif split.parent.left is split:
            split.parent.left = internal
        else:
            split.parent.right = internal
        internal.left = split
        internal.right = leaf
        split.parent = internal
        leaf.parent = internal
        # Fresh keys from the new internal node up to the root: the joiner
        # learns only post-join keys (backward secrecy).
        self._refresh_ancestors(internal)

    def _on_leave(self, member_id: str) -> None:
        leaf = self._leaf.pop(member_id, None)
        self._views.pop(member_id, None)
        if leaf is None:
            raise GKMError("member %r has no leaf" % member_id)
        parent = leaf.parent
        if parent is None:
            self._root = None
            return
        sibling = parent.right if parent.left is leaf else parent.left
        assert sibling is not None
        grandparent = parent.parent
        sibling.parent = grandparent
        if grandparent is None:
            self._root = sibling
        elif grandparent.left is parent:
            grandparent.left = sibling
        else:
            grandparent.right = sibling
        # Fresh keys on the remaining path (forward secrecy).
        self._refresh_ancestors(grandparent)

    # -- keying -----------------------------------------------------------------

    def rekey(self, rng: Optional[random.Random] = None) -> Tuple[bytes, RekeyBroadcast]:
        """Flush pending membership rekeys; also refresh the root key."""
        self._rng = rng
        if self._root is None:
            raise GKMError("cannot rekey an empty group")
        if not self._root.is_leaf:
            self._root.key = self._new_key()
            for child in (self._root.left, self._root.right):
                if child is not None:
                    self._pending.append(
                        _RekeyMessage(
                            node_id=self._root.node_id,
                            ciphertext=self.cipher.encrypt(child.key, self._root.key),
                        )
                    )
        messages = tuple(self._pending)
        self._pending = []
        self._rng = None
        payload = b"".join(m.to_bytes() for m in messages)
        # LKH members are stateful: every client must process every rekey
        # broadcast or lose the ability to chain to the root (the paper's
        # reliability criticism of hierarchy schemes).  We model reliable
        # delivery: each current member's view absorbs the broadcast now;
        # derive() then replays it idempotently.
        for view in self._views.values():
            self._apply_broadcast(view, messages)
        return self._root.key, RekeyBroadcast(
            scheme=self.name, payload=payload, parts=messages
        )

    def _apply_broadcast(self, view: Dict[int, bytes], messages) -> None:
        """Decrypt every reachable message into ``view`` (multi-pass)."""
        pending = list(messages or ())
        progress = True
        while progress and pending:
            progress = False
            remaining = []
            for message in pending:
                decrypted = None
                for known_key in list(view.values()):
                    try:
                        decrypted = self.cipher.decrypt(known_key, message.ciphertext)
                        break
                    except DecryptionError:
                        continue
                if decrypted is None:
                    remaining.append(message)
                else:
                    view[message.node_id] = decrypted
                    progress = True
            pending = remaining

    def derive(self, secret: bytes, broadcast: RekeyBroadcast) -> bytes:
        """Replay the broadcast against the member's persistent key view."""
        member_id = next(
            (mid for mid, s in self._members.items() if s == secret), None
        )
        if member_id is None or member_id not in self._views:
            raise KeyDerivationError("secret does not belong to a member")
        view = self._views[member_id]
        self._apply_broadcast(view, broadcast.parts)
        assert self._root is not None
        root_key = view.get(self._root.node_id)
        if root_key is None:
            if self._root.is_leaf and self._root.member_id == member_id:
                return secret
            raise KeyDerivationError("could not reach the root key")
        return root_key

    # -- introspection -------------------------------------------------------

    def member_state_size(self, member_id: str) -> int:
        """Bytes of key material the member currently stores (the O(log n)
        client-state cost the paper contrasts with ACV-BGKM's O(1))."""
        view = self._views.get(member_id, {})
        return sum(len(k) for k in view.values())

    def tree_depth(self) -> int:
        """Maximum leaf depth (sanity metric for balance)."""
        if self._root is None:
            return 0
        return max(leaf.depth() for leaf in self._leaf.values())
