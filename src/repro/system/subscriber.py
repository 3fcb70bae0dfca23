"""The Subscriber (Sub): tokens, CSS store, key derivation, decryption.

A Sub holds its identity tokens with their private openings ``(x, r)`` and
the CSSs it managed to extract during registration.  Receiving a broadcast
(Section V-C "Decryption Key Derivation"):

* for each subdocument, look at its configuration header;
* pick a member policy whose condition keys all have local CSSs;
* build the KEV from those CSSs and the published nonces and compute
  ``K = KEV . X``;
* authenticated decryption confirms the key (a Sub that *thinks* it
  qualifies but holds a stale/garbage CSS just fails and tries the next
  policy).

The KEV entries depend on the CSSs and the nonces only, and the nonces
change only when the membership does, so a Sub remembers them between
broadcasts (:data:`KEV_MEMO_ENTRIES`): an unchanged configuration costs a
nonce comparison and the inner product instead of ``N`` hashes.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.documents.package import BroadcastPackage, ConfigHeader
from repro.errors import DecryptionError, RegistrationError
from repro.gkm.acv import AcvBgkm, AcvHeader
from repro.gkm.buckets import BucketedHeader
from repro.obs.trace import stage
from repro.ocbe.base import OCBESetup
from repro.system.identity import IdentityToken
from repro.system.publisher import SystemParams

__all__ = ["Subscriber", "TokenWallet", "KEV_MEMO_ENTRIES"]

#: How many (configuration, CSS tuple) pairs a Sub keeps KEV entries for,
#: least recently used first out.  An honest package needs one per policy
#: the Sub satisfies; the bound is for a hostile one whose policy lists
#: name the Sub's condition keys in thousands of combinations.
KEV_MEMO_ENTRIES = 64


@dataclass
class TokenWallet:
    """A token plus its private opening."""

    token: IdentityToken
    x: int
    r: int


class Subscriber:
    """A subscribing client."""

    def __init__(
        self,
        nym: str,
        params: SystemParams,
        rng: Optional[random.Random] = None,
    ):
        self.nym = nym
        self.params = params
        self._wallet: Dict[str, TokenWallet] = {}
        self.css_store: Dict[str, bytes] = {}
        self._gkm = AcvBgkm(params.gkm_field, params.hash_fn)
        self._ocbe = OCBESetup(
            pedersen=params.pedersen,
            hash_fn=params.hash_fn,
            cipher=params.cipher,
            key_len=params.key_len,
        )
        self._rng = rng
        #: (config id, CSS tuple) -> {(q, nonces): Eq. 2 values, ``None``
        #: where not yet needed} for the ACVs of the last header seen under
        #: that key.  Derived from what the Sub holds anyway (its CSSs, the
        #: public nonces), so it is rebuilt on demand and never journaled.
        self._kev_memo: "OrderedDict[tuple, Dict[tuple, List[Optional[int]]]]" = (
            OrderedDict()
        )
        #: Optional durability hook (:mod:`repro.store.persist`): wallet
        #: entries and extracted CSSs announce themselves here so a crashed
        #: subscriber process resumes without re-running OCBE transfers.
        self.journal = None

    @property
    def rng(self) -> Optional[random.Random]:
        """The deterministic RNG this subscriber was built with (or None)."""
        return self._rng

    @property
    def ocbe_setup(self) -> OCBESetup:
        """The OCBE parameters shared with the publisher."""
        return self._ocbe

    # -- identity ------------------------------------------------------------

    def hold_token(self, token: IdentityToken, x: int, r: int) -> None:
        """Store a token and its opening received from the IdMgr."""
        if token.nym != self.nym:
            raise RegistrationError(
                "token pseudonym %r does not match subscriber %r"
                % (token.nym, self.nym)
            )
        self._wallet[token.tag] = TokenWallet(token=token, x=x, r=r)
        if self.journal is not None:
            self.journal.token_held(token, x, r)

    def store_css(self, condition_key: str, css: bytes) -> None:
        """Keep an extracted CSS (journaled when durability is attached).

        The registration sessions call this instead of poking
        :attr:`css_store` directly, so the write-ahead record is on disk
        before any later broadcast relies on the secret being held."""
        self.css_store[condition_key] = css
        if self.journal is not None:
            self.journal.css_extracted(condition_key, css)

    def token_for(self, attribute: str) -> IdentityToken:
        """The held token for an attribute tag."""
        return self.wallet_for(attribute).token

    def wallet_for(self, attribute: str) -> TokenWallet:
        """The held token *with its private opening* for an attribute tag.

        Only this Sub's own registration sessions may call this; the
        opening never crosses the wire.
        """
        if attribute not in self._wallet:
            raise RegistrationError("no token for attribute %r" % attribute)
        return self._wallet[attribute]

    def attribute_tags(self) -> List[str]:
        """Tags of all held tokens."""
        return sorted(self._wallet)

    def wallet_entries(self) -> List[TokenWallet]:
        """Every held token with its opening, sorted by tag (the snapshot
        view; like :meth:`wallet_for`, never crosses the wire)."""
        return [self._wallet[tag] for tag in self.attribute_tags()]

    # -- broadcast consumption ---------------------------------------------------

    def _derive_config_key(self, header: ConfigHeader) -> List[bytes]:
        """Candidate symmetric keys for a configuration, one per satisfiable
        policy (most Subs satisfy at most one).

        A bucketed header yields one candidate per bucket: the Sub does
        not learn its bucket index (publishing an assignment would leak
        membership structure), so it derives from every bucket and lets
        authenticated decryption pick the real key -- wrong buckets
        produce unpredictable field elements, exactly like a stale CSS.
        """
        if header.acv is None:
            return []
        candidates = []
        for condition_keys in header.policies:
            if all(key in self.css_store for key in condition_keys):
                css = tuple(self.css_store[key] for key in condition_keys)
                if isinstance(header.acv, BucketedHeader):
                    acvs = header.acv.buckets
                else:
                    acvs = (header.acv,)
                memos = self._kev_memos(header.config_id, css, acvs)
                with stage("acv.derive", candidates=len(acvs)):
                    candidates.extend(
                        self._gkm.export_key(
                            self._gkm.derive(acv, css, memo), self.params.key_len
                        )
                        for acv, memo in zip(acvs, memos)
                    )
        return candidates

    def _kev_memos(
        self, config_id: str, css: Tuple[bytes, ...], acvs: Sequence[AcvHeader]
    ) -> List[List[Optional[int]]]:
        """The Eq. 2 memo to derive each of ``acvs`` with, kept for next time.

        An ACV whose modulus and nonces equal one of the last header's
        continues that one's memo (per bucket, wherever the bucket moved);
        any other starts empty.  What the last header had and this one
        lacks is dropped, so a rekey with fresh nonces -- every revoke and
        every join that re-solves -- replaces the entry wholesale.
        """
        key = (config_id, css)
        last = self._kev_memo.get(key, {})
        current: Dict[tuple, List[Optional[int]]] = {}
        memos = []
        for acv in acvs:
            nonces = (acv.q, acv.zs)
            memo = current.get(nonces)
            if memo is None:
                memo = last.get(nonces) or [None] * acv.capacity
                current[nonces] = memo
            memos.append(memo)
        self._kev_memo[key] = current
        self._kev_memo.move_to_end(key)
        while len(self._kev_memo) > KEV_MEMO_ENTRIES:
            self._kev_memo.popitem(last=False)
        return memos

    def receive(self, package: BroadcastPackage) -> Dict[str, bytes]:
        """Decrypt every subdocument this Sub is authorized for.

        Returns ``{subdocument name: plaintext}``; unauthorized portions
        are simply absent (their ciphertexts are indistinguishable from
        random without the key).
        """
        keys_by_config: Dict[str, List[bytes]] = {}
        for header in package.headers:
            keys_by_config[header.config_id] = self._derive_config_key(header)
        plaintexts: Dict[str, bytes] = {}
        for sub in package.subdocuments:
            keys = keys_by_config.get(sub.config_id)
            if not keys:
                continue
            with stage("cipher", candidates=len(keys), size=len(sub.ciphertext)):
                for key in keys:
                    try:
                        plaintexts[sub.name] = self.params.cipher.decrypt(
                            key, sub.ciphertext
                        )
                        break
                    except DecryptionError:
                        continue
        return plaintexts

    def __repr__(self) -> str:
        return "Subscriber(nym=%r, tokens=%d, css=%d)" % (
            self.nym,
            len(self._wallet),
            len(self.css_store),
        )
