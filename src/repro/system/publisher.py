"""The Publisher (Pub): policies, CSS table, registration, broadcast.

The Pub's lifecycle per Section V:

1. **Setup** -- choose the GKM field ``F_q``, the hash, the symmetric
   cipher and the CSS length kappa; publish them (``SystemParams``).
2. **Registration** (Section V-B) -- per (token, condition): verify the
   IdMgr signature and the tag match, mint a fresh CSS, store it in table
   ``T``, and obliviously transfer it with the OCBE protocol matching the
   condition's operator.  The Pub never learns the attribute value nor
   whether the transfer succeeded.
3. **Broadcast** (Section V-C) -- segment each document by policy
   configuration, generate one ACV-BGKM key+header per configuration from
   the current table, and emit a :class:`BroadcastPackage`.
4. **Rekey** -- any table mutation (new subscription, credential update or
   revocation, subscription revocation) simply marks configurations dirty;
   the next broadcast re-publishes fresh headers.  No unicast happens.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashes import HashFunction, default_hash
from repro.crypto.pedersen import PedersenParams
from repro.crypto.symmetric import SymmetricCipher, default_cipher
from repro.documents.model import Document
from repro.documents.package import (
    BroadcastPackage,
    ConfigHeader,
    EncryptedSubdocument,
)
from repro.documents.segmentation import SegmentPlan, segment
from repro.errors import RegistrationError, SignatureError
from repro.gkm.acv import PAPER_FIELD, AcvBgkm
from repro.gkm.strategy import AcvBuildCache, build_strategy
from repro.groups.base import GroupElement
from repro.mathx.field import PrimeField
from repro.ocbe.base import OCBESetup, sender_for
from repro.ocbe.predicates import DEFAULT_BIT_LENGTH
from repro.policy.acp import AccessControlPolicy
from repro.policy.condition import AttributeCondition
from repro.system.css import CssTable
from repro.system.identity import IdentityToken

__all__ = ["SystemParams", "Publisher", "RegistrationOffer"]


@dataclass(frozen=True)
class SystemParams:
    """Everything a subscriber needs to interoperate with a publisher."""

    pedersen: PedersenParams
    idmgr_public_key: GroupElement
    gkm_field: PrimeField
    hash_fn: HashFunction
    cipher: SymmetricCipher
    key_len: int
    attribute_bits: int


@dataclass
class RegistrationOffer:
    """One pending OCBE delivery of a CSS for (token, condition).

    This is Pub-internal state: :class:`~repro.wire.sessions.PublisherRegistrationSession`
    holds one per in-flight registration while it waits for the receiver's
    auxiliary commitments to arrive over the wire.
    """

    condition: AttributeCondition
    sender: object  # an OCBE sender session
    token: IdentityToken
    css: bytes


class Publisher:
    """The content publisher."""

    def __init__(
        self,
        name: str,
        pedersen: PedersenParams,
        idmgr_public_key: GroupElement,
        gkm_field: PrimeField = PAPER_FIELD,
        hash_fn: Optional[HashFunction] = None,
        cipher: Optional[SymmetricCipher] = None,
        css_bytes: int = 16,
        key_len: int = 16,
        attribute_bits: int = DEFAULT_BIT_LENGTH,
        capacity_slack: int = 0,
        rng: Optional[random.Random] = None,
        gkm: str = "dense",
        gkm_bucket_size: Optional[int] = None,
        acv_cache: bool = True,
    ):
        """``capacity_slack`` extra columns beyond the Eq.-1 minimum let the
        publisher hide the exact subscriber count and amortise joins.

        ``gkm`` picks the publish-path strategy (``"dense"`` = one ACV
        per configuration, the paper's baseline; ``"bucketed"`` = the
        Section VIII-C row-order bucket layout with a shared key per
        configuration).  ``gkm_bucket_size`` fixes the rows-per-bucket
        (``None`` = the auto ``ceil(sqrt(m))`` policy).  ``acv_cache``
        keeps the (member-row set, epoch)-keyed elimination cache on so
        unchanged configurations across consecutive publishes skip the
        cubic solve; joins/revocations invalidate it.
        """
        self.name = name
        self.params = SystemParams(
            pedersen=pedersen,
            idmgr_public_key=idmgr_public_key,
            gkm_field=gkm_field,
            hash_fn=hash_fn or default_hash(),
            cipher=cipher or default_cipher(),
            key_len=key_len,
            attribute_bits=attribute_bits,
        )
        self.table = CssTable()
        self.policies: List[AccessControlPolicy] = []
        self._condition_map: Optional[Dict[str, AttributeCondition]] = None
        self.css_bytes = css_bytes
        self.capacity_slack = capacity_slack
        self._gkm = AcvBgkm(gkm_field, self.params.hash_fn)
        self._acv_cache = AcvBuildCache() if acv_cache else None
        self.gkm = gkm
        self.gkm_bucket_size = gkm_bucket_size
        self._strategy = build_strategy(
            gkm, self._gkm, self._acv_cache, gkm_bucket_size
        )
        self._ocbe = OCBESetup(
            pedersen=pedersen,
            hash_fn=self.params.hash_fn,
            cipher=self.params.cipher,
            key_len=key_len,
        )
        self._rng = rng
        #: Keys of the most recent publish, per (document, config id) --
        #: retained for tests/audits only; a real Pub may discard them.
        self.last_keys: Dict[Tuple[str, str], int] = {}
        #: GKM epoch: how many ACV rekey broadcasts this table has gone
        #: out under.  Advanced by every :meth:`publish`; restored by the
        #: durability layer so a recovered publisher resumes its history.
        self.epoch = 0
        #: Optional durability hook (:mod:`repro.store.persist`): every
        #: state transition below announces itself here *before* the
        #: triggering reply is built, which is what makes the journal
        #: write-ahead.  ``None`` keeps the publisher purely in-memory.
        self.journal = None

    @property
    def ocbe_setup(self) -> OCBESetup:
        """The OCBE setup shared by every registration (public params only)."""
        return self._ocbe

    # -- GKM strategy ----------------------------------------------------------

    def set_gkm_strategy(
        self, gkm: str, bucket_size: Optional[int] = None
    ) -> None:
        """Switch the publish-path GKM strategy (see ``__init__``).

        Also used by :mod:`repro.store.persist` during recovery so a
        restarted publisher rekeys under the same strategy and bucket
        layout its durable table was broadcast with.
        """
        self._strategy = build_strategy(
            gkm, self._gkm, self._acv_cache, bucket_size
        )
        self.gkm = gkm
        self.gkm_bucket_size = bucket_size
        self._invalidate_acv_cache()
        if self.journal is not None:
            self.journal.gkm_strategy_changed(gkm, bucket_size or 0)

    def bucket_size_for(self, row_count: int) -> Optional[int]:
        """Effective rows-per-bucket for ``row_count`` rows (None = dense)."""
        resolve = getattr(self._strategy, "resolve_bucket_size", None)
        return resolve(row_count) if resolve is not None else None

    def bucket_layout_for(self, rows) -> Optional[list]:
        """The exact row-order bucket layout the strategy would broadcast
        for ``rows`` (None = dense).  The invariant checker audits against
        this instead of re-deriving the chunk rule, so checker and publish
        path can never disagree about the layout."""
        chunk = getattr(self._strategy, "chunk", None)
        return chunk(rows) if chunk is not None else None

    def acv_cache_stats(self) -> Dict[str, int]:
        """Hit/miss/extend/epoch counters of the ACV build cache (all zero
        when the cache is disabled)."""
        if self._acv_cache is None:
            return {"hits": 0, "misses": 0, "extends": 0, "epoch": 0, "entries": 0}
        return self._acv_cache.stats()

    def _invalidate_acv_cache(self) -> None:
        """A row was removed or replaced (revoke / credential replacement /
        policy or strategy change): cached ``(zs, Y)`` pairs and their
        factorizations must not survive into the new epoch."""
        if self._acv_cache is not None:
            self._acv_cache.invalidate()

    def _note_acv_join(self) -> None:
        """A brand-new CSS cell was installed (pure join): entries stay --
        untouched configurations exact-hit, grown ones extend their
        carried factorization incrementally (O(m^2) instead of a fresh
        elimination)."""
        if self._acv_cache is not None:
            self._acv_cache.note_join()

    # -- policy management ----------------------------------------------------

    def add_policy(self, policy: AccessControlPolicy) -> None:
        """Install an access control policy."""
        self.policies.append(policy)
        self._condition_map = None  # invalidate the key -> condition cache
        self._invalidate_acv_cache()

    def condition_map(self) -> Dict[str, AttributeCondition]:
        """Distinct conditions keyed by their stable key (cached; rebuilt on
        ``add_policy``).  Every RegistrationRequest resolves through this."""
        if self._condition_map is None:
            seen: Dict[str, AttributeCondition] = {}
            for policy in self.policies:
                for condition in policy.conditions:
                    seen.setdefault(condition.key(), condition)
            self._condition_map = seen
        return self._condition_map

    def conditions(self) -> List[AttributeCondition]:
        """All distinct conditions across installed policies."""
        seen = self.condition_map()
        return [seen[k] for k in sorted(seen)]

    def conditions_for_attribute(self, attribute: str) -> List[AttributeCondition]:
        """Conditions mentioning ``attribute`` (what a Sub registers for)."""
        return [c for c in self.conditions() if c.name == attribute]

    def condition_by_key(self, condition_key: str) -> AttributeCondition:
        """Resolve a wire-carried condition key to the installed condition."""
        condition = self.condition_map().get(condition_key)
        if condition is None:
            raise RegistrationError(
                "no installed policy mentions condition %r" % condition_key
            )
        return condition

    # -- registration (Section V-B) -------------------------------------------

    def _verify_token(self, token: IdentityToken) -> None:
        from repro.crypto.schnorr_sig import verify

        if not verify(
            self.params.pedersen.group,
            self.params.idmgr_public_key,
            token.signing_bytes(),
            token.signature,
        ):
            raise SignatureError("identity token signature invalid")

    def open_registration(
        self, token: IdentityToken, condition: AttributeCondition
    ) -> RegistrationOffer:
        """Step 2 of Section V-B for one (token, condition) pair.

        Verifies the token, mints a fresh CSS, stores it in ``T``
        (overwriting any previous CSS -- credential update), and returns
        the OCBE sender session that will obliviously deliver it.
        """
        if token.tag != condition.name:
            raise RegistrationError(
                "token tag %r does not match condition attribute %r"
                % (token.tag, condition.name)
            )
        self._verify_token(token)
        if self._rng is not None:
            css = bytes(self._rng.randrange(256) for _ in range(self.css_bytes))
        else:
            css = secrets.token_bytes(self.css_bytes)
        predicate = condition.predicate(self.params.attribute_bits)
        # Each offer's sender draws from its own RNG stream, seeded from
        # the master RNG here -- at offer creation, in strict arrival
        # order.  Envelope randomness then no longer depends on the order
        # envelopes are *built* in (aux frames of concurrent subscribers
        # interleave freely), so a seeded run replays frame for frame.
        sender_rng = (
            random.Random(self._rng.getrandbits(64))
            if self._rng is not None
            else None
        )
        sender = sender_for(self._ocbe, predicate, sender_rng)
        # A brand-new cell is a pure join: the ACV cache keeps (and later
        # extends) its entries.  Overwriting an existing cell is a
        # credential *replacement*: the old CSS must stop deriving, which
        # demands fresh nonces -- full invalidation.
        credential_update = self.table.has(token.nym, condition.key())
        self.table.set(token.nym, condition.key(), css)
        if credential_update:
            self._invalidate_acv_cache()
        else:
            self._note_acv_join()
        if self.journal is not None:
            self.journal.css_installed(token.nym, condition.key(), css)
        return RegistrationOffer(
            condition=condition, sender=sender, token=token, css=css
        )

    # -- membership changes (Section V-C) ---------------------------------------

    def revoke_subscription(self, nym: str) -> bool:
        """Remove a pseudonym entirely; next publish is the rekey."""
        removed = self.table.remove_row(nym)
        if removed:
            self._invalidate_acv_cache()
            if self.journal is not None:
                self.journal.subscription_revoked(nym)
        return removed

    def revoke_subscriptions(self, nyms: Sequence[str]) -> int:
        """Batch subscription revocation: remove many pseudonyms at once.

        Returns how many were actually present.  The point of batching is
        the rekey cost model: a churn step that revokes ``k`` members and
        then calls :meth:`publish` *once* pays for one ACV matrix build,
        where the naive revoke-publish-revoke-publish loop pays ``k``
        (measured by ``benchmarks/test_load_scenarios.py``).
        """
        return sum(1 for nym in nyms if self.revoke_subscription(nym))

    def revoke_credential(self, nym: str, condition_key: str) -> bool:
        """Remove one CSS; next publish is the rekey."""
        removed = self.table.remove_cell(nym, condition_key)
        if removed:
            self._invalidate_acv_cache()
            if self.journal is not None:
                self.journal.credential_revoked(nym, condition_key)
        return removed

    # -- broadcast (Section V-C) --------------------------------------------------

    def plan(self, document: Document) -> SegmentPlan:
        """The segmentation plan for a document under current policies."""
        return segment(document, self.policies)

    def publish(
        self,
        document: Document,
        rng: Optional[random.Random] = None,
        capacity: Optional[int] = None,
    ) -> BroadcastPackage:
        """Encrypt and package ``document``; fresh keys per configuration.

        Calling publish again after any table change *is* the rekey
        process: subscribers derive the new keys from the new headers with
        their unchanged CSSs.
        """
        rng = rng if rng is not None else self._rng
        plan = self.plan(document)
        headers: List[ConfigHeader] = []
        encrypted: List[EncryptedSubdocument] = []
        for config_id, config, sub_names in plan.groups:
            if config.is_empty:
                # Example 4 / Pc6: encrypt under a throwaway key, publish no
                # keying material -- nobody is authorized.
                throwaway = (
                    bytes(rng.randrange(256) for _ in range(self.params.key_len))
                    if rng is not None
                    else secrets.token_bytes(self.params.key_len)
                )
                headers.append(
                    ConfigHeader(config_id=config_id, policies=(), acv=None)
                )
                sym_key = throwaway
            else:
                # One table pass builds the rows of every member policy
                # (was one pass per policy): the per-broadcast setup is on
                # the churn hot path, where every phase ends in a rekey.
                policy_keys: List[Tuple[str, ...]] = [
                    acp.condition_keys() for acp in config.sorted_policies()
                ]
                buckets = self.table.rows_for_policies(policy_keys)
                rows: List[Tuple[bytes, ...]] = [
                    row for bucket in buckets for row in bucket
                ]
                key_int, acv_header = self._strategy.build(
                    rows, capacity=capacity, slack=self.capacity_slack, rng=rng
                )
                self.last_keys[(document.name, config_id)] = key_int
                sym_key = self._gkm.export_key(key_int, self.params.key_len)
                headers.append(
                    ConfigHeader(
                        config_id=config_id,
                        policies=tuple(policy_keys),
                        acv=acv_header,
                    )
                )
            for sub_name in sub_names:
                content = document.get(sub_name).content
                encrypted.append(
                    EncryptedSubdocument(
                        name=sub_name,
                        config_id=config_id,
                        ciphertext=self.params.cipher.encrypt(sym_key, content),
                    )
                )
        self.epoch += 1
        if self.journal is not None:
            # Journaled before the package leaves: a publisher that crashes
            # mid-broadcast recovers knowing this epoch's keys are burnt.
            self.journal.epoch_advanced(self.epoch)
        return BroadcastPackage(
            document=document.name,
            headers=tuple(headers),
            subdocuments=tuple(encrypted),
        )
