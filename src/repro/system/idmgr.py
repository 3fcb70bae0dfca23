"""The Identity Manager: trusted third party issuing identity tokens.

The IdMgr (Section V-A) runs the Pedersen setup, publishes
``Param = (G, g, h)`` plus the group order and its signature key, verifies
IdP assertions, encodes attribute values into ``F_p`` and issues tokens.
It passes the opening ``(x, r)`` privately to the Sub; the token itself
reveals nothing about the value (unconditionally hiding commitment).
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.pedersen import PedersenParams
from repro.crypto.schnorr_sig import SchnorrKeyPair
from repro.errors import SignatureError, SystemError_
from repro.groups.base import CyclicGroup, GroupElement
from repro.policy.encoding import encode_value
from repro.system.identity import AttributeAssertion, IdentityToken, token_signing_bytes
from repro.system.idp import IdentityProvider

__all__ = ["IdentityManager", "PendingIssue"]


@dataclass
class PendingIssue:
    """A validated token issuance whose arithmetic is still to run.

    Produced by :meth:`IdentityManager.begin_issue` /
    :meth:`~IdentityManager.begin_decoy_issue`: the assertion is already
    verified and every random draw (``x`` for decoys, the blinding ``r``,
    the signing RNG stream) already taken, so the remaining work --
    computing ``g^x h^r``, signing, journaling -- is deterministic.
    ``finish_issue`` must be called in delivery order: that is where
    the token is journaled.
    """

    nym: str
    tag: str
    x: int
    r: int
    decoy: bool
    rng: Optional[random.Random]


class IdentityManager:
    """Pedersen setup authority + token issuer."""

    def __init__(
        self,
        group: CyclicGroup,
        rng: Optional[random.Random] = None,
        signing_key: Optional[int] = None,
    ):
        """``signing_key`` restores a previous run's secret scalar (the
        durability layer passes it); omitted, a fresh key is drawn."""
        self.pedersen = PedersenParams(group)
        self._keys = SchnorrKeyPair(group, sk=signing_key, rng=rng)
        self._trusted_idps: Dict[str, IdentityProvider] = {}
        self._nym_counter = 0
        self._rng = rng
        #: Registry of every issued token as ``(nym, tag, decoy?)`` -- the
        #: auditable fact of issuance (the token itself lives with the Sub).
        self.issued: List[Tuple[str, str, bool]] = []
        #: Optional durability hook (:mod:`repro.store.persist`).
        self.journal = None

    # -- public parameters ---------------------------------------------------

    @property
    def params(self) -> PedersenParams:
        """The published commitment parameters ``(G, g, h)``."""
        return self.pedersen

    @property
    def public_key(self) -> GroupElement:
        """Signature verification key (published)."""
        return self._keys.pk

    @property
    def group(self) -> CyclicGroup:
        """The commitment group."""
        return self.pedersen.group

    # -- durable state (the secret half) -------------------------------------

    @property
    def signing_key(self) -> int:
        """The secret signing scalar (snapshot-only; never on the wire)."""
        return self._keys.sk

    @property
    def nym_counter(self) -> int:
        """How many pseudonyms have been assigned."""
        return self._nym_counter

    def restore_signing_key(self, signing_key: int) -> None:
        """Replace the key pair with a recovered secret scalar."""
        self._keys = SchnorrKeyPair(self.group, sk=signing_key)

    def restore_registry(
        self, nym_counter: int, issued: Tuple[Tuple[str, str, bool], ...]
    ) -> None:
        """Restore the pseudonym counter and issued-token registry."""
        self._nym_counter = nym_counter
        self.issued = list(issued)

    # -- administration -------------------------------------------------------

    def trust_idp(self, idp: IdentityProvider) -> None:
        """Add an IdP whose assertions this IdMgr accepts."""
        self._trusted_idps[idp.name] = idp

    def assign_pseudonym(self) -> str:
        """A fresh pseudonym (``pn-0001``, ``pn-0002``, ...)."""
        self._nym_counter += 1
        return "pn-%04d" % self._nym_counter

    # -- token issuance ---------------------------------------------------------

    def issue_decoy_token(
        self,
        nym: str,
        tag: str,
        rng: Optional[random.Random] = None,
    ) -> Tuple[IdentityToken, int, int]:
        """Issue a token committing to an out-of-range decoy value.

        Section VI-A extension: a Sub may obtain tokens "for such
        attributes whose committed values, set by the IdMgr, lie out of
        the 'normal' range of values", letting it register for attributes
        it does not actually hold -- hiding even *which attributes it has*
        from the publisher.  The decoy value is drawn uniformly above
        2**200, far outside every honest attribute domain (integer
        attributes are < 2**l <= 2**64, string encodings < 2**128), so no
        condition can accidentally be satisfied.
        """
        return self.finish_issue(self.begin_decoy_issue(nym, tag, rng=rng))

    def _record_issue(self, nym: str, tag: str, decoy: bool) -> None:
        self.issued.append((nym, tag, decoy))
        if self.journal is not None:
            self.journal.token_issued(nym, tag, decoy)

    def issue_token(
        self,
        nym: str,
        assertion: AttributeAssertion,
        rng: Optional[random.Random] = None,
    ) -> Tuple[IdentityToken, int, int]:
        """Verify the assertion and issue a token.

        Returns ``(token, x, r)`` where ``x`` is the encoded attribute
        value and ``r`` the blinding -- both go only to the Sub.
        """
        return self.finish_issue(self.begin_issue(nym, assertion, rng=rng))

    # -- two-phase issuance (draw, then deterministic arithmetic) -------------

    def begin_issue(
        self,
        nym: str,
        assertion: AttributeAssertion,
        rng: Optional[random.Random] = None,
    ) -> PendingIssue:
        """Validate the assertion and draw all randomness (delivery order).

        :meth:`finish_issue` computes the commitment ``g^x h^r``, signs,
        and journals.
        """
        idp = self._trusted_idps.get(assertion.issuer)
        if idp is None:
            raise SystemError_("untrusted IdP %r" % assertion.issuer)
        if not idp.verify(assertion):
            raise SignatureError("invalid IdP signature on assertion")
        x = encode_value(assertion.value)
        return self._begin(nym, assertion.name, x, decoy=False, rng=rng)

    def begin_decoy_issue(
        self,
        nym: str,
        tag: str,
        rng: Optional[random.Random] = None,
    ) -> PendingIssue:
        """Decoy-value counterpart of :meth:`begin_issue`."""
        use_rng = rng or self._rng
        if use_rng is not None:
            x = (1 << 200) + use_rng.getrandbits(50)
        else:
            x = (1 << 200) + secrets.randbits(50)
        return self._begin(nym, tag, x, decoy=True, rng=rng)

    def _begin(
        self,
        nym: str,
        tag: str,
        x: int,
        decoy: bool,
        rng: Optional[random.Random],
    ) -> PendingIssue:
        # Like the publisher's registration offers, each token gets its
        # own RNG stream seeded from the master here (in delivery order):
        # the blinding and signing nonce are then independent of how many
        # issuances are in flight, so a seeded run issues the same token
        # bytes however begin/finish calls interleave.
        use_rng = rng or self._rng
        if use_rng is not None:
            token_rng: Optional[random.Random] = random.Random(
                use_rng.getrandbits(64)
            )
            r = token_rng.randrange(self.pedersen.order)
        else:
            token_rng = None
            r = secrets.randbelow(self.pedersen.order)
        return PendingIssue(
            nym=nym, tag=tag, x=x, r=r, decoy=decoy, rng=token_rng
        )

    def finish_issue(self, pending: PendingIssue) -> Tuple[IdentityToken, int, int]:
        """Complete a :class:`PendingIssue`: commit, sign, record, journal."""
        commitment = self.pedersen.commit(pending.x, pending.r)[0]
        signature = self._keys.sign(
            token_signing_bytes(pending.nym, pending.tag, commitment),
            rng=pending.rng,
        )
        token = IdentityToken(
            nym=pending.nym,
            tag=pending.tag,
            commitment=commitment,
            signature=signature,
        )
        self._record_issue(pending.nym, pending.tag, decoy=pending.decoy)
        return token, pending.x, pending.r
