"""Cyclic-group backends for commitments and signatures.

The paper instantiates Pedersen commitments in the Jacobian of a genus-2
hyperelliptic curve (via the G2HEC C++ library).  This package provides that
exact construction plus two interchangeable alternatives:

* :class:`~repro.groups.schnorr.SchnorrGroup` -- prime-order subgroup of
  ``Z_p^*`` for a safe prime ``p`` (simplest, easiest to audit),
* :class:`~repro.groups.elliptic.EllipticCurveGroup` -- short-Weierstrass
  curves (NIST P-192/P-256, secp256k1); the fastest backend in pure Python,
* :class:`~repro.groups.jacobian.GenusTwoJacobian` -- Mumford-represented
  divisor classes with Cantor's algorithm, shipped with the exact
  Gaudry--Schost curve printed in Section VII of the paper.

All backends expose the common :class:`~repro.groups.base.CyclicGroup`
interface (multiplicative notation, prime order) so every higher layer is
backend-agnostic.
"""

from repro.groups.base import CyclicGroup, GroupElement
from repro.groups.elliptic import CurveParams, EllipticCurveGroup
from repro.groups.jacobian import GenusTwoJacobian, JacobianParams
from repro.groups.params import (
    NIST_P192,
    NIST_P256,
    PAPER_GENUS2,
    SECP256K1,
    default_group,
    get_group,
)
from repro.groups.precompute import (
    FixedBaseTable,
    generator_table,
    window_size,
)
from repro.groups.schnorr import SchnorrGroup

__all__ = [
    "CyclicGroup",
    "GroupElement",
    "FixedBaseTable",
    "generator_table",
    "window_size",
    "SchnorrGroup",
    "EllipticCurveGroup",
    "CurveParams",
    "GenusTwoJacobian",
    "JacobianParams",
    "NIST_P192",
    "NIST_P256",
    "SECP256K1",
    "PAPER_GENUS2",
    "default_group",
    "get_group",
]
