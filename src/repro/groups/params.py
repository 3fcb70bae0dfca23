"""Named parameter sets and a registry of group backends.

``PAPER_GENUS2`` carries the exact curve printed in Section VII of the
paper: the Gaudry--Schost genus-2 curve over ``F_q`` with
``q = 5*10**24 + 8503491`` whose Jacobian order is the 165-bit prime
``p = 24999999999994130438600999402209463966197516075699``.  Both primality
claims and the Hasse--Weil consistency are verified by the test suite.

The Schnorr safe primes are constants (drawn once by safe-prime search,
seed ``0xC0FFEE``); the test suite re-verifies that both are safe primes.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import InvalidParameterError
from repro.groups.base import CyclicGroup
from repro.groups.elliptic import CurveParams, EllipticCurveGroup
from repro.groups.jacobian import GenusTwoJacobian, JacobianParams
from repro.groups.schnorr import SchnorrGroup

__all__ = [
    "NIST_P192",
    "NIST_P256",
    "SECP256K1",
    "PAPER_GENUS2",
    "SCHNORR_256_PRIME",
    "SCHNORR_512_PRIME",
    "TOY_SCHNORR_PRIME",
    "get_group",
    "default_group",
]

# ---------------------------------------------------------------------------
# Elliptic curves (all cofactor 1, prime order)
# ---------------------------------------------------------------------------

NIST_P192 = CurveParams(
    name="nist-p192",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x64210519E59C80E70FA7E9AB72243049FEB8DEECC146B9B1,
    gx=0x188DA80EB03090F67CBF20EB43A18800F4FF0AFD82FF1012,
    gy=0x07192B95FFC8DA78631011ED6B24CDD573F977A11E794811,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFF99DEF836146BC9B1B4D22831,
)

NIST_P256 = CurveParams(
    name="nist-p256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)

SECP256K1 = CurveParams(
    name="secp256k1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
    a=0,
    b=7,
    gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
)

# ---------------------------------------------------------------------------
# The paper's genus-2 curve (Gaudry & Schost, EUROCRYPT 2004)
# ---------------------------------------------------------------------------

PAPER_GENUS2 = JacobianParams(
    name="paper-genus2",
    q=5 * 10**24 + 8503491,
    f_coeffs=(
        4797309959708489673059350,   # f0
        2547674715952929717899918,   # f1
        226591355295993102902116,    # f2
        2682810822839355644900736,   # f3
        0,                           # f4
        1,                           # x^5
    ),
    order=24999999999994130438600999402209463966197516075699,
)

# ---------------------------------------------------------------------------
# Safe primes for Schnorr groups (drawn once by safe-prime search, seed
# 0xC0FFEE; primality re-verified in tests/groups/test_params.py)
# ---------------------------------------------------------------------------

SCHNORR_256_PRIME = (
    72757736075102843898101031069858837601921341236159755033219945696461260084459
)
SCHNORR_512_PRIME = int(
    "104434408193625296319608743409752901226364924380182439130499041252805"
    "08805505374103336242645957235964544991327159833360275824848686510628125"
    "348155376153967".replace("\n", "")
)

#: Tiny toy group (p = 23 = 2*11 + 1) for exhaustive unit tests.
TOY_SCHNORR_PRIME = 23

# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[], CyclicGroup]] = {
    "nist-p192": lambda: EllipticCurveGroup(NIST_P192),
    "nist-p256": lambda: EllipticCurveGroup(NIST_P256),
    "secp256k1": lambda: EllipticCurveGroup(SECP256K1),
    "paper-genus2": lambda: GenusTwoJacobian(PAPER_GENUS2),
    "schnorr-256": lambda: SchnorrGroup(SCHNORR_256_PRIME, name="schnorr-256"),
    "schnorr-512": lambda: SchnorrGroup(SCHNORR_512_PRIME, name="schnorr-512"),
    "toy-schnorr": lambda: SchnorrGroup(TOY_SCHNORR_PRIME, name="toy-schnorr"),
}

_CACHE: Dict[str, CyclicGroup] = {}


def get_group(name: str) -> CyclicGroup:
    """Look up a group backend by registry name (instances are cached)."""
    if name not in _REGISTRY:
        raise InvalidParameterError(
            "unknown group %r; available: %s" % (name, ", ".join(sorted(_REGISTRY)))
        )
    if name not in _CACHE:
        _CACHE[name] = _REGISTRY[name]()
    return _CACHE[name]


def default_group() -> CyclicGroup:
    """The default backend for protocol layers (fast EC curve).

    The paper's own backend is available as ``get_group("paper-genus2")``;
    every protocol accepts any backend, and the benchmark harness runs both.
    """
    return get_group("nist-p192")

