"""Registration-wave benchmark: the OCBE wall, before and after.

Registration is the system's throughput wall: every joining Sub costs
the Pub one OCBE envelope per matching condition, and each envelope is a
handful of fixed-base exponentiations.  This file measures a full join
wave end to end over the wire stack (token issuance, registration
frames, envelope builds, receiver opens) in two configurations --

* ``naive`` -- the seed's arithmetic: fixed-base tables disabled, every
  exponentiation (``g^x``, ``c_i^y``, each of the receiver's ``eta``
  powers) on the binary double-and-add ladder, inverses by the extended
  Euclid (the references in ``tests/groups/reference.py``);
* ``fast``  -- the library as it ships (tables, NAF kernel, shared
  ``eta`` chain);

-- and asserts the >= 2x floor.  Wire bytes are deterministic in the
seed; the quick case pins them exactly.

The quick case (small N) runs per push in the fast-tier workflow step;
the N=500 wave runs nightly with the rest of the slow tier.
"""

import random

from repro.bench.runner import avg_time, format_table
from repro.gkm.acv import FAST_FIELD
from repro.groups import get_group
from repro.policy.acp import parse_policy
from repro.system.idmgr import IdentityManager
from repro.system.idp import IdentityProvider
from repro.system.publisher import Publisher
from repro.system.service import (
    DisseminationService,
    SubscriberClient,
    run_until_idle,
)
from repro.system.subscriber import Subscriber
from repro.system.transport import InMemoryTransport

SEED = 0xBE7C


class _NaiveTable:
    """Stand-in for :class:`FixedBaseTable` that never precomputes."""

    def __init__(self, base, window=None):
        self.base = base

    def pow(self, exponent):
        return self.base ** exponent


def _legacy_compose_with(self, commitment, aux, message, drawn):
    """The seed's bitwise build: two full pows per bit, no sharing.

    Reproduces the pre-acceleration arithmetic exactly (``(c_i)^y`` and
    ``(c_i g^{-1})^y`` computed independently) so ``naive`` is
    the honest before-this-PR baseline, not a half-accelerated hybrid.
    """
    from typing import List, Tuple

    from repro.errors import ProtocolStateError
    from repro.ocbe.ge import BitwiseEnvelope

    if aux is None or len(aux.commitments) != self.predicate.ell:
        raise ProtocolStateError(
            "expected %d bit commitments" % self.predicate.ell
        )
    params = self.setup.pedersen
    hash_fn = self.setup.hash_fn
    acc = aux.commitments[-1].value
    for i in range(self.predicate.ell - 2, -1, -1):
        acc = acc * acc * aux.commitments[i].value
    if acc != self._check_target(commitment):
        raise ProtocolStateError("bit commitments do not recombine to c")
    y, key_shares, nonce = drawn
    eta = params.h ** y
    g_inv = params.g.inverse()
    bit_ciphers: List[Tuple[bytes, bytes]] = []
    for c_i, k_i in zip(aux.commitments, key_shares):
        row = []
        base = c_i.value
        for j in (0, 1):
            sigma = (base if j == 0 else base * g_inv) ** y
            pad = hash_fn.digest(b"repro/ocbe/bit" + sigma.to_bytes())
            row.append(bytes(a ^ b for a, b in zip(pad, k_i)))
        bit_ciphers.append((row[0], row[1]))
    key = self.setup.envelope_key(b"".join(key_shares))
    return BitwiseEnvelope(
        eta=eta,
        bit_ciphers=tuple(bit_ciphers),
        ciphertext=self.setup.cipher.encrypt(key, message, nonce=nonce),
    )


def _per_bit_powers(base, exponents):
    """The seed's receiver: one full exponentiation of ``eta`` per bit."""
    return [base ** e for e in exponents]


def _disable_acceleration(monkeypatch):
    """Restore the seed's arithmetic: no tables, no shared-pow algebra,
    binary double-and-add for every variable-base power and the
    extended-Euclid inverse."""
    from repro.crypto import pedersen, schnorr_sig
    from repro.groups import _native, elliptic
    from repro.ocbe import ge
    from tests.groups.reference import binary_pow, egcd_modinv

    monkeypatch.setattr(pedersen, "shared_table", _NaiveTable)
    monkeypatch.setattr(
        schnorr_sig, "generator_table", lambda group: _NaiveTable(group.generator())
    )
    monkeypatch.setattr(elliptic.ECPoint, "__pow__", binary_pow)
    monkeypatch.setattr(elliptic, "modinv", egcd_modinv)
    monkeypatch.setattr(_native, "modinv", egcd_modinv)
    monkeypatch.setattr(ge, "same_base_powers", _per_bit_powers)
    monkeypatch.setattr(
        ge._BitwiseSenderBase, "compose_with", _legacy_compose_with
    )


def _build_world(n_subs, conditions_per_sub=2):
    rng = random.Random(SEED)
    group = get_group("nist-p192")
    idp = IdentityProvider("hr", group, rng=rng)
    idmgr = IdentityManager(group, rng=rng)
    idmgr.trust_idp(idp)
    pub = Publisher(
        "pub", idmgr.params, idmgr.public_key, gkm_field=FAST_FIELD,
        attribute_bits=16, rng=rng,
    )
    pub.add_policy(parse_policy("level >= 40", ["s1"], "d"))
    if conditions_per_sub > 1:
        pub.add_policy(parse_policy("level < 10", ["s2"], "d"))
    subscribers = []
    for i in range(n_subs):
        name = "user%d" % i
        idp.enroll(name, "level", 41 + i)
        sub = Subscriber(idmgr.assign_pseudonym(), pub.params, rng=rng)
        token, x, r = idmgr.issue_token(
            sub.nym, idp.assert_attribute(name, "level"), rng=rng
        )
        sub.hold_token(token, x, r)
        subscribers.append(sub)
    return pub, subscribers


def _wave(n_subs, conditions_per_sub=2):
    """One full join wave; returns the transport for byte accounting."""
    pub, subscribers = _build_world(n_subs, conditions_per_sub)
    transport = InMemoryTransport()
    service = DisseminationService(pub, transport)
    clients = [
        SubscriberClient(sub, transport, pub.name) for sub in subscribers
    ]
    for client in clients:
        client.register_all_attributes()
    run_until_idle([service, *clients])
    assert pub.table.cell_count() == n_subs * conditions_per_sub
    for sub in subscribers:
        assert "level >= 40" in sub.css_store
    return transport


def test_registration_quick(monkeypatch):
    """Per-push microbenchmark: a small wave, naive vs accelerated."""
    n_subs, conds = 8, 2

    _disable_acceleration(monkeypatch)
    naive = avg_time(lambda: _wave(n_subs, conds), rounds=1)
    monkeypatch.undo()

    transports = []
    fast = avg_time(
        lambda: transports.append(_wave(n_subs, conds)), rounds=2
    )
    transport = transports[0]

    print()
    print(format_table(
        "OCBE registration wave, N=%d x %d conditions" % (n_subs, conds),
        ["configuration", "mean ms", "speedup vs naive"],
        [
            ["tables off", naive.mean_ms, 1.0],
            ["tables on", fast.mean_ms, naive.mean / fast.mean],
        ],
    ))

    # Seeded draws: the wave's wire bytes are exact in each direction.
    assert transport.bytes_sent_by("pub") == 21600
    assert sum(
        transport.bytes_sent_by(e) for e in transport.entities() if e != "pub"
    ) == 16680

    # Fixed-base precomputation alone must carry >= 2x end to end; the
    # raw generator-pow speedup is ~6x, so 2x leaves margin for the
    # non-exponentiation share of the wave (framing, GKM, hashing).
    assert naive.mean / fast.mean >= 2.0


def test_registration_wave_64x2(monkeypatch):
    """Nightly 64-subscriber wave: the churn-scale join, before/after."""
    n_subs, conds = 64, 2

    _disable_acceleration(monkeypatch)
    naive = avg_time(lambda: _wave(n_subs, conds), rounds=1)
    monkeypatch.undo()

    fast = avg_time(lambda: _wave(n_subs, conds), rounds=1)

    print()
    print(format_table(
        "OCBE registration wave, N=%d x %d conditions" % (n_subs, conds),
        ["configuration", "mean ms", "speedup vs naive"],
        [
            ["tables off", naive.mean_ms, 1.0],
            ["tables on", fast.mean_ms, naive.mean / fast.mean],
        ],
    ))

    assert naive.mean / fast.mean >= 2.0


def test_registration_wave_n500():
    """Nightly N=500 join wave: the paper-scale shape, in wall seconds."""
    n_subs, conds = 500, 2

    wave = avg_time(lambda: _wave(n_subs, conds), rounds=1)

    print()
    print(format_table(
        "OCBE registration wave, N=%d x %d conditions" % (n_subs, conds),
        ["configuration", "wall s"],
        [["tables on", wave.mean]],
    ))

    # An absolute backstop sized for pure-Python arithmetic on one
    # core, the slowest configuration the suite runs on.
    assert wave.mean < 120.0
