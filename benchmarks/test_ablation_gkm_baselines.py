"""Ablation A1: ACV-BGKM against every baseline GKM scheme.

Measures publisher rekey time and subscriber derivation time at a fixed
group size, and asserts the broadcast-size ordering the related-work
section predicts (secure lock's CRT payload largest; naive delivery and
the polynomial/marker schemes linear; LKH smallest in steady state).
"""

import random

import pytest

from repro.bench.runner import avg_time, format_table
from tests.gkm.baselines.acpoly import AcPolyGkm
from tests.gkm.baselines.acv import AcvBroadcastGkm
from tests.gkm.baselines.lkh import LkhGkm
from tests.gkm.baselines.marker import MarkerBroadcastGkm
from tests.gkm.baselines.naive import NaiveGkm
from tests.gkm.baselines.secure_lock import SecureLockGkm

N_MEMBERS = 64

FACTORIES = {
    "acv-bgkm": AcvBroadcastGkm,
    "marker": MarkerBroadcastGkm,
    "secure-lock": SecureLockGkm,
    "lkh": LkhGkm,
    "ac-polynomial": AcPolyGkm,
    "naive": NaiveGkm,
}


def build(name):
    rng = random.Random(42)
    scheme = FACTORIES[name]()
    secrets = []
    for i in range(N_MEMBERS):
        secret = bytes(rng.randrange(256) for _ in range(16))
        secrets.append(secret)
        scheme.join("m%03d" % i, secret)
    scheme.rekey(rng)  # flush join transients (LKH)
    return scheme, secrets, rng


@pytest.mark.parametrize("name", list(FACTORIES))
def test_rekey(name):
    scheme, _, rng = build(name)
    m = avg_time(lambda: scheme.rekey(rng), rounds=3)
    print()
    print(format_table(
        "A1 publisher rekey, n=%d" % N_MEMBERS,
        ["scheme", "mean ms"], [[name, m.mean_ms]],
    ))


@pytest.mark.parametrize("name", list(FACTORIES))
def test_derive(name):
    scheme, secrets, rng = build(name)
    key, broadcast = scheme.rekey(rng)
    assert scheme.derive(secrets[7], broadcast) == key
    m = avg_time(lambda: scheme.derive(secrets[7], broadcast), rounds=3)
    print()
    print(format_table(
        "A1 subscriber derivation, n=%d" % N_MEMBERS,
        ["scheme", "mean ms"], [[name, m.mean_ms]],
    ))


def test_broadcast_size_ordering():
    """Steady-state broadcast bytes: LKH constant; others linear in n."""
    sizes = {}
    for name in FACTORIES:
        scheme, _, rng = build(name)
        _, broadcast = scheme.rekey(rng)
        sizes[name] = broadcast.byte_size()
    assert sizes["lkh"] < sizes["naive"]
    assert sizes["lkh"] < sizes["secure-lock"]
    # The CRT lock carries sum(log N_i) ~ 64 * 160 bits, the largest load
    # among the single-value broadcasts.
    assert sizes["secure-lock"] > sizes["ac-polynomial"]
