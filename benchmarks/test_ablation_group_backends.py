"""Ablation A2: group-backend cost for the commitment/OCBE layers.

Pedersen commitment and EQ-OCBE composition across the Schnorr subgroup,
the EC backend and the paper's genus-2 Jacobian.  The paper used genus-2
via C++; in pure Python the EC backend wins, which is why it is the
default while genus-2 remains available for faithful runs.
"""

import random

import pytest

from repro.bench.runner import avg_time, format_table
from repro.crypto.pedersen import PedersenParams
from repro.groups import get_group
from repro.ocbe.base import OCBESetup
from repro.ocbe.eq import EqOCBESender
from repro.ocbe.predicates import EqPredicate

BACKENDS = ["schnorr-256", "nist-p192", "nist-p256", "paper-genus2"]


def _timed(title, backend, fn):
    m = avg_time(fn, rounds=3)
    print()
    print(format_table("A2 " + title, ["backend", "mean ms"],
                       [[backend, m.mean_ms]]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_pedersen_commit(backend):
    rng = random.Random(5)
    params = PedersenParams(get_group(backend))
    _timed("Pedersen commit", backend,
           lambda: params.commit(123456789, rng=rng))


@pytest.mark.parametrize("backend", BACKENDS)
def test_eq_ocbe_compose(backend):
    rng = random.Random(6)
    setup = OCBESetup(pedersen=PedersenParams(get_group(backend)))
    commitment, _ = setup.pedersen.commit(28, rng=rng)
    sender = EqOCBESender(setup, EqPredicate(28), rng)
    _timed("EQ-OCBE compose", backend,
           lambda: sender.compose(commitment, None, b"payload"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_scalar_multiplication(backend):
    """The primitive everything above reduces to."""
    rng = random.Random(7)
    group = get_group(backend)
    g = group.generator()
    k = group.random_scalar(rng)
    _timed("scalar multiplication", backend, lambda: g ** k)
