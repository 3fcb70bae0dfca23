"""Shared fixtures for the benchmark suite.

Benchmarks use deterministic RNGs so parameter sweeps are comparable
across runs.  Group/scale notes:

* OCBE benchmarks run on both the paper's genus-2 Jacobian (faithful) and
  the faster EC backend (same protocol, pure-Python-friendly).
* GKM sweeps default to the word-sized field (numpy elimination kernel) at
  the paper's parameterisation (25 policies, ~2 conditions each); the
  80-bit paper field is included at smaller N.
"""

import random

import pytest

from repro.crypto.pedersen import PedersenParams
from repro.groups import get_group
from repro.ocbe.base import OCBESetup


import pathlib

_BENCH_DIR = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """The whole benchmark suite is excluded from the fast tier.

    The hook fires session-wide, so restrict it to items collected from
    this directory.
    """
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng():
    return random.Random(0xBE7C)


@pytest.fixture(scope="session")
def ec_setup():
    return OCBESetup(pedersen=PedersenParams(get_group("nist-p192")))


@pytest.fixture(scope="session")
def genus2_setup():
    return OCBESetup(pedersen=PedersenParams(get_group("paper-genus2")))
