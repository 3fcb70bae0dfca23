"""Differential tests for fixed-base precomputation (groups/precompute).

The table is an optimization, never a semantic: every ``table.pow(e)``
must be byte-identical to the naive ``base ** e`` for every base, every
group backend and every exponent -- including the edges where windowed
recoding goes wrong (0, 1, order-1, multiples of the order, window-digit
boundaries).  The native-backend tests assert the same property across
the gmpy2/pure-Python boundary: coordinates are Python ints at the
element boundary, so serialized bytes can never depend on which backend
did the arithmetic.
"""

import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GroupError
from repro.groups import get_group
from repro.groups import _native
from repro.groups.elliptic import EllipticCurveGroup
from repro.groups.precompute import (
    FixedBaseTable,
    fixed_base_table,
    generator_table,
    recombines_to,
    same_base_powers,
    shared_table,
    window_size,
)
from tests.groups.reference import TOY_CURVES, binary_pow

GROUPS = ["nist-p192", "nist-p256", "secp256k1", "toy-schnorr", "paper-genus2"]
#: The backends the helpers below run on: the three curves take the
#: Jacobian path, the Schnorr group the group-operation fallback.
HELPER_GROUPS = ["nist-p192", "nist-p256", "secp256k1", "toy-schnorr"]


def _edge_exponents(order, window):
    span = 1 << window
    return [
        0, 1, 2, 3,
        span - 1, span, span + 1,
        span * span - 1, span * span,
        order - 1, order, order + 1,
        2 * order - 1,
    ]


@pytest.mark.parametrize("name", GROUPS)
class TestDifferential:
    def test_edges_and_random_scalars(self, name):
        group = get_group(name)
        base = group.generator()
        table = fixed_base_table(base)
        rng = random.Random(0xF1DE)
        exponents = _edge_exponents(group.order, table.window)
        exponents += [rng.randrange(group.order) for _ in range(24)]
        for e in exponents:
            assert table.pow(e) == base ** e, "exponent %d" % e
            assert table.pow(e).to_bytes() == (base ** e).to_bytes()

    def test_non_generator_base(self, name):
        group = get_group(name)
        rng = random.Random(0xBA5E)
        base = group.random_element(rng)
        table = fixed_base_table(base)
        for e in (0, 1, 7, group.order - 1, rng.randrange(group.order)):
            assert table.pow(e) == base ** e

    def test_identity_base(self, name):
        group = get_group(name)
        identity = group.identity()
        table = fixed_base_table(identity)
        for e in (0, 1, 5, group.order - 1):
            assert table.pow(e).is_identity()


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(e=st.integers(min_value=0, max_value=1 << 256))
    def test_p192_matches_naive(self, e):
        group = get_group("nist-p192")
        base = group.generator()
        assert fixed_base_table(base).pow(e) == base ** e

    def test_window_size_rule(self):
        assert window_size(256) == 5
        assert window_size(192) == 5
        assert window_size(191) == 4
        assert window_size(96) == 4
        assert window_size(95) == 3
        assert window_size(8) == 3

    def test_explicit_window_overrides(self):
        group = get_group("nist-p192")
        base = group.generator()
        for w in (3, 4, 6):
            table = FixedBaseTable(base, window=w)
            assert table.window == w
            e = 0xDEADBEEF
            assert table.pow(e) == base ** e


@pytest.mark.parametrize("params", TOY_CURVES, ids=lambda p: p.name)
def test_table_on_toy_curves(params):
    """Orders <= 2**w put the identity in the table; it adds nothing."""
    group = EllipticCurveGroup(params)
    base = group.generator()
    for window in (1, 2, 3, 5):
        table = FixedBaseTable(base, window=window)
        for e in range(-params.n, 3 * params.n, max(1, params.n // 50)):
            assert table.pow(e) == binary_pow(base, e), (window, e)


def _exponent_lists(order):
    rng = random.Random(0x5A3E)
    return [
        [],
        [0],
        [order, 2 * order],
        [7, 7, 7],
        [1, 2, order - 1, order + 1, 3 * order + 5, -1],
        [rng.randrange(order) for _ in range(8)],
        [rng.randrange(4 * order) for _ in range(8)],
    ]


class TestSameBasePowers:
    @pytest.mark.parametrize("name", HELPER_GROUPS)
    def test_equals_one_power_at_a_time(self, name):
        group = get_group(name)
        eta = group.random_element(random.Random(0xE7A))
        for exponents in _exponent_lists(group.order):
            powers = same_base_powers(eta, exponents)
            assert powers == [eta ** r for r in exponents], exponents
            assert [p.to_bytes() for p in powers] == [
                (eta ** r).to_bytes() for r in exponents
            ]

    @pytest.mark.parametrize("params", TOY_CURVES, ids=lambda p: p.name)
    def test_toy_curves(self, params):
        group = EllipticCurveGroup(params)
        eta = group.generator()
        exponents = list(range(-params.n, 3 * params.n, max(1, params.n // 50)))
        assert same_base_powers(eta, exponents) == [
            binary_pow(eta, r) for r in exponents
        ]

    def test_identity_base(self):
        identity = get_group("nist-p192").identity()
        assert all(p.is_identity() for p in same_base_powers(identity, [0, 1, 5]))

    def test_coordinates_are_python_ints(self):
        eta = get_group("nist-p192").random_element(random.Random(3))
        for power in same_base_powers(eta, [1, 2, 3]):
            assert all(type(c) is int for c in power.xy)


def _horner(elements):
    acc = elements[-1]
    for element in reversed(elements[:-1]):
        acc = acc * acc * element
    return acc


class TestRecombinesTo:
    @pytest.mark.parametrize("name", HELPER_GROUPS)
    def test_agrees_with_the_group_operation(self, name):
        group = get_group(name)
        rng = random.Random(0x4E2)
        g = group.generator()
        for length in (1, 2, 8):
            elements = [group.random_element(rng) for _ in range(length)]
            product = _horner(elements)
            assert recombines_to(elements, product)
            assert not recombines_to(elements, product * g)
            assert not recombines_to(elements, group.identity())

    @pytest.mark.parametrize("name", ["nist-p192", "toy-schnorr"])
    def test_identities_doubling_and_cancellation(self, name):
        group = get_group(name)
        c = group.random_element(random.Random(0xCA9))
        identity = group.identity()
        cases = [
            [identity],
            [identity, identity, c],
            [c * c, c],  # Horner meets c^2 + c^2: the doubling case
            [(c * c).inverse(), c],  # c^2 - c^2: cancels to the identity
            [c, identity, (c ** 4).inverse()],
        ]
        for elements in cases:
            product = _horner(elements)
            assert recombines_to(elements, product)
            assert not recombines_to(elements, product * group.generator())

    def test_elements_from_another_curve_are_refused(self):
        p192 = get_group("nist-p192").generator()
        p256 = get_group("nist-p256").generator()
        with pytest.raises(GroupError):
            recombines_to([p192, p256], p192)


class TestLifecycle:
    def test_never_serialized(self):
        table = generator_table(get_group("nist-p192"))
        with pytest.raises(TypeError, match="never serialized"):
            pickle.dumps(table)

    def test_shared_table_is_cached(self):
        group = get_group("nist-p192")
        g = group.generator()
        assert shared_table(g) is shared_table(g)
        assert generator_table(group) is shared_table(g)

    def test_distinct_bases_distinct_tables(self):
        group = get_group("nist-p192")
        g = group.generator()
        h = g * g
        assert shared_table(g) is not shared_table(h)
        assert shared_table(h).pow(3) == h ** 3


class TestPedersenIntegration:
    def test_params_survive_pickle_and_rebuild(self):
        from repro.crypto.pedersen import PedersenParams

        params = PedersenParams(get_group("nist-p192"))
        params.precompute_now()
        clone = pickle.loads(pickle.dumps(params))
        assert clone.g == params.g and clone.h == params.h
        for e in (1, 1234567, params.order - 1):
            assert clone.pow_g(e) == params.pow_g(e)
            assert clone.pow_h(e) == params.pow_h(e)

    def test_pow_matches_naive_below_and_above_threshold(self):
        from repro.crypto.pedersen import PedersenParams, _TABLE_THRESHOLD

        params = PedersenParams(get_group("nist-p192"))
        expected = [
            (e, params.g ** e)
            for e in range(1, _TABLE_THRESHOLD + 3)
        ]
        for e, value in expected:
            assert params.pow_g(e) == value


def _run_flipped(code):
    """Run ``code`` in a subprocess with the native backend disabled."""
    env = dict(os.environ)
    env["REPRO_NATIVE_MATH"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestNativeBackend:
    def test_escape_hatch_forces_python(self):
        out = _run_flipped(
            "from repro.groups._native import BACKEND; print(BACKEND)"
        )
        assert out == "python"

    def test_elements_byte_identical_across_backends(self):
        """Affine bytes from this process's backend == pure Python's."""
        code = (
            "from repro.groups import get_group\n"
            "g = get_group('nist-p192').generator()\n"
            "print((g ** 0xDEC0DE).to_bytes().hex())\n"
        )
        flipped = _run_flipped(code)
        g = get_group("nist-p192").generator()
        assert (g ** 0xDEC0DE).to_bytes().hex() == flipped

    def test_envelopes_byte_identical_across_backends(self):
        """A full OCBE envelope build is backend-independent end to end."""
        code = (
            "import hashlib, random\n"
            "from repro.crypto.pedersen import PedersenParams\n"
            "from repro.groups import get_group\n"
            "from repro.ocbe.base import OCBESetup\n"
            "from repro.ocbe.ge import GeOCBESender, GePredicate\n"
            "setup = OCBESetup(pedersen=PedersenParams(get_group('nist-p192')))\n"
            "rng = random.Random(7)\n"
            "commitment, x, r = None, 61, rng.randrange(setup.pedersen.order)\n"
            "commitment = setup.pedersen.commit(x, r)[0]\n"
            "from repro.ocbe.ge import GeOCBEReceiver\n"
            "pred = GePredicate(x0=40, ell=16)\n"
            "receiver = GeOCBEReceiver(setup, pred, x, r, commitment,\n"
            "                          rng=random.Random(8))\n"
            "aux = receiver.commitment_message()\n"
            "sender = GeOCBESender(setup, pred, rng=random.Random(9))\n"
            "env = sender.compose(commitment, aux, b'payload')\n"
            "h = hashlib.sha256()\n"
            "h.update(env.eta.to_bytes())\n"
            "for a, b in env.bit_ciphers:\n"
            "    h.update(a); h.update(b)\n"
            "h.update(receiver.open(env))\n"
            "print(h.hexdigest())\n"
        )
        flipped = _run_flipped(code)
        local = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=120,
        )
        assert local.returncode == 0, local.stderr
        assert local.stdout.strip() == flipped

    @pytest.mark.skipif(
        not _native.HAVE_GMPY2, reason="gmpy2 not installed"
    )
    def test_gmpy2_is_active_when_present(self):
        if _native.native_disabled():
            pytest.skip("REPRO_NATIVE_MATH disabled in this run")
        assert _native.BACKEND == "gmpy2"
        assert _native.ACTIVE
