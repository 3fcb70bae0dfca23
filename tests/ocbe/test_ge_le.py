"""Tests for the bitwise GE- and LE-OCBE protocols."""

import random
import sys

import pytest

from repro.errors import DecryptionError, PredicateError, ProtocolStateError
from repro.crypto.pedersen import PedersenParams
from repro.groups import _native, get_group
from repro.mathx import modular
from repro.ocbe.base import OCBESetup
from repro.ocbe.ge import GeOCBEReceiver, GeOCBESender
from repro.ocbe.le import LeOCBEReceiver, LeOCBESender
from repro.ocbe.predicates import GePredicate, LePredicate
from tests.ocbe.exchange import run_ocbe

MESSAGE = b"css-0123456789abcdef"


def run_ge(setup, x0, x, rng, ell=10):
    predicate = GePredicate(x0, ell)
    commitment, r = setup.pedersen.commit(x, rng=rng)
    sender = GeOCBESender(setup, predicate, rng)
    receiver = GeOCBEReceiver(setup, predicate, x, r, commitment, rng)
    aux = receiver.commitment_message()
    envelope = sender.compose(commitment, aux, MESSAGE)
    return receiver.open(envelope)


def run_le(setup, x0, x, rng, ell=10):
    predicate = LePredicate(x0, ell)
    commitment, r = setup.pedersen.commit(x, rng=rng)
    sender = LeOCBESender(setup, predicate, rng)
    receiver = LeOCBEReceiver(setup, predicate, x, r, commitment, rng)
    aux = receiver.commitment_message()
    envelope = sender.compose(commitment, aux, MESSAGE)
    return receiver.open(envelope)


class TestGeCorrectness:
    @pytest.mark.parametrize("x0,x", [(59, 59), (59, 60), (0, 0), (0, 1023), (1023, 1023)])
    def test_satisfied(self, ec_setup, rng, x0, x):
        assert run_ge(ec_setup, x0, x, rng) == MESSAGE

    @pytest.mark.parametrize("x0,x", [(59, 58), (59, 0), (1023, 1022), (1, 0)])
    def test_unsatisfied(self, ec_setup, rng, x0, x):
        with pytest.raises(DecryptionError):
            run_ge(ec_setup, x0, x, rng)

    def test_single_bit_domain(self, ec_setup, rng):
        assert run_ge(ec_setup, 1, 1, rng, ell=1) == MESSAGE
        with pytest.raises(DecryptionError):
            run_ge(ec_setup, 1, 0, rng, ell=1)

    def test_boundary_difference_max(self, ec_setup, rng):
        """x - x0 = 2^l - 1, the largest honest difference."""
        assert run_ge(ec_setup, 0, 1023, rng, ell=10) == MESSAGE


class TestLeCorrectness:
    @pytest.mark.parametrize("x0,x", [(59, 59), (59, 58), (1023, 0), (0, 0)])
    def test_satisfied(self, ec_setup, rng, x0, x):
        assert run_le(ec_setup, x0, x, rng) == MESSAGE

    @pytest.mark.parametrize("x0,x", [(59, 60), (0, 1), (5, 1023)])
    def test_unsatisfied(self, ec_setup, rng, x0, x):
        with pytest.raises(DecryptionError):
            run_le(ec_setup, x0, x, rng)


class TestProtocolMechanics:
    def test_sender_verifies_recombination(self, ec_setup, rng):
        """Tampered bit commitments fail the prod c_i^{2^i} check."""
        predicate = GePredicate(3, 6)
        commitment, r = ec_setup.pedersen.commit(9, rng=rng)
        receiver = GeOCBEReceiver(ec_setup, predicate, 9, r, commitment, rng)
        aux = receiver.commitment_message()
        other_commitment, _ = ec_setup.pedersen.commit(7, rng=rng)
        sender = GeOCBESender(ec_setup, predicate, rng)
        with pytest.raises(ProtocolStateError):
            sender.compose(other_commitment, aux, MESSAGE)

    def test_sender_rejects_wrong_arity(self, ec_setup, rng):
        predicate = GePredicate(3, 6)
        commitment, r = ec_setup.pedersen.commit(9, rng=rng)
        receiver = GeOCBEReceiver(
            ec_setup, GePredicate(3, 5), 9, r, commitment, rng
        )
        aux = receiver.commitment_message()
        sender = GeOCBESender(ec_setup, predicate, rng)
        with pytest.raises(ProtocolStateError):
            sender.compose(commitment, aux, MESSAGE)

    def test_open_before_commit_raises(self, ec_setup, rng):
        predicate = GePredicate(3, 6)
        commitment, r = ec_setup.pedersen.commit(9, rng=rng)
        receiver = GeOCBEReceiver(ec_setup, predicate, 9, r, commitment, rng)
        with pytest.raises(ProtocolStateError):
            receiver.open(None)

    def test_envelope_arity_checked(self, ec_setup, rng):
        predicate = GePredicate(3, 6)
        commitment, r = ec_setup.pedersen.commit(9, rng=rng)
        sender = GeOCBESender(ec_setup, predicate, rng)
        receiver = GeOCBEReceiver(ec_setup, predicate, 9, r, commitment, rng)
        aux = receiver.commitment_message()
        envelope = sender.compose(commitment, aux, MESSAGE)
        truncated = type(envelope)(
            eta=envelope.eta,
            bit_ciphers=envelope.bit_ciphers[:-1],
            ciphertext=envelope.ciphertext,
        )
        with pytest.raises(ProtocolStateError):
            receiver.open(truncated)

    def test_ell_too_large_for_group(self, rng, toy_group):
        """2^(l+1) >= p must be rejected (toy group has order 11)."""
        setup = OCBESetup(pedersen=PedersenParams(toy_group))
        with pytest.raises(PredicateError):
            GeOCBESender(setup, GePredicate(1, ell=4), rng)

    def test_wrong_predicate_type(self, ec_setup, rng):
        with pytest.raises(PredicateError):
            GeOCBESender(ec_setup, LePredicate(1, 4), rng)
        with pytest.raises(PredicateError):
            LeOCBESender(ec_setup, GePredicate(1, 4), rng)

    def test_commit_message_sizes(self, ec_setup, rng):
        predicate = GePredicate(3, 8)
        commitment, r = ec_setup.pedersen.commit(9, rng=rng)
        receiver = GeOCBEReceiver(ec_setup, predicate, 9, r, commitment, rng)
        aux = receiver.commitment_message()
        assert len(aux.commitments) == 8
        assert aux.byte_size() > 0

    def test_envelope_size_scales_with_ell(self, ec_setup, rng):
        sizes = {}
        for ell in (4, 8):
            predicate = GePredicate(1, ell)
            commitment, r = ec_setup.pedersen.commit(3, rng=rng)
            sender = GeOCBESender(ec_setup, predicate, rng)
            receiver = GeOCBEReceiver(ec_setup, predicate, 3, r, commitment, rng)
            envelope = sender.compose(
                commitment, receiver.commitment_message(), MESSAGE
            )
            sizes[ell] = envelope.byte_size()
        assert sizes[8] > sizes[4]

    def test_run_ocbe_dispatch(self, ec_setup, rng):
        predicate = GePredicate(5, 8)
        commitment, r = ec_setup.pedersen.commit(9, rng=rng)
        assert run_ocbe(ec_setup, predicate, 9, r, commitment, MESSAGE, rng) == MESSAGE


    def test_envelope_bit_cipher_length_checked(self, ec_setup, rng):
        """A bit cipher of the wrong length is a malformed envelope (typed),
        whichever opening the receiver's bit would select."""
        predicate = GePredicate(3, 6)
        commitment, r = ec_setup.pedersen.commit(9, rng=rng)
        sender = GeOCBESender(ec_setup, predicate, rng)
        receiver = GeOCBEReceiver(ec_setup, predicate, 9, r, commitment, rng)
        envelope = sender.compose(commitment, receiver.commitment_message(), MESSAGE)
        for position in range(6):
            for side in (0, 1):
                ciphers = [list(pair) for pair in envelope.bit_ciphers]
                ciphers[position][side] = ciphers[position][side][:-1]
                damaged = type(envelope)(
                    eta=envelope.eta,
                    bit_ciphers=tuple(tuple(pair) for pair in ciphers),
                    ciphertext=envelope.ciphertext,
                )
                with pytest.raises(ProtocolStateError):
                    receiver.open(damaged)


@pytest.fixture
def inversions(monkeypatch):
    """Every field inversion made during the test: a call of the group
    backend's ``invert`` (``_jac_to_affine``, batch normalisation) or of
    ``modinv`` from anywhere else (the affine ``ECPoint.__mul__``).  The
    pure-Python ``invert``'s own call to ``modinv`` is not counted twice,
    so the count is the same with and without gmpy2."""
    calls = []

    def counted(original):
        def wrapper(*args):
            calls.append(args)
            return original(*args)

        return wrapper

    originals = {"invert": _native.invert, "modinv": modular.modinv}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, original in originals.items():
            if module is _native and attr == "modinv":
                continue
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted(original))
    return calls


def test_ge_round_inversion_count(inversions):
    """Field inversions in one seeded GE compose and open at l = 8.

    Compose: 3 fixed-base pows (``g^{-x0}``, ``h^y``, ``g^y``) and the
    ``c g^{-x0}`` product, 1 each; 8 ``c_i^y`` at 2 each (the NAF kernel's
    odd-multiple table, then the result); 8 ``sigma * g^{-y}`` products,
    1 each; the recombination check none -- it runs in Jacobian
    coordinates.  Open: 2, the ``eta`` doubling chain and the 8 powers,
    each batch-normalised at once.  At the parent commit the check cost
    the 14 affine Horner steps one inversion each, ``c_i^y`` one each
    and the open 9 (a window-3 table for ``eta`` plus one per power):
    ``(34, 9)``.
    """
    setup = OCBESetup(pedersen=PedersenParams(get_group("nist-p192")))
    setup.pedersen.precompute_now()
    predicate = GePredicate(40, 8)
    commitment, r = setup.pedersen.commit(61, rng=random.Random(0x1A7))
    receiver = GeOCBEReceiver(
        setup, predicate, 61, r, commitment, rng=random.Random(8)
    )
    aux = receiver.commitment_message()
    sender = GeOCBESender(setup, predicate, rng=random.Random(9))

    del inversions[:]
    envelope = sender.compose(commitment, aux, MESSAGE)
    composed = len(inversions)
    del inversions[:]
    assert receiver.open(envelope) == MESSAGE
    assert (composed, len(inversions)) == (28, 2)


class TestObliviousness:
    def test_sender_cannot_distinguish_receivers(self, ec_setup):
        """The sender-side check passes for qualified AND unqualified
        receivers -- by design, so the Pub learns nothing from running the
        protocol."""
        predicate = GePredicate(10, 8)
        for x in (15, 5):  # satisfied / unsatisfied
            rng = random.Random(x)
            commitment, r = ec_setup.pedersen.commit(x, rng=rng)
            receiver = GeOCBEReceiver(ec_setup, predicate, x, r, commitment, rng)
            aux = receiver.commitment_message()
            sender = GeOCBESender(ec_setup, predicate, rng)
            envelope = sender.compose(commitment, aux, MESSAGE)  # no exception
            assert len(envelope.bit_ciphers) == 8
