"""Tests for the derived GT/LT/NE protocols and the dispatch helpers."""

import pytest

from repro.errors import DecryptionError, PredicateError
from repro.ocbe.base import receiver_for, sender_for
from repro.ocbe.derived import (
    GtOCBESender,
    LtOCBESender,
    NeOCBEReceiver,
    NeOCBESender,
)
from repro.ocbe.predicates import (
    EqPredicate,
    GePredicate,
    GtPredicate,
    LePredicate,
    LtPredicate,
    NePredicate,
    Predicate,
)
from tests.ocbe.exchange import run_ocbe

MESSAGE = b"derived-protocol-payload"


def attempt(setup, predicate, x, rng):
    commitment, r = setup.pedersen.commit(x, rng=rng)
    try:
        return run_ocbe(setup, predicate, x, r, commitment, MESSAGE, rng) == MESSAGE
    except DecryptionError:
        return False


class TestGt:
    @pytest.mark.parametrize("x,expected", [(11, True), (10, False), (9, False)])
    def test_gt(self, ec_setup, rng, x, expected):
        assert attempt(ec_setup, GtPredicate(10, 8), x, rng) == expected


class TestLt:
    @pytest.mark.parametrize("x,expected", [(9, True), (10, False), (11, False)])
    def test_lt(self, ec_setup, rng, x, expected):
        assert attempt(ec_setup, LtPredicate(10, 8), x, rng) == expected


class TestNe:
    @pytest.mark.parametrize("x,expected", [(9, True), (11, True), (10, False)])
    def test_ne(self, ec_setup, rng, x, expected):
        assert attempt(ec_setup, NePredicate(10, 8), x, rng) == expected

    def test_ne_boundaries(self, ec_setup, rng):
        assert attempt(ec_setup, NePredicate(0, 8), 255, rng)
        assert attempt(ec_setup, NePredicate(255, 8), 0, rng)
        assert not attempt(ec_setup, NePredicate(0, 8), 0, rng)

    def test_ne_envelope_contains_both_halves(self, ec_setup, rng):
        predicate = NePredicate(10, 8)
        commitment, r = ec_setup.pedersen.commit(11, rng=rng)
        sender = NeOCBESender(ec_setup, predicate, rng)
        receiver = NeOCBEReceiver(ec_setup, predicate, 11, r, commitment, rng)
        aux = receiver.commitment_message()
        envelope = sender.compose(commitment, aux, MESSAGE)
        assert envelope.gt_envelope is not None
        assert envelope.lt_envelope is not None
        # Exact wire size: both halves plus the one-byte presence flags.
        assert envelope.byte_size() == len(envelope.to_bytes())
        assert envelope.byte_size() == 1 + (
            envelope.gt_envelope.byte_size() + envelope.lt_envelope.byte_size()
        )

    def test_type_checks(self, ec_setup, rng):
        with pytest.raises(PredicateError):
            NeOCBESender(ec_setup, GtPredicate(1, 4), rng)
        with pytest.raises(PredicateError):
            GtOCBESender(ec_setup, NePredicate(1, 4), rng)
        with pytest.raises(PredicateError):
            LtOCBESender(ec_setup, GtPredicate(1, 4), rng)


class TestDispatch:
    @pytest.mark.parametrize(
        "predicate,x,expected",
        [
            (EqPredicate(5), 5, True),
            (EqPredicate(5), 6, False),
            (GePredicate(5, 8), 5, True),
            (LePredicate(5, 8), 6, False),
            (GtPredicate(5, 8), 6, True),
            (LtPredicate(5, 8), 4, True),
            (NePredicate(5, 8), 4, True),
        ],
    )
    def test_round_trips_all_ops(self, ec_setup, rng, predicate, x, expected):
        assert attempt(ec_setup, predicate, x, rng) == expected

    def test_unknown_predicate_rejected(self, ec_setup, rng):
        class Weird(Predicate):
            def evaluate(self, x):
                return True

            def describe(self):
                return "weird"

        with pytest.raises(PredicateError):
            sender_for(ec_setup, Weird(), rng)
        with pytest.raises(PredicateError):
            receiver_for(ec_setup, Weird(), 0, 0, None, rng)
