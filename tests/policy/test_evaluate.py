"""Tests for ground-truth policy evaluation."""

import pytest

from repro.errors import PolicyError
from repro.policy.condition import parse_condition
from repro.policy.acp import parse_policy
from repro.policy.evaluate import (
    satisfies_condition,
    satisfies_policy,
)


class TestConditions:
    @pytest.mark.parametrize(
        "cond,attrs,expected",
        [
            ("level >= 59", {"level": 59}, True),
            ("level >= 59", {"level": 58}, False),
            ("level <= 10", {"level": 10}, True),
            ("level > 10", {"level": 10}, False),
            ("level < 10", {"level": 9}, True),
            ("role = nur", {"role": "nur"}, True),
            ("role = nur", {"role": "doc"}, False),
            ("role != nur", {"role": "doc"}, True),
            ("level >= 59", {}, False),                 # missing attribute
            ("level >= 59", {"other": 100}, False),
        ],
    )
    def test_cases(self, cond, attrs, expected):
        assert satisfies_condition(attrs, parse_condition(cond)) == expected

    def test_type_confusion_raises(self):
        with pytest.raises(PolicyError):
            satisfies_condition({"level": "high"}, parse_condition("level >= 5"))

    def test_string_vs_int_equality(self):
        assert not satisfies_condition({"a": "5"}, parse_condition("a = 5"))


class TestPoliciesAndConfigurations:
    def test_conjunction(self):
        acp = parse_policy("role = nur AND level >= 59", ["o"], "d")
        assert satisfies_policy({"role": "nur", "level": 59}, acp)
        assert not satisfies_policy({"role": "nur", "level": 58}, acp)
        assert not satisfies_policy({"role": "doc", "level": 59}, acp)
        assert not satisfies_policy({"level": 59}, acp)
