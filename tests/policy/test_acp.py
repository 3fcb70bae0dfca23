"""Tests for access control policies (Definition 4)."""

import pytest

from repro.errors import PolicyParseError
from repro.policy.acp import AccessControlPolicy, parse_policy


class TestParsePolicy:
    def test_example_2(self):
        """The paper's Example 2 policy."""
        acp = parse_policy(
            'level >= 58 AND role = "nurse"',
            ["physical_exam", "treatment_plan"],
            "EHR.xml",
        )
        assert len(acp.conditions) == 2
        assert acp.objects == {"physical_exam", "treatment_plan"}
        assert acp.document == "EHR.xml"

    @pytest.mark.parametrize(
        "subject,count",
        [
            ("a >= 1", 1),
            ("a >= 1 AND b = 2", 2),
            ("a >= 1 and b = 2 and c < 3", 3),
            ("a >= 1 && b = 2", 2),
            ("a >= 1 ∧ b = 2", 2),
        ],
    )
    def test_conjunction_separators(self, subject, count):
        assert len(parse_policy(subject, ["o"], "d").conditions) == count

    def test_empty_subject_rejected(self):
        with pytest.raises(PolicyParseError):
            parse_policy("", ["o"], "d")

    def test_empty_objects_rejected(self):
        with pytest.raises(PolicyParseError):
            parse_policy("a = 1", [], "d")

    def test_no_conditions_rejected(self):
        with pytest.raises(PolicyParseError):
            AccessControlPolicy(conditions=(), objects=frozenset({"o"}), document="d")


class TestAccessors:
    def test_condition_keys_ordered(self):
        acp = parse_policy("level >= 58 AND role = nur", ["o"], "d")
        assert acp.condition_keys() == ("level >= 58", "role = nur")

    def test_applies_to(self):
        acp = parse_policy("a = 1", ["o1", "o2"], "d")
        assert acp.applies_to("o1")
        assert not acp.applies_to("o3")

    def test_describe(self):
        acp = parse_policy("a = 1 AND b >= 2", ["o2", "o1"], "d")
        text = acp.describe()
        assert "a = 1" in text and "b >= 2" in text
        assert "o1, o2" in text  # objects sorted
        assert str(acp) == text

    def test_hashable_and_equal(self):
        a1 = parse_policy("a = 1", ["o"], "d")
        a2 = parse_policy("a = 1", ["o"], "d")
        assert a1 == a2
        assert len({a1, a2}) == 1
