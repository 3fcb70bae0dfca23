"""Ground-truth policy evaluation against attribute assignments.

The privacy-preserving protocol never evaluates policies on cleartext
attributes -- that is the whole point -- but tests, baselines (which are
*not* privacy preserving) and workload generators need the ground truth:
"which subscribers are qualified for which subdocuments?".
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import PolicyError
from repro.policy.acp import AccessControlPolicy
from repro.policy.condition import AttributeCondition
from repro.policy.encoding import AttributeValue

__all__ = ["satisfies_condition", "satisfies_policy"]


def satisfies_condition(
    attributes: Mapping[str, AttributeValue], condition: AttributeCondition
) -> bool:
    """True when ``attributes`` contains a value satisfying ``condition``.

    A missing attribute never satisfies.  Comparing a string attribute with
    an order operator raises :class:`PolicyError` (the policy itself forbids
    it, so reaching this means the caller mixed types).
    """
    if condition.name not in attributes:
        return False
    actual = attributes[condition.name]
    expected = condition.value
    if condition.op == "=":
        return actual == expected
    if condition.op == "!=":
        return actual != expected
    if isinstance(actual, str) or isinstance(expected, str):
        raise PolicyError(
            "order comparison between %r and %r" % (actual, expected)
        )
    if condition.op == ">=":
        return actual >= expected
    if condition.op == "<=":
        return actual <= expected
    if condition.op == ">":
        return actual > expected
    if condition.op == "<":
        return actual < expected
    raise PolicyError("unknown operator %r" % condition.op)


def satisfies_policy(
    attributes: Mapping[str, AttributeValue], policy: AccessControlPolicy
) -> bool:
    """True when every condition of the conjunction holds."""
    return all(satisfies_condition(attributes, c) for c in policy.conditions)

