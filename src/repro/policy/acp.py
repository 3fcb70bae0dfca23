"""Access control policies (Definition 4): ``acp = (s, o, D)``.

``s`` is a conjunction of attribute conditions, ``o`` a set of subdocument
identifiers of document ``D``.  Example 2 of the paper:

>>> acp = parse_policy(
...     'level >= 58 AND role = "nurse"',
...     ["physical_exam", "treatment_plan"],
...     "EHR.xml",
... )
>>> len(acp.conditions)
2
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

from repro.errors import PolicyParseError
from repro.policy.condition import AttributeCondition, parse_condition

__all__ = ["AccessControlPolicy", "parse_policy"]

_CONJUNCTION_RE = re.compile(r"\s+(?:AND|and)\s+|\s*(?:&&|∧)\s*")


@dataclass(frozen=True)
class AccessControlPolicy:
    """A conjunction of conditions granting access to subdocuments."""

    conditions: Tuple[AttributeCondition, ...]
    objects: FrozenSet[str]
    document: str

    def __post_init__(self) -> None:
        if not self.conditions:
            raise PolicyParseError("a policy needs at least one condition")
        if not self.objects:
            raise PolicyParseError("a policy needs at least one object")

    def condition_keys(self) -> Tuple[str, ...]:
        """Stable identifiers of the conditions (CSS-table columns)."""
        return tuple(c.key() for c in self.conditions)

    def applies_to(self, subdocument: str) -> bool:
        """True when this policy governs ``subdocument``."""
        return subdocument in self.objects

    def describe(self) -> str:
        """Human-readable rendering close to the paper's notation."""
        subject = " AND ".join(str(c) for c in self.conditions)
        return "(%s, {%s}, %s)" % (subject, ", ".join(sorted(self.objects)), self.document)

    def __str__(self) -> str:
        return self.describe()


def parse_policy(
    subject: str, objects: Iterable[str], document: str
) -> AccessControlPolicy:
    """Build a policy from a conjunction string and an object list.

    The subject accepts ``AND``, ``and``, ``&&`` or the logical-and symbol
    as conjunction separators.
    """
    parts = [p for p in _CONJUNCTION_RE.split(subject) if p.strip()]
    if not parts:
        raise PolicyParseError("empty policy subject %r" % subject)
    conditions = tuple(parse_condition(part) for part in parts)
    return AccessControlPolicy(
        conditions=conditions, objects=frozenset(objects), document=document
    )
