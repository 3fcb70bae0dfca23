"""Policy configurations (Definition 5) and dominance (Definition 6).

The *policy configuration* of a subdocument is the set of policies that
apply to it; subdocuments sharing a configuration share one symmetric key.
``Pc_i`` *dominates* ``Pc_j`` iff ``Pc_i`` is a subset of ``Pc_j`` -- a Sub
able to derive ``Pc_i``'s key satisfies some policy in ``Pc_i`` and hence
in ``Pc_j``, so dominance induces the hierarchical access control of
Section VIII-A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.policy.acp import AccessControlPolicy

__all__ = ["PolicyConfiguration", "build_configurations", "dominance_order"]


@dataclass(frozen=True)
class PolicyConfiguration:
    """The (possibly empty) set of policies protecting a subdocument."""

    policies: FrozenSet[AccessControlPolicy]

    @classmethod
    def of(cls, policies: Iterable[AccessControlPolicy]) -> "PolicyConfiguration":
        """Normalizing constructor."""
        return cls(policies=frozenset(policies))

    @property
    def is_empty(self) -> bool:
        """Empty configuration: nobody can access (Pc6 in Example 4)."""
        return not self.policies

    def dominates(self, other: "PolicyConfiguration") -> bool:
        """Definition 6: ``self`` dominates ``other`` iff ``self <= other``."""
        return self.policies <= other.policies

    def condition_keys(self) -> FrozenSet[str]:
        """All condition identifiers appearing in any member policy."""
        keys = set()
        for acp in self.policies:
            keys.update(acp.condition_keys())
        return frozenset(keys)

    def sorted_policies(self) -> List[AccessControlPolicy]:
        """Member policies in a deterministic order (by description)."""
        return sorted(self.policies, key=lambda acp: acp.describe())

    def __len__(self) -> int:
        return len(self.policies)

    def __iter__(self):
        return iter(self.sorted_policies())

    def describe(self) -> str:
        """Rendering like ``{acp1, acp3}``."""
        if self.is_empty:
            return "{}"
        return "{%s}" % ", ".join(a.describe() for a in self.sorted_policies())



def build_configurations(
    subdocuments: Sequence[str],
    policies: Sequence[AccessControlPolicy],
) -> Dict[str, PolicyConfiguration]:
    """Map every subdocument to its policy configuration.

    This is the segmentation step of Section V-C.1: each subdocument's
    configuration is the set of policies whose object list contains it.
    Subdocuments no policy mentions get the empty configuration.
    """
    return {
        sub: PolicyConfiguration.of(
            acp for acp in policies if acp.applies_to(sub)
        )
        for sub in subdocuments
    }


def dominance_order(
    configurations: Iterable[PolicyConfiguration],
) -> List[Tuple[PolicyConfiguration, PolicyConfiguration]]:
    """All strict dominance pairs ``(a, b)`` with ``a`` dominating ``b``.

    Useful for the Section VIII-A optimisation: keys of dominated
    configurations are derivable from dominating ones.
    """
    unique = list({c for c in configurations})
    pairs = []
    for a in unique:
        for b in unique:
            if a is not b and a.policies != b.policies and a.dominates(b):
                pairs.append((a, b))
    return pairs
