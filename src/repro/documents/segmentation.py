"""Grouping subdocuments by policy configuration (Section V-C.1).

``segment`` computes, for a document and a policy set, the distinct policy
configurations and which subdocuments each governs -- the unit at which
symmetric keys are assigned ("for each policy configuration of D, the Pub
generates a key K ... and uses K to encrypt all subdocuments associated
with this policy configuration").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.documents.model import Document
from repro.errors import DocumentError
from repro.policy.acp import AccessControlPolicy
from repro.policy.configuration import PolicyConfiguration, build_configurations

__all__ = ["SegmentPlan", "segment"]


@dataclass(frozen=True)
class SegmentPlan:
    """The outcome of segmentation.

    ``groups`` maps a stable configuration id (``pc1``, ``pc2``, ... in
    first-appearance document order; the empty configuration, if any, is
    always last as ``pc0``) to the pair (configuration, subdocument names).
    """

    document: str
    groups: Tuple[Tuple[str, PolicyConfiguration, Tuple[str, ...]], ...]


def segment(
    document: Document, policies: Sequence[AccessControlPolicy]
) -> SegmentPlan:
    """Compute the segmentation plan for ``document`` under ``policies``.

    Policies whose target document name differs from ``document.name`` are
    ignored; policies referencing unknown subdocuments raise
    :class:`DocumentError` (a misconfigured policy should fail loudly, not
    silently protect nothing).
    """
    relevant = [p for p in policies if p.document == document.name]
    known = set(document.subdocument_names())
    for policy in relevant:
        missing = policy.objects - known
        if missing:
            raise DocumentError(
                "policy %s references unknown subdocuments %s"
                % (policy.describe(), sorted(missing))
            )

    by_sub = build_configurations(document.subdocument_names(), relevant)

    # Group subdocuments sharing a configuration, in document order.
    order: List[PolicyConfiguration] = []
    members: Dict[PolicyConfiguration, List[str]] = {}
    for sub_name in document.subdocument_names():
        config = by_sub[sub_name]
        if config not in members:
            members[config] = []
            order.append(config)
        members[config].append(sub_name)

    groups = []
    counter = 1
    for config in order:
        if config.is_empty:
            config_id = "pc0"
        else:
            config_id = "pc%d" % counter
            counter += 1
        groups.append((config_id, config, tuple(members[config])))
    # Keep the empty configuration (if present) at the end for readability.
    groups.sort(key=lambda g: g[0] == "pc0")
    return SegmentPlan(document=document.name, groups=tuple(groups))
