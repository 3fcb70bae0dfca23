"""The attribute-based policy language of Section V (Definitions 3-6).

* :class:`~repro.policy.condition.AttributeCondition` -- ``"name op l"``
  atoms such as ``level >= 59`` or ``role = nur`` (Definition 3);
* :class:`~repro.policy.acp.AccessControlPolicy` -- a conjunction of
  conditions applied to a set of subdocuments of a document (Definition 4);
* :class:`~repro.policy.configuration.PolicyConfiguration` -- the set of
  policies that protect one subdocument (Definition 5), with the dominance
  partial order of Definition 6;
* :mod:`~repro.policy.encoding` -- the "standard encoding" of attribute
  values into field elements the paper assumes;
* :mod:`~repro.policy.evaluate` -- ground-truth evaluation of conditions /
  policies against attribute assignments (used by tests and baselines; the
  protocol itself never sees attribute values in clear).
"""

from repro.policy.acp import AccessControlPolicy, parse_policy
from repro.policy.condition import AttributeCondition, parse_condition
from repro.policy.configuration import (
    PolicyConfiguration,
    build_configurations,
)
from repro.policy.encoding import encode_value, MAX_STRING_BITS
from repro.policy.evaluate import satisfies_condition, satisfies_policy

__all__ = [
    "AttributeCondition",
    "parse_condition",
    "AccessControlPolicy",
    "parse_policy",
    "PolicyConfiguration",
    "build_configurations",
    "encode_value",
    "MAX_STRING_BITS",
    "satisfies_condition",
    "satisfies_policy",
]
