"""Synthetic workload generation matching the evaluation's parameters.

Section VII's group-key-management experiments use *user configurations*:
"a user configuration indicates the number of current Subs and the maximum
user limit N ... We use 25 policies, each on average containing two
conditions.  Each Sub satisfies the policy in the policy configuration
under consideration."  These helpers produce exactly those inputs for the
ACV-BGKM core API (CSS rows), plus the attribute draws of a
:mod:`repro.load` scenario's population.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidParameterError

__all__ = ["draw_attribute_values", "make_css_rows", "user_configuration_rows"]


def make_css_rows(
    num_rows: int,
    conditions_per_row: int = 2,
    css_bytes: int = 16,
    rng: Optional[random.Random] = None,
) -> List[Tuple[bytes, ...]]:
    """``num_rows`` CSS tuples of ``conditions_per_row`` secrets each."""
    if num_rows < 0 or conditions_per_row < 1:
        raise InvalidParameterError("invalid row shape")
    rng = rng or random.Random(0)
    return [
        tuple(
            bytes(rng.randrange(256) for _ in range(css_bytes))
            for _ in range(conditions_per_row)
        )
        for _ in range(num_rows)
    ]


def user_configuration_rows(
    max_users: int,
    subscriber_fraction: float,
    num_policies: int = 25,
    avg_conditions: int = 2,
    css_bytes: int = 16,
    rng: Optional[random.Random] = None,
) -> Tuple[List[Tuple[bytes, ...]], int]:
    """One evaluation *user configuration*.

    Returns ``(rows, N)`` where ``rows`` holds one CSS tuple per current
    subscriber (``round(max_users * fraction)`` of them) and ``N`` is the
    maximum-user capacity.  Policies only influence the tuple arity: each
    subscriber satisfies one policy whose condition count averages
    ``avg_conditions`` (alternating around the average like the paper's
    "on average two conditions").
    """
    if not 0.0 <= subscriber_fraction <= 1.0:
        raise InvalidParameterError("fraction must be in [0, 1]")
    rng = rng or random.Random(0)
    current = round(max_users * subscriber_fraction)
    rows: List[Tuple[bytes, ...]] = []
    for i in range(current):
        policy_index = i % max(num_policies, 1)
        # Alternate condition counts around the average (>=1).
        conds = max(1, avg_conditions + (1 if policy_index % 2 else -1) * (i % 2))
        if avg_conditions == 1:
            conds = 1
        rows.append(
            tuple(
                bytes(rng.randrange(256) for _ in range(css_bytes))
                for _ in range(conds)
            )
        )
    return rows, max_users


def draw_attribute_values(
    mix: Dict[str, Tuple[int, int]],
    rng: Optional[random.Random] = None,
) -> Dict[str, int]:
    """One subscriber's attribute assignment drawn from ``mix``.

    ``mix`` maps attribute name to an inclusive ``(low, high)`` integer
    range -- the *attribute mix* of a load scenario.  Every draw goes
    through the supplied ``rng`` (default: ``random.Random(0)``), never
    the module-level ``random`` functions, so two runs with the same
    seed produce bit-identical populations.
    """
    rng = rng or random.Random(0)
    values: Dict[str, int] = {}
    for name in sorted(mix):
        low, high = mix[name]
        if low > high:
            raise InvalidParameterError(
                "attribute %r has an empty range (%d, %d)" % (name, low, high)
            )
        values[name] = rng.randint(low, high)
    return values
