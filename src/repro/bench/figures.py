"""Per-figure experiment drivers (Section VII of the paper).

Every driver accepts the sweep parameters with defaults scaled for a
pure-Python run and returns a list of result rows; pass ``verbose=True``
to print the paper-style series.  The faithful parameterisation (the
paper's genus-2 group, 80-bit GKM field, N up to 1000) is available by
argument; the ``benchmarks/`` tests state which one each uses.

Mapping to the paper:

* ``table2``  -- Table II, EQ-OCBE per-step cost;
* ``fig2``    -- Figure 2, GE-OCBE per-step cost vs bit length l;
* ``fig3``    -- Figure 3, ACV generation time vs N per user configuration;
* ``fig4``    -- Figure 4, key derivation time vs N;
* ``fig5``    -- Figure 5, ACV size vs N;
* ``fig6``    -- Figure 6, ACV generation/derivation vs conditions/policy.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.bench.runner import avg_time, format_table
from repro.crypto.pedersen import PedersenParams
from repro.gkm.acv import AcvBgkm, FAST_FIELD, PAPER_FIELD
from repro.groups import get_group
from repro.mathx.field import PrimeField
from repro.ocbe import (
    EqOCBEReceiver,
    EqOCBESender,
    EqPredicate,
    GeOCBEReceiver,
    GeOCBESender,
    GePredicate,
    OCBESetup,
)
from repro.workloads.generator import user_configuration_rows

__all__ = ["table2", "fig2", "fig3", "fig4", "fig5", "fig6"]

#: The four "user configurations" of Figures 3-5.
DEFAULT_FRACTIONS = (0.25, 0.50, 0.75, 1.00)


def _setup(group_name: str) -> OCBESetup:
    setup = OCBESetup(pedersen=PedersenParams(get_group(group_name)))
    # The paper's numbers are steady-state per-step costs: build the
    # fixed-base tables now, or the first swept point pays for them.
    setup.pedersen.precompute_now()
    return setup


def table2(
    group_name: str = "paper-genus2",
    rounds: int = 5,
    message: bytes = b"conditional-subscription-secret!",
    verbose: bool = False,
    rng: Optional[random.Random] = None,
) -> Dict[str, float]:
    """Table II: EQ-OCBE per-step time (milliseconds).

    Steps as in the paper: "Create Extra Commitments (Sub)" (0 for EQ by
    construction), "Compose Envelope (Pub)", "Open Envelope (Sub)".
    """
    rng = rng or random.Random(2)
    setup = _setup(group_name)
    predicate = EqPredicate(28)
    commitment, r = setup.pedersen.commit(28, rng=rng)

    def compose_once() -> None:
        sender = EqOCBESender(setup, predicate, rng)
        compose_once.envelope = sender.compose(commitment, None, message)  # type: ignore[attr-defined]

    compose = avg_time(compose_once, rounds)
    envelope = compose_once.envelope  # type: ignore[attr-defined]

    receiver = EqOCBEReceiver(setup, predicate, 28, r, commitment, rng)
    open_t = avg_time(lambda: receiver.open(envelope), rounds)

    results = {
        "create_commitments_ms": 0.0,
        "compose_envelope_ms": compose.mean_ms,
        "open_envelope_ms": open_t.mean_ms,
    }
    if verbose:
        print(
            format_table(
                "Table II: EQ-OCBE average per-step time (group=%s)" % group_name,
                ["Computation", "Time (ms)"],
                [
                    ["Create Extra Commitments (Sub)", results["create_commitments_ms"]],
                    ["Open Envelope (Sub)", results["open_envelope_ms"]],
                    ["Compose Envelope (Pub)", results["compose_envelope_ms"]],
                ],
            )
        )
    return results


def fig2(
    ells: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40),
    group_name: str = "nist-p192",
    rounds: int = 2,
    message: bytes = b"conditional-subscription-secret!",
    verbose: bool = False,
    rng: Optional[random.Random] = None,
) -> List[Dict[str, float]]:
    """Figure 2: GE-OCBE per-step time vs bit length ``l`` (ms).

    The paper runs the genus-2 group; the default here is the faster EC
    backend (same protocol, same O(l) scalar-multiplication scaling) --
    pass ``group_name="paper-genus2"`` for the faithful run.
    """
    rng = rng or random.Random(3)
    setup = _setup(group_name)
    rows: List[Dict[str, float]] = []
    for ell in ells:
        predicate = GePredicate(x0=3, ell=ell)
        x = rng.randrange(3, 1 << min(ell, 20))  # satisfies the predicate
        commitment, r = setup.pedersen.commit(x, rng=rng)

        def commit_once() -> None:
            receiver = GeOCBEReceiver(setup, predicate, x, r, commitment, rng)
            commit_once.aux = receiver.commitment_message()  # type: ignore[attr-defined]
            commit_once.receiver = receiver  # type: ignore[attr-defined]

        commit_t = avg_time(commit_once, rounds)
        receiver = commit_once.receiver  # type: ignore[attr-defined]
        aux = commit_once.aux  # type: ignore[attr-defined]

        def compose_once() -> None:
            sender = GeOCBESender(setup, predicate, rng)
            compose_once.envelope = sender.compose(commitment, aux, message)  # type: ignore[attr-defined]

        compose_t = avg_time(compose_once, rounds)
        envelope = compose_once.envelope  # type: ignore[attr-defined]
        open_t = avg_time(lambda: receiver.open(envelope), rounds)

        rows.append(
            {
                "ell": ell,
                "create_commitments_ms": commit_t.mean_ms,
                "compose_envelope_ms": compose_t.mean_ms,
                "open_envelope_ms": open_t.mean_ms,
            }
        )
    if verbose:
        print(
            format_table(
                "Figure 2: GE-OCBE per-step time vs l (group=%s)" % group_name,
                ["l", "Create Commitments (Sub) ms", "Compose Envelope (Pub) ms",
                 "Open Envelope (Sub) ms"],
                [
                    [r["ell"], r["create_commitments_ms"], r["compose_envelope_ms"],
                     r["open_envelope_ms"]]
                    for r in rows
                ],
            )
        )
    return rows


def _sweep_gkm(
    max_users: Sequence[int],
    fractions: Sequence[float],
    field: PrimeField,
    rounds: int,
    what: str,
    rng: Optional[random.Random],
) -> List[Dict[str, float]]:
    """Shared sweep for Figures 3, 4 and 5."""
    rng = rng or random.Random(4)
    gkm = AcvBgkm(field)
    rows_out: List[Dict[str, float]] = []
    for n in max_users:
        entry: Dict[str, float] = {"max_users": n}
        for fraction in fractions:
            css_rows, capacity = user_configuration_rows(n, fraction, rng=rng)
            if what == "generate":
                m = avg_time(
                    lambda: gkm.generate(css_rows, n_max=capacity, rng=rng), rounds
                )
                entry["%d%%" % round(fraction * 100)] = (
                    m.mean  # seconds, as in the paper's Figure 3
                )
            else:
                key, header = gkm.generate(css_rows, n_max=capacity, rng=rng)
                if what == "derive":
                    target = css_rows[0] if css_rows else (b"none",)
                    m = avg_time(lambda: gkm.derive(header, target), rounds)
                    entry["%d%%" % round(fraction * 100)] = m.mean_ms
                elif what == "size":
                    entry["%d%%" % round(fraction * 100)] = (
                        header.byte_size() / 1024.0
                    )
        rows_out.append(entry)
    return rows_out


def fig3(
    max_users: Sequence[int] = (100, 200, 300, 400, 500),
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    field: PrimeField = FAST_FIELD,
    rounds: int = 1,
    verbose: bool = False,
    rng: Optional[random.Random] = None,
) -> List[Dict[str, float]]:
    """Figure 3: ACV generation time (seconds) vs N per user configuration.

    ``field=PAPER_FIELD`` runs the faithful 80-bit arithmetic (pure-Python
    kernel); the default 31-bit field uses the vectorised kernel, making
    the paper's full N=1000 sweep tractable.
    """
    rows = _sweep_gkm(max_users, fractions, field, rounds, "generate", rng)
    if verbose:
        headers = ["Max Users"] + ["%d%% Subs (s)" % round(f * 100) for f in fractions]
        print(
            format_table(
                "Figure 3: ACV generation time (field=%d bits)" % field.bit_length,
                headers,
                [
                    [r["max_users"]] + [r["%d%%" % round(f * 100)] for f in fractions]
                    for r in rows
                ],
            )
        )
    return rows


def fig4(
    max_users: Sequence[int] = (100, 200, 300, 400, 500),
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    field: PrimeField = FAST_FIELD,
    rounds: int = 3,
    verbose: bool = False,
    rng: Optional[random.Random] = None,
) -> List[Dict[str, float]]:
    """Figure 4: key derivation time (milliseconds) vs N."""
    rows = _sweep_gkm(max_users, fractions, field, rounds, "derive", rng)
    if verbose:
        headers = ["Max Users"] + [
            "%d%% Subs (ms)" % round(f * 100) for f in fractions
        ]
        print(
            format_table(
                "Figure 4: key derivation time (field=%d bits)" % field.bit_length,
                headers,
                [
                    [r["max_users"]] + [r["%d%%" % round(f * 100)] for f in fractions]
                    for r in rows
                ],
            )
        )
    return rows


def fig5(
    max_users: Sequence[int] = (100, 200, 300, 400, 500),
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    field: PrimeField = PAPER_FIELD,
    verbose: bool = False,
    rng: Optional[random.Random] = None,
) -> List[Dict[str, float]]:
    """Figure 5: compressed ACV size (KB) vs N per user configuration.

    Size is a property of the header, not of timing, so the faithful
    80-bit field is the default here.
    """
    rows = _sweep_gkm(max_users, fractions, field, 1, "size", rng)
    if verbose:
        headers = ["Max Users"] + [
            "%d%% Subs (KB)" % round(f * 100) for f in fractions
        ]
        print(
            format_table(
                "Figure 5: ACV size (field=%d bits)" % field.bit_length,
                headers,
                [
                    [r["max_users"]] + [r["%d%%" % round(f * 100)] for f in fractions]
                    for r in rows
                ],
            )
        )
    return rows


def fig6(
    conditions: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    max_users: int = 500,
    num_policies: int = 25,
    field: PrimeField = FAST_FIELD,
    rounds: int = 1,
    verbose: bool = False,
    rng: Optional[random.Random] = None,
) -> List[Dict[str, float]]:
    """Figure 6: ACV generation and key derivation vs conditions/policy.

    N and the policy count stay fixed (500 and 25 in the paper); only the
    average number of conditions per policy -- the length of the hashed
    CSS concatenation -- varies.
    """
    rng = rng or random.Random(6)
    gkm = AcvBgkm(field)
    out: List[Dict[str, float]] = []
    for conds in conditions:
        css_rows, capacity = user_configuration_rows(
            max_users, 1.0, num_policies=num_policies, avg_conditions=conds, rng=rng
        )
        gen = avg_time(lambda: gkm.generate(css_rows, n_max=capacity, rng=rng), rounds)
        key, header = gkm.generate(css_rows, n_max=capacity, rng=rng)
        der = avg_time(lambda: gkm.derive(header, css_rows[0]), max(rounds, 3))
        out.append(
            {
                "conditions": conds,
                "generation_ms": gen.mean_ms,
                "derivation_ms": der.mean_ms,
            }
        )
    if verbose:
        print(
            format_table(
                "Figure 6: ACV generation / key derivation vs conditions per policy "
                "(N=%d, policies=%d)" % (max_users, num_policies),
                ["Avg conditions", "ACV generation (ms)", "Key derivation (ms)"],
                [
                    [r["conditions"], r["generation_ms"], r["derivation_ms"]]
                    for r in out
                ],
            )
        )
    return out
