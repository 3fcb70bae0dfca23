"""Reproduce the paper's evaluation section (Table II, Figures 2-6).

Prints one table per experiment to stdout, separated by rules of ``#``:
Table II (EQ-OCBE on the genus-2 group), Figure 2 (GE-OCBE over the
attribute bit length), Figures 3 and 4 (ACV generation and key
derivation over the capacity N), Figure 5 (ACV size) and Figure 6
(conditions per policy).  Default parameters are scaled for a quick
pure-Python run (~2 minutes); pass ``--paper`` for the paper-scale sweep
(N up to 1000; expect tens of minutes).  The repository records no
paper-scale run: the printed tables are the result.

Run:  python examples/reproduce_evaluation.py [--paper]
"""

import argparse
import random

from repro.bench.figures import fig2, fig3, fig4, fig5, fig6, table2
from repro.gkm.acv import FAST_FIELD, PAPER_FIELD


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper", action="store_true",
        help="run at the paper's scale (N up to 1000; slow)",
    )
    args = parser.parse_args()

    rng = random.Random(2010)

    print("#" * 72)
    table2(group_name="paper-genus2", rounds=3, verbose=True, rng=rng)

    print("#" * 72)
    if args.paper:
        fig2(ells=(5, 10, 15, 20, 25, 30, 35, 40), rounds=3, verbose=True, rng=rng)
    else:
        fig2(ells=(5, 10, 20, 40), rounds=1, verbose=True, rng=rng)

    sweep = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000) if args.paper \
        else (100, 200, 300, 400, 500)

    print("#" * 72)
    fig3(max_users=sweep, field=FAST_FIELD, rounds=1, verbose=True, rng=rng)

    print("#" * 72)
    fig4(max_users=sweep, field=FAST_FIELD, rounds=3, verbose=True, rng=rng)

    print("#" * 72)
    fig5(max_users=sweep, field=PAPER_FIELD, verbose=True, rng=rng)

    print("#" * 72)
    conds = tuple(range(1, 11)) if args.paper else (1, 2, 4, 6, 8, 10)
    n = 500 if args.paper else 250
    fig6(conditions=conds, max_users=n, field=FAST_FIELD, rounds=1,
         verbose=True, rng=rng)


if __name__ == "__main__":
    main()
