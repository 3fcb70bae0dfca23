"""A/A check: the same commit measured twice must agree with itself.

``python3 perf/aa.py [--seconds S] [--seed N] [--out DIR]`` runs the full
set of workloads twice, interleaved round-robin (set A of every workload,
then set B -- never one workload back to back), and prints per workload x
end-to-end metric the two values, their ratio and PASS/FAIL against the
metric's bound.  A timing that fails here is a benchmark that is too
short: lengthen the window before touching the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perf import compare, harness, run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float,
                        default=harness.load_spec()["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    sets = [run.run_all(args.seed, args.seconds, "full", "", traces=(0,))
            for _ in range(2)]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for label, results in zip("AB", sets):
            with open(os.path.join(args.out, "results.%s.json" % label), "w",
                      encoding="utf-8") as handle:
                json.dump(results, handle, indent=1)
    rows, all_within = compare.table(*sets)
    print("\n".join(rows))
    return 0 if all_within else 1


if __name__ == "__main__":
    sys.exit(main())
