"""Compare two result sets of ``perf/run.py --out``.

``python3 perf/compare.py A/results.json B/results.json`` prints one row
per workload x end-to-end metric: the base value (A), the new value (B),
their ratio and the bound ``BENCHMARK.json`` fixes for that metric.  It
refuses result sets taken under different environment fingerprints,
window lengths or scales: those numbers do not measure the same thing.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perf.harness import load_spec  # noqa: E402

#: ``commit`` names what was measured, not the conditions it ran under.
_INFORMATIONAL = ("commit",)


def comparable(a: dict, b: dict) -> List[str]:
    """Reasons the two result sets must not be compared (empty = fine)."""
    reasons = []
    for key in sorted(set(a["env"]) | set(b["env"])):
        if key not in _INFORMATIONAL and a["env"].get(key) != b["env"].get(key):
            reasons.append("env %s: %r vs %r"
                           % (key, a["env"].get(key), b["env"].get(key)))
    for key in ("seconds", "scale"):
        if a.get(key) != b.get(key):
            reasons.append("%s: %r vs %r" % (key, a.get(key), b.get(key)))
    return reasons


def medians(results: dict) -> Dict[Tuple[str, str], float]:
    """Median per (workload, metric) over the untraced runs of a set."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in results["runs"]:
        if run["trace"] == 0:
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return {key: statistics.median(vals) for key, vals in values.items()}


def table(a: dict, b: dict) -> Tuple[List[str], bool]:
    """Rows of the comparison and whether every row is within its bound."""
    spec = load_spec()
    base, new = medians(a), medians(b)
    rows = ["%-14s %-18s %14s %14s %8s %6s  %s" % (
        "workload", "metric", "base (A)", "new (B)", "B/A", "bound", "verdict")]
    all_within = True
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            ratio = new[key] / base[key]
            worse_by = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            within = worse_by <= metric["bound"]
            all_within &= within
            rows.append("%-14s %-18s %14.4f %14.4f %8.4f %5.0f%%  %s" % (
                workload, metric["name"], base[key], new[key], ratio,
                100 * metric["bound"], "PASS" if within else "FAIL"))
    for label, results in (("A", a), ("B", b)):
        failed = sum(run["failed"] for run in results["runs"])
        attempted = sum(run["attempted"] for run in results["runs"])
        rows.append("failed_ratio %s = %d / %d" % (label, failed, attempted))
        all_within &= failed == 0
    return rows, all_within


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    loaded = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    reasons = comparable(*loaded)
    if reasons:
        print("refusing to compare:\n  " + "\n  ".join(reasons))
        return 2
    rows, all_within = table(*loaded)
    print("\n".join(rows))
    return 0 if all_within else 1


if __name__ == "__main__":
    sys.exit(main())
