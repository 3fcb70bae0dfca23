"""The benchmark's one command.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
is one run: human-readable metric lines, then one JSON object on the last
line of stdout (the form ``BENCHMARK.json``'s driver reads).  Without
``--workload`` it runs every workload twice -- untraced for the
end-to-end metrics, traced for the per-layer table -- each in its own
process so ``peak_rss_mb`` belongs to one workload.  ``--selftest`` shows
the oracle catching two injected faults.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perf import harness  # noqa: E402


def run_in_subprocess(workload: str, seed: int, seconds: float, trace: int,
                      scale: str = "full", out: str = "") -> dict:
    """One run in a fresh interpreter; returns its driver-line record."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", scale,
    ]
    if out:
        command += ["--out", out]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError("run of %s failed:\n%s" % (workload, done.stderr[-4000:]))
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return dict(json.loads(lines[-1]), workload=workload, trace=trace, seed=seed)


def run_all(seed: int, seconds: float, scale: str, out: str,
            traces=(0, 1)) -> dict:
    """Every workload, round-robin; returns ``{"env", "runs"}``."""
    names = [w["name"] for w in harness.load_spec()["workloads"]]
    runs = [
        run_in_subprocess(name, seed, seconds, trace, scale, out)
        for trace in traces for name in names
    ]
    return {"env": harness.fingerprint(), "seconds": seconds, "scale": scale,
            "runs": runs}


def selftest(seed: int) -> int:
    """Inject a wrong CSS and a skipped revoke; both must fail the oracle."""

    def wrong_css(world) -> None:
        member = next(m for m in world.members if m.subscriber.css_store)
        for key in member.subscriber.css_store:
            member.subscriber.css_store[key] = b"\x00" * 16

    def skipped_revoke(world) -> None:
        world.revoke = lambda nyms: 0

    verdict = 0
    for label, workload, prepare in (
        ("clean", "churn_rekey", None),
        ("one stored CSS corrupted", "steady_fanout", wrong_css),
        ("one revoke skipped", "churn_rekey", skipped_revoke),
    ):
        result = harness.run(workload, seed, 1.0, False, "smoke", prepare=prepare)
        expected_to_fail = prepare is not None
        caught = (result["failed"] > 0) == expected_to_fail
        print("selftest %-26s failed_ratio = %.3f  %s" % (
            label, result["failed_ratio"], "ok" if caught else "ORACLE MISSED IT"))
        verdict |= not caught
    return verdict


def main(argv=None) -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(harness.WINDOWS), default="full")
    parser.add_argument("--out", default="",
                        help="directory for result JSON and span logs")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(args.seed)
    if args.workload is None:
        results = run_all(args.seed, args.seconds, args.scale, args.out)
        if args.out:
            with open(os.path.join(args.out, "results.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(results, handle, indent=1)
        return 0 if all(run["correct"] for run in results["runs"]) else 1
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.scale, args.out or None)
    print("env %s" % json.dumps(harness.fingerprint(), sort_keys=True))
    print(harness.render(result))
    print(harness.driver_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
