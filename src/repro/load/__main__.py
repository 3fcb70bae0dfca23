"""``python -m repro.load``: run a load scenario from the shell.

Examples::

    # the CI smoke run, in-process, writing the full report JSON
    python -m repro.load --builtin smoke --driver memory --report smoke.json

    # the churn scenario over real sockets with the broker as its own
    # OS process
    python -m repro.load --builtin churn --driver tcp --broker process

    # a custom scenario file
    python -m repro.load --scenario myscenario.json --driver tcp

Exit status 0 means every phase completed AND every post-phase
invariant (lockout, derivation, zero-unicast rekey) held; invariant
violations print and exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.errors import ReproError
from repro.load.engine import run_scenario
from repro.load.scenarios import BUILTIN_SCENARIOS, builtin_scenario
from repro.load.spec import load_scenario_file

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.load",
        description="Run a declarative load/churn scenario.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="scenario JSON file")
    source.add_argument("--builtin", choices=sorted(BUILTIN_SCENARIOS),
                        help="a builtin scenario")
    parser.add_argument("--driver", choices=("memory", "tcp"),
                        default="memory",
                        help="in-process transport or real TCP sockets")
    parser.add_argument("--broker", choices=("thread", "process"),
                        default="thread",
                        help="TCP driver only: broker on a background "
                             "thread or as a supervised OS process")
    parser.add_argument("--data-root", default=None,
                        help="directory for the members' durable state "
                             "(default: a private temp dir, removed after)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-settle deadline in seconds")
    parser.add_argument("--report", default=None,
                        help="also write the full report JSON here")
    parser.add_argument("--obs-dir", default=None,
                        help="collect per-entity obs.jsonl span logs from "
                             "the broker/relay tier under this directory "
                             "(readable by python -m repro.obs.report)")
    parser.add_argument("--metrics-interval", type=float, default=None,
                        help="override the scenario's metrics push/snapshot "
                             "interval in seconds (0 disables the periodic "
                             "push; phase-boundary sampling always happens)")
    parser.add_argument("--profile-dir", default=None,
                        help="record cProfile aggregates around the join "
                             "and rekey hot paths into profile_*.json files "
                             "under this directory (readable by python -m "
                             "repro.obs.profile)")
    args = parser.parse_args(argv)

    if args.builtin:
        scenario = builtin_scenario(args.builtin)
    else:
        scenario = load_scenario_file(args.scenario)
    if args.metrics_interval is not None:
        scenario = dataclasses.replace(
            scenario, metrics_interval=args.metrics_interval
        ).validate()

    try:
        report = run_scenario(
            scenario,
            driver=args.driver,
            broker=args.broker,
            data_root=args.data_root,
            timeout=args.timeout,
            obs_dir=args.obs_dir,
            profile_dir=args.profile_dir,
        )
    except ReproError as exc:
        print("FAILED: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1

    print(report.format())
    obs_table = report.format_obs()
    if obs_table:
        print(obs_table)
    attribution_table = report.format_attribution()
    if attribution_table:
        print(attribution_table)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
