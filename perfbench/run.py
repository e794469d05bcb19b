"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-geant --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the traced variant and prints the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it stamps the
environment (Python, kernel core, cores, commit, seed).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Spawned node processes re-import this file as ``__mp_main__`` and inherit
# this search path, so the package is importable on both sides.
for entry in (str(SRC), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

WORKLOADS = ("sim-geant", "sim-clique-backlog", "live-saturate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    from perfbench import livebench, simbench
    from perfbench.common import (
        END_TO_END, OUT_DIR, PER_LAYER, environment, metric_table, render,
    )

    # Each workload's module (``end_to_end`` / ``per_layer``) and the
    # arguments its runs take ahead of the seed.
    module, head = {
        "sim-geant": (simbench, (simbench.SIM_GEANT,)),
        "sim-clique-backlog": (simbench, (simbench.SIM_CLIQUE_BACKLOG,)),
        "live-saturate": (livebench, ()),
    }[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            outcome = module.per_layer(
                *head, args.seed, args.seconds, str(OUT_DIR / f"spans-{args.workload}.tsv"),
            )
            # A layer the workload does not run did no work.
            table = metric_table(
                {name: 0.0 for name, _ in PER_LAYER} | outcome.values, PER_LAYER,
            )
        else:
            outcome = module.end_to_end(*head, args.seed, args.seconds)
            table = metric_table(outcome.values, END_TO_END)
    finally:
        livebench.stop_helper_processes()
    for problem in outcome.problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{args.workload} seed {args.seed}: {kind} metrics over {outcome.attempted} ops")
    for line in render(table):
        print(line)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    env["host_slowdown"] = outcome.host_slowdown
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": table,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
