"""End-to-end benchmark of the ``repro`` package, with per-layer attribution.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload paper_repro --seed 1 --seconds 25 --trace 0

Workloads (see README.md beside this file for the full record):

``paper_repro``    ``repro reproduce all`` through the CLI entry, in-process;
``scenario_fuzz``  the scenario catalog plus 200 randomized pipelines,
                   serially through ``repro.scenarios.run_catalog``;
``serve_mix``      ``repro cluster start`` (1 shard, 1 pool worker) driven
                   closed-loop with seeded ``analyze`` requests.

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
it holds every per-layer metric instead, measured in a separate run that
wraps each layer's entry points (metrics a workload does not exercise
read 0).  Lines before it list the operations that failed and any output
check that did not hold.

The run and every process it starts are kept on one CPU, the lowest the
run may use: on a small shared machine the scheduler's placement of the
serving processes otherwise moves the figures more than a change does.
Times and rates are in reference seconds (``common.SpeedProbe``): wall
time corrected by the measured speed of the machine at that moment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys

from common import OUT_DIR, BenchError, bind_source, load_spec, pin_to_one_cpu

WORKLOADS = ("paper_repro", "scenario_fuzz", "serve_mix")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measure whole rounds for at least this long "
                   "(required unless --setup-only)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--setup-only", action="store_true",
                   help="import the workload and build its inputs, then exit "
                   "(the child process timed for setup_s)")
    return p


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.setup_only and (args.seconds is None or args.seconds <= 0):
        parser.error("--seconds must be given and > 0")
    pin_to_one_cpu()
    try:
        bind_source()
        spec = load_spec()
        workload = importlib.import_module(args.workload)
        if args.setup_only:
            workload.prepare(args.seed)
            return 0
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), OUT_DIR)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(outcome.metrics) - names)
    if unknown:
        print(f"perfbench: undeclared metrics {unknown}", file=sys.stderr)
        return 3
    metrics = {}
    for m in declared:
        value = outcome.metrics.get(m["name"], 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            print(f"perfbench: metric {m['name']} not measured ({value})", file=sys.stderr)
            return 3
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}

    for line in outcome.notes:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
