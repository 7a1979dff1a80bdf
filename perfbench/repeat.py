"""Repeat one workload N times and report each metric's median and quartiles.

    python3 perfbench/repeat.py --workload scenario_fuzz --runs 10

Runs ``perfbench/run.py`` once per seed (``--first-seed``, +1, ...), one
run at a time, and prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  Each run is
``run_seconds`` of ``BENCHMARK.json`` long.  An end-to-end metric whose
spread exceeds its bound in ``BENCHMARK.json`` is flagged, and so is a
run whose share of failed operations differs from the first run's.
Exit status 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT, load_spec


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def summarize(results: list[dict], spec: dict, trace: int) -> tuple[list[str], bool]:
    declared = spec["per_layer" if trace else "end_to_end"]
    lines = [f"{'metric':<30} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>8} {'bound':>6}"]
    flagged = False
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = m.get("bound")
        flag = bound is not None and spread > bound
        flagged |= flag
        lines.append(
            f"{m['name']:<30} {m['unit']:>6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{spread:>8.2%} {'' if bound is None else f'{bound:.0%}':>6}"
            + ("  SPREAD ABOVE BOUND" if flag else "")
        )
    shares = {(r["failed"], r["attempted"]) for r in results}
    ratios = {f / a for f, a in shares}
    lines.append(f"failed/attempted per run: {sorted(shares)}")
    if len(ratios) > 1:
        flagged = True
        lines.append("FAILED SHARE DIFFERS BETWEEN RUNS")
    if not all(r["correct"] for r in results):
        flagged = True
        lines.append("OUTPUT CHECKS FAILED in some run")
    return lines, flagged


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"]
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        results.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"run {i + 1}/{args.runs} (seed {seed}) done", file=sys.stderr, flush=True)
    lines, flagged = summarize(results, spec, args.trace)
    print(f"{args.workload}: {args.runs} runs of {seconds:g} s, trace {args.trace}")
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
