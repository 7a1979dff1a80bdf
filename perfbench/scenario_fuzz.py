"""``scenario_fuzz``: the scenario catalog plus 200 randomized stable pipelines.

Inputs: the 34-scenario built-in catalog and
``randomized_scenarios(n=200, base_seed=2)`` (renamed ``b2/<name>`` so
the names stay unique beside the catalog's own randomized family), 234
scenarios in all.  ``--seed`` shuffles their order.  The set itself is
fixed: base seed 2 holds three pipelines that fail the
``backlog.system`` conformance check every time (see README.md), and a
seed-drawn set would fail a different number of scenarios on every seed.

One round evaluates every scenario serially through
``repro.scenarios.run_catalog`` with no result cache, one call per
scenario, so each scenario's latency is timed from outside.  The
curve-algebra kernel memo is cleared before every round, as in a fresh
``repro scenarios run`` process.  A scenario the program judges failed
is a failed operation; any failure other than a known ``backlog.system``
fault also fails the output checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import statistics
import time
from typing import Any

from common import (
    Outcome, SpeedProbe, peak_rss_mib_self, run_rounds, setup_argv, time_setup_child,
    timing_metrics,
)
from layers import LAYERS, DesCapture, Round, layer_metrics
from tracing import SpanRecorder

NAME = "scenario_fuzz"
RANDOM_N, RANDOM_BASE_SEED = 200, 2
#: scenarios that fail ``backlog.system`` with base seed 2: the observed
#: DES system backlog exceeds the valid NC backlog bound by 0.3-3.3%
KNOWN_FAULTS = frozenset({"b2/rand-d5-23", "b2/rand-d6-149", "b2/rand-d3-181"})
#: relative tolerance of the benchmark's own recomputations
RTOL = 1e-9


def scenarios(seed: int) -> list[Any]:
    """The workload's scenarios, in the order ``seed`` draws."""
    from repro.scenarios import catalog, randomized_scenarios

    specs = catalog() + [
        dataclasses.replace(s, name=f"b{RANDOM_BASE_SEED}/{s.name}")
        for s in randomized_scenarios(n=RANDOM_N, base_seed=RANDOM_BASE_SEED)
    ]
    random.Random(seed).shuffle(specs)
    return specs


def prepare(seed: int) -> list[Any]:
    import repro.scenarios  # noqa: F401

    return scenarios(seed)


def run(seed: int, seconds: float, trace: bool, out_dir) -> Outcome:
    from repro.nc import kernel
    from repro.scenarios import run_catalog

    specs = prepare(seed)
    probe = SpeedProbe()
    setup_s = None if trace else time_setup_child(setup_argv(NAME, seed))
    recorder = SpanRecorder()
    rounds: list[Round] = []
    problems: list[str] = []
    failed: list[Any] = []  # failed results of the first round
    n_failed = 0
    digests: set[str] = set()

    def one_round(i: int) -> None:
        traced = trace and i % 2 == 1
        des = DesCapture()
        targets = [des.target(), *LAYERS] if traced else []
        out: list[Any] = []
        kernel.reset_kernel()
        with recorder.patched(targets):
            t0 = time.perf_counter()
            with recorder.span("round") as root:
                for spec in specs:
                    if not trace:
                        probe.sample()
                    with recorder.span("scenario"):
                        out.append(run_catalog([spec]).results[0])
            wall = time.perf_counter() - t0
        rounds.append(Round(root, traced, wall, des, kernel.memo_stats() if traced else None))
        nonlocal n_failed
        for r in out:
            if r.ok:
                problems.extend(f"{r.spec.name}: {p}" for p in check_scenario(r))
            else:
                n_failed += 1
                if i == 0:
                    failed.append(r)
        digests.add(hashlib.sha256(
            "".join(r.spec.name + payload_digest(r) for r in out).encode()
        ).hexdigest())

    t_start = time.perf_counter()
    run_rounds(seconds, one_round, min_rounds=2 if trace else 1)
    elapsed = time.perf_counter() - t_start
    peak = peak_rss_mib_self()

    attempted = len(specs) * len(rounds)
    if len(digests) > 1:
        problems.append("scenario payloads differ between rounds of identical input")

    notes = [f"{NAME}: {len(rounds)} round(s), {attempted} scenarios, {n_failed} failed"]
    for r in failed:
        reason = r.error or "; ".join(c.describe() for c in r.failures)
        known = "known fault" if _is_known_fault(r) else "UNEXPECTED"
        line = (f"failed ({known}): {r.spec.name}: {reason}; "
                f"conformance checks failing: {failing_conformance(r)}")
        notes.append(line)
        if known == "UNEXPECTED":
            problems.append(line)
    mended = sorted(KNOWN_FAULTS - {r.spec.name for r in failed})
    if mended:
        notes.append(f"known backlog.system faults no longer failing: {mended}")

    plain = [r for r in rounds if not r.traced]
    if trace:
        metrics = layer_metrics(recorder, rounds, ("scenario",))
        path = recorder.write_chrome(out_dir / f"trace-{NAME}-seed{seed}.json", NAME)
        notes.append(f"trace written to {path}")
        notes += [f"layer entry point not found: {m}" for m in recorder.missing]
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak,
            **timing_metrics(probe, recorder, [r.root for r in plain], ("scenario",)),
        }
        notes.append(f"median wall round {statistics.median(r.wall for r in plain):.3f} s; "
                     f"machine speed {probe.speed():.3f} of the reference")
    notes.append(f"measured {elapsed:.1f} s")
    return Outcome(attempted, n_failed, metrics, problems, notes)


def payload_digest(result: Any) -> str:
    """The scenario's ``nc``/``des``/``conformance`` payload, canonically."""
    return json.dumps(
        {"nc": result.nc, "des": result.des, "conformance": result.conformance,
         "error": result.error},
        sort_keys=True, separators=(",", ":"),
    )


def failing_conformance(result: Any) -> list[str]:
    checks = (result.conformance or {}).get("checks", {})
    return sorted(name for name, c in checks.items() if not c.get("ok", False))


def _is_known_fault(result: Any) -> bool:
    return (
        result.spec.name in KNOWN_FAULTS
        and [c.name for c in result.failures] == ["conformance"]
        and failing_conformance(result) == ["backlog.system"]
    )


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def check_scenario(result: Any) -> list[str]:
    """Closed forms recomputed here, and the NC sandwich on stable pipelines."""
    problems: list[str] = []
    actual = {c.name: c.actual for c in result.checks}
    for name, expected in queueing_closed_forms(result.spec.pipeline).items():
        if name in actual and not _close(float(actual[name]), expected):
            problems.append(f"{name} = {actual[name]!r}, textbook {expected!r}")
    nc, des, conf = result.nc, result.des, result.conformance
    if des is None or not nc["stable"]:
        return problems
    if not des["steady_state_throughput"] >= nc["throughput_lower_bound"] * (1 - RTOL):
        problems.append("DES throughput below the NC lower bound")
    # D(t) <= A(t) <= alpha(t): the output cannot outrun the arrival envelope
    envelope = nc["effective_burst"] + nc["throughput_upper_bound"] * des["makespan"]
    if not des["output_bytes"] <= envelope * (1 + RTOL):
        problems.append("DES output exceeds the NC arrival envelope")
    checks = conf["checks"]
    if not des["virtual_delay_max"] <= checks["delay.end_to_end"]["bound"] * (1 + RTOL):
        problems.append("observed delay exceeds the valid delay bound")
    if not des["max_backlog_bytes"] <= checks["backlog.system"]["bound"] * (1 + RTOL):
        problems.append("observed backlog exceeds the valid backlog bound")
    return problems


def queueing_closed_forms(doc: dict[str, Any]) -> dict[str, float]:
    """Textbook values for a single-station or tandem pipeline document.

    M/M/1 at the station: L = rho/(1-rho), W = 1/(mu-lambda),
    Wq = rho/(mu-lambda); M/G/1 with uniform service on
    [job/max_rate, job/min_rate] (Pollaczek-Khinchine):
    Wq = lambda E[S^2] / (2 (1 - rho)); tandem M/M/1 backlog in bytes:
    sum of rho_i/(1-rho_i) * job_i.
    """
    src = doc["source"]["rate"]
    stages = doc["stages"]
    out: dict[str, float] = {}
    if any("volume_ratio" in s for s in stages):
        return out
    rhos = [src / s["avg_rate"] for s in stages]
    if all(r < 1 for r in rhos):
        out["tandem_backlog_bytes"] = sum(
            r / (1 - r) * s["job_bytes"] for r, s in zip(rhos, stages)
        )
    if len(stages) == 1:
        s = stages[0]
        lam = src / s["job_bytes"]
        mu = s["avg_rate"] / s["job_bytes"]
        if lam < mu:
            rho = lam / mu
            out["mm1_mean_jobs"] = rho / (1 - rho)
            out["mm1_mean_sojourn"] = 1 / (mu - lam)
            out["mm1_mean_wait"] = rho / (mu - lam)
        lo, hi = s["job_bytes"] / s["max_rate"], s["job_bytes"] / s["min_rate"]
        es, es2 = (lo + hi) / 2, (lo * lo + lo * hi + hi * hi) / 3
        if lam * es < 1:
            out["mg1_mean_wait"] = lam * es2 / (2 * (1 - lam * es))
    return out
