"""``paper_repro``: ``repro reproduce all`` driven in-process through the CLI.

One round is one ``repro.cli.main(["reproduce", "all"])`` call: Tables
1-3, the Section 4.2 / Section 5 observation rows and Figs. 1, 4 and
10, in one thread.  Its eight artifact builders are the operations,
timed by wrapping them (the same wrappers keep their outputs for the
checks).  The paper fixes this path's inputs (DES seed 42, a 256 MiB
BLAST and a 4 MiB bump-in-the-wire workload), so ``--seed`` changes
nothing here.

The curve-algebra kernel memo is cleared before every round, so each
round starts as cold as a fresh ``repro reproduce all`` process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import time
from typing import Any

from common import (
    Outcome, SpeedProbe, peak_rss_mib_self, run_rounds, setup_argv, time_setup_child,
    timing_metrics,
)
from layers import DES_SPANS, LAYERS, DesCapture, Round, layer_metrics
from tracing import SpanRecorder, Target

NAME = "paper_repro"
#: wall time between speed-probe samples taken while the rounds run
PROBE_PERIOD_S = 0.05

#: operation span -> builder, in CLI order
ARTIFACTS = {
    "artifact.table1": "repro.reproduction:table1_rows",
    "artifact.blast_obs": "repro.reproduction:blast_observation_rows",
    "artifact.table2": "repro.reproduction:table2_rows",
    "artifact.table3": "repro.reproduction:table3_rows",
    "artifact.bitw_obs": "repro.reproduction:bitw_observation_rows",
    "artifact.fig1": "repro.viz.figures:figure1",
    "artifact.fig4": "repro.viz.figures:figure4",
    "artifact.fig10": "repro.viz.figures:figure10",
}

#: |ours - paper| / paper allowed per row (substring of the quantity):
#: the reproduction tolerances of benchmarks/bench_table*.py.  None marks
#: the external-measurement row, which carries no value of ours.
TOLERANCES = {
    "artifact.table1": {"NC upper bound": 0.01, "NC lower bound": 0.01, "DES model": 0.02,
                        "Queueing prediction": 0.01, "Measured": None},
    "artifact.blast_obs": {"delay bound": 0.01, "sim longest delay": 0.10,
                           "sim shortest delay": 0.10, "backlog bound": 0.01,
                           "sim max backlog": 0.30},
    "artifact.table2": {s: 0.01 for s in ("compress", "encrypt", "network", "decrypt",
                                           "decompress", "pcie")},
    "artifact.table3": {"NC upper bound": 0.01, "NC lower bound": 0.06, "DES model": 0.07,
                        "Queueing prediction": 0.02},
    "artifact.bitw_obs": {"delay bound": 0.01, "sim longest delay": 0.10,
                          "sim shortest delay": 0.20, "backlog bound": 0.01,
                          "sim max backlog": 0.30},
}


def prepare(seed: int) -> None:
    """Everything the rounds import (the paper path has no generated inputs)."""
    import repro.cli  # noqa: F401
    import repro.reproduction  # noqa: F401
    import repro.viz  # noqa: F401


def reproduce_all(recorder: SpanRecorder) -> tuple[int, str, "str | None"]:
    """One ``repro reproduce all``: its span, its standard output, its error."""
    from repro import cli

    buf = io.StringIO()
    error = None
    with recorder.span("round") as root, contextlib.redirect_stdout(buf):
        try:
            status = cli.main(["reproduce", "all"])
            if status != 0:
                error = f"exit status {status}"
        except Exception as exc:  # noqa: BLE001 - counted as failed artifacts
            error = f"{type(exc).__name__}: {exc}"
    return root, buf.getvalue(), error


def run(seed: int, seconds: float, trace: bool, out_dir) -> Outcome:
    from repro.nc import kernel

    prepare(seed)
    probe = SpeedProbe()
    setup_s = None if trace else time_setup_child(setup_argv(NAME, seed))
    recorder = SpanRecorder()
    rounds: list[Round] = []
    problems: list[str] = []
    rendered: set[str] = set()
    errors: list["str | None"] = []
    failed = 0

    def one_round(i: int) -> None:
        traced = trace and i % 2 == 1
        out: dict[str, Any] = {}
        des = DesCapture()
        targets = [
            Target(ref, span, lambda args, value, span=span: out.__setitem__(span, value))
            for span, ref in ARTIFACTS.items()
        ]
        targets.append(des.target())
        if traced:
            targets.extend(LAYERS)
        kernel.reset_kernel()
        with recorder.patched(targets):
            t0 = time.perf_counter()
            root, stdout, error = reproduce_all(recorder)
            wall = time.perf_counter() - t0
        rounds.append(Round(root, traced, wall, des, kernel.memo_stats() if traced else None))
        errors.append(error)
        if error is None:
            problems.extend(f"round {i}: {p}" for p in check_outputs(out, des))
            rendered.add(hashlib.sha256(stdout.encode()).hexdigest())
        else:
            nonlocal failed
            failed += len(ARTIFACTS) - len(out)

    t_start = time.perf_counter()
    # the DES runs for seconds inside one artifact: the probe samples from a
    # timer signal (untraced runs only, so no layer span holds a sample)
    with contextlib.nullcontext() if trace else probe.periodic(PROBE_PERIOD_S):
        run_rounds(seconds, one_round, min_rounds=2 if trace else 1)
    elapsed = time.perf_counter() - t_start
    peak = peak_rss_mib_self()

    attempted = len(ARTIFACTS) * len(rounds)
    if len(rendered) > 1:
        problems.append("rendered output differs between rounds of identical input")

    notes = [f"{NAME}: {len(rounds)} round(s), {attempted} artifacts, {failed} failed"]
    notes += [f"round {n} failed: {err}" for n, err in enumerate(errors) if err]
    plain = [r for r in rounds if not r.traced]
    if trace:
        metrics = layer_metrics(recorder, rounds, tuple(ARTIFACTS))
        figures = [i for i in recorder.descendants([r.root for r in rounds if r.traced])
                   if recorder.spans[i].name.startswith("artifact.fig")]
        metrics["viz.figures_self_s"] = (
            sum(recorder.spans[i].end - recorder.spans[i].start for i in figures)
            - recorder.inclusive(DES_SPANS, within=figures)
        ) / (len(rounds) - len(plain))
        path = recorder.write_chrome(out_dir / f"trace-{NAME}-seed{seed}.json", NAME)
        notes.append(f"trace written to {path}")
        notes += [f"layer entry point not found: {m}" for m in recorder.missing]
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak,
            **timing_metrics(probe, recorder, [r.root for r in plain], ARTIFACTS),
        }
        notes.append(f"median wall round {statistics.median(r.wall for r in plain):.3f} s; "
                     f"machine speed {probe.speed():.3f} of the reference")
    notes.append(f"measured {elapsed:.1f} s")
    return Outcome(attempted, failed, metrics, problems, notes)


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #


def _row(rows, label: str):
    for row in rows:
        if label in row.quantity:
            return row
    raise KeyError(label)


def check_outputs(out: dict[str, Any], des: DesCapture) -> list[str]:
    """Every property the paper's outputs must have; returns what failed."""
    problems: list[str] = []
    for span, tolerances in TOLERANCES.items():
        for row in out[span]:
            tol = next((t for key, t in tolerances.items() if key in row.quantity), "none")
            if tol == "none":
                problems.append(f"{span}: no tolerance for row {row.quantity!r}")
            elif tol is not None:
                dev = abs(row.ours - row.paper) / abs(row.paper)
                if not dev <= tol:
                    problems.append(f"{span}: {row.quantity} off the paper by {dev:.1%} "
                                    f"(allowed {tol:.0%})")
    for table in ("artifact.table1", "artifact.table3"):
        lo, sim, hi = (_row(out[table], q).ours
                       for q in ("NC lower bound", "DES model", "NC upper bound"))
        if not lo <= sim <= hi:
            problems.append(f"{table}: DES throughput {sim:.6g} outside NC [{lo:.6g}, {hi:.6g}]")
    for obs in ("artifact.blast_obs", "artifact.bitw_obs"):
        rows = out[obs]
        if not _row(rows, "sim longest delay").ours <= _row(rows, "delay bound").ours:
            problems.append(f"{obs}: observed delay exceeds the delay bound")
        if not _row(rows, "sim max backlog").ours <= _row(rows, "backlog bound").ours:
            problems.append(f"{obs}: observed backlog exceeds the backlog bound")
    if not des.runs:
        problems.append("no DES run observed")
    if des.not_conserving:
        problems.append(f"{des.not_conserving} DES run(s) do not conserve bytes")
    problems += _check_fig1(out["artifact.fig1"])
    problems += _check_between(out["artifact.fig4"], "blast", 1e-3, 2.0**20)
    problems += _check_between(out["artifact.fig10"], "bitw", 1e-6, 2.0**10)
    return problems


def _check_fig1(fig) -> list[str]:
    """Fig. 1's annotated bounds against the textbook affine formulas."""
    r_a, b, r_b, t, r_g = 100.0, 8.0, 150.0, 0.05, 220.0
    # alpha* = (alpha (x) gamma) (/) beta: its burst is the largest gap
    # between min(gamma, alpha) and beta, taken at their breakpoints
    knee = b / (r_g - r_a)
    gaps = [min(r_g * u, b + r_a * u) - r_b * max(0.0, u - t) for u in (0.0, t, knee)]
    expected = {
        "virtual_delay_d": t + b / r_b,
        "backlog_x": b + r_a * t,
        "output_burst": max(gaps),
    }
    return [
        f"fig1: {k} = {fig.annotations[k]:.9g}, textbook {v:.9g}"
        for k, v in expected.items()
        if not math.isclose(fig.annotations[k], v, rel_tol=1e-9)
    ]


def _check_between(fig, app: str, t_unit: float, c_unit: float) -> list[str]:
    """The simulated output lies between the packetized service curve and alpha."""
    import numpy as np

    from repro.streaming import analyze, build_model

    if app == "blast":
        from repro.apps.blast import blast_pipeline as pipeline
        workload = 512 * 2.0**20
    else:
        from repro.apps.bump_in_the_wire import bitw_pipeline as pipeline
        workload = 4 * 2.0**20
    alpha = analyze(pipeline(), packetized=False, workload=workload).alpha
    beta = build_model(pipeline(), packetized=True).beta_system
    ts, cs = fig.series["simulation"]
    t = np.asarray(ts) * t_unit
    c = np.asarray(cs) * c_unit
    slack = 1e-9 * max(1.0, float(c.max()))
    problems = []
    above = c - np.asarray(alpha(t))
    if above.max() > slack:
        problems.append(f"{fig.name}: simulation exceeds alpha by {above.max():.6g} B")
    # the output holds c[i] until the next departure: check just before it
    below = np.asarray(beta(t[1:])) - c[:-1]
    if len(below) and below.max() > slack:
        problems.append(f"{fig.name}: simulation falls below beta' by {below.max():.6g} B")
    return problems
