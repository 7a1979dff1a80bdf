"""The layer entry points the traced runs wrap, and the numbers taken from them.

Both in-process workloads (``paper_repro``, ``scenario_fuzz``) run in
rounds; a traced run alternates untraced and traced rounds, so the
tracing overhead is the difference between the two kinds.  Per-layer
numbers are per traced round.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any, Sequence

from tracing import SpanRecorder, Target

DES_RUN = "repro.des.pipeline_sim:PipelineSimulation.run"

#: every layer entry point a traced round wraps (``PipelineSimulation.run``
#: is wrapped in every round, see :class:`DesCapture`); an entry point a
#: workload never reaches records nothing
LAYERS = (
    Target("repro.streaming.simulation:to_simulation", "des.build"),
    Target("repro.des.report:SimulationReport.observed_virtual_delays", "des.report"),
    Target("repro.streaming.analysis:analyze", "nc.analyze"),
    Target("repro.streaming.model:build_model", "nc.build_model"),
    Target("repro.telemetry.conformance:valid_bounds", "nc.valid_bounds"),
    Target("repro.telemetry.conformance:evaluate_conformance", "telemetry.conformance"),
    Target("repro.telemetry.conformance:check_arrivals", "telemetry.conformance"),
    Target("repro.scenarios.runner:judge_scenario", "scenarios.judge"),
    Target("repro.sweep.spec:SweepSpec.apply_point", "sweep.model_build"),
    Target("repro.sweep.cache:point_key", "sweep.key"),
    Target("repro.sweep.runner:point_seed", "sweep.key"),
    Target("repro.viz.figures:FigureData.ascii", "viz.render"),
    Target("repro.reproduction:format_rows", "reproduction.format"),
)
DES_SPANS = ("des.run", "des.build", "des.report")


class DesCapture:
    """Counts a round's simulations, their jobs and their distinct inputs.

    Reports are not kept (a round's worth would inflate the peak RSS of
    every later round); byte conservation is checked as each one arrives.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.jobs = 0
        self.keys: set = set()
        self.not_conserving = 0

    def target(self) -> Target:
        def keep(args: tuple, report: Any) -> None:
            self.runs += 1
            self.jobs += sum(st.jobs for st in report.stages)
            self.not_conserving += not report.conservation_ok()
            sim = args[0]
            self.keys.add(freeze({k: v for k, v in vars(sim).items() if k != "probe"}))

        return Target(DES_RUN, "des.run", keep)


@dataclasses.dataclass
class Round:
    root: int  # the round's span
    traced: bool
    wall: float
    des: DesCapture = dataclasses.field(default_factory=DesCapture)
    #: kernel memo counters after the round (traced rounds only)
    memo: "dict[str, Any] | None" = None


def freeze(value: Any) -> Any:
    """A hashable image of a simulator's inputs (closures by their cells)."""
    if callable(value) and hasattr(value, "__code__"):
        cells = tuple(freeze(c.cell_contents) for c in value.__closure__ or ())
        return ("fn", value.__qualname__, cells)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, freeze(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple(sorted((k, freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    return repr(value)


def layer_metrics(
    recorder: SpanRecorder, rounds: Sequence[Round], ops: Sequence[str]
) -> dict[str, float]:
    """Per-layer numbers of the traced rounds, per round.

    ``ops`` names the operation spans (artifacts, scenarios), which the
    attribution looks through.
    """
    traced = [r for r in rounds if r.traced]
    roots = [r.root for r in traced]
    n = len(traced)
    des_s = recorder.inclusive(["des.run"], within=roots) / n
    jobs = sum(r.des.jobs for r in traced) / n
    hits = sum(r.memo["hits"] for r in traced)
    lookups = hits + sum(r.memo["misses"] for r in traced)
    covered = sum(recorder.covered(root, ops=ops) for root in roots)
    total = sum(recorder.spans[root].end - recorder.spans[root].start for root in roots)
    return {
        "des.s": des_s,
        "des.runs": sum(r.des.runs for r in traced) / n,
        "des.runs_distinct": sum(len(r.des.keys) for r in traced) / n,
        "des.jobs": jobs,
        "des.us_per_job": des_s / jobs * 1e6 if jobs else 0.0,
        "nc.analyze_s": recorder.inclusive(["nc.analyze"], within=roots) / n,
        "nc.analyze_calls": len(recorder.descendants(roots, "nc.analyze")) / n,
        "nc.valid_bounds_s": recorder.inclusive(["nc.valid_bounds"], within=roots) / n,
        "nc.memo_hit_ratio": hits / lookups if lookups else 0.0,
        "telemetry.conformance_s":
            recorder.inclusive(["telemetry.conformance"], within=roots) / n,
        "scenarios.judge_s": recorder.inclusive(["scenarios.judge"], within=roots) / n,
        "trace.attributed_share": covered / total,
        "trace.overhead_s":
            statistics.median(r.wall for r in traced) - statistics.median(untraced_walls(rounds)),
    }


def untraced_walls(rounds: Sequence[Round]) -> list[float]:
    """Untraced round times, leaving out the first (cold) round when possible."""
    walls = [r.wall for r in rounds[1:] if not r.traced]
    return walls or [r.wall for r in rounds if not r.traced]
