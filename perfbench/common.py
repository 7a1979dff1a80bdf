"""Shared plumbing of the benchmark: source binding, set-up timing, stats.

The benchmark runs from the root of a source checkout and imports the
``repro`` package from that checkout's ``src/`` directory only; a
checkout without it is an error, never a silent fall-back to some other
installed copy.

Every time the benchmark reports but ``setup_s`` is in reference
seconds (see :class:`SpeedProbe`): on a small shared machine the speed
of the CPU moves by half within seconds, with the load of other tenants,
and wall times taken a minute apart differ by more than any bound could
allow.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Collection, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: scratch space for traces, caches and digests (ignored by git)
OUT_DIR = ROOT / ".perfbench-out"

#: fresh interpreters timed per run for ``setup_s`` (median reported)
SETUP_REPEATS = 5

#: time of one ``reference_work`` call on the machine the README's
#: reference figures come from (its median there was 1.09 ms)
REF_S = 1.0e-3
#: probe samples taken on each side of an interval to judge its speed
REF_NEIGHBOURS = 5


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source tree, dead server)."""


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    #: output checks that did not hold on operations that did not fail
    problems: list[str] = field(default_factory=list)
    #: human-readable lines printed ahead of the result line
    notes: list[str] = field(default_factory=list)


def reference_work() -> int:
    """Fixed interpreter-bound work (dict updates, small sorts), ~1 ms."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(400):
        k = i * 7919 % 97
        table[k] = table.get(k, 0) + i
        acc += sum(sorted(j * 31 % 17 for j in range(12)))
    return acc


class SpeedProbe:
    """The machine's speed over a run, from timed ``reference_work`` calls.

    Samples are taken between operations (:meth:`sample`) or every few
    milliseconds from a timer signal while the program runs
    (:meth:`periodic`).  :meth:`ref_seconds` turns a wall interval into
    reference seconds: the interval less the samples inside it, each
    stretch of it times ``ref_s`` over the median sample around that
    stretch.  The timed work is ``reference_work`` unless another unit,
    with its own reference time, is given.  On a machine as fast as the reference one a reference
    second is a wall second; a program change moves both alike, while a
    slower or busier machine moves the wall time alone.
    """

    def __init__(self, work: Callable[[], Any] = reference_work, ref_s: float = REF_S) -> None:
        #: the timed unit of work, and its time on the reference machine
        self.work, self.ref_s = work, ref_s
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    @contextlib.contextmanager
    def periodic(self, period_s: float):
        """Take a sample every ``period_s`` of wall time (SIGALRM)."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """The wall interval ``[t0, t1]`` in reference seconds.

        The samples inside the interval cut it into gaps; each gap counts
        at the speed of the ``REF_NEIGHBOURS`` samples on either side of it.
        """
        if not self.durations:
            raise BenchError("no speed-probe samples taken")
        total, at = 0.0, t0
        k = bisect.bisect_right(self.ends, t0)
        while True:
            next_start = self.ends[k] - self.durations[k] if k < len(self.ends) else math.inf
            gap_end = min(next_start, t1)
            if gap_end > at:
                around = self.durations[max(0, k - REF_NEIGHBOURS):k + REF_NEIGHBOURS]
                total += (gap_end - at) * self.ref_s / statistics.median(around)
            if next_start >= t1:
                return total
            at = self.ends[k]
            k += 1

    def speed(self) -> float:
        """Median machine speed over the run, relative to the reference machine."""
        return self.ref_s / statistics.median(self.durations)


def setup_argv(workload: str, seed: int) -> list[str]:
    """Child command that imports a workload and builds its inputs, then exits."""
    return [str(BENCH_DIR / "run.py"), "--setup-only", "--workload", workload,
            "--seed", str(seed)]


def bind_source(src: Path = SRC) -> None:
    """Put ``src`` first on ``sys.path`` and check ``repro`` imports from it."""
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {src} (run from a source checkout)")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"repro imported from {repro.__file__}, not from {src}")


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned


def child_env(src: Path = SRC) -> dict[str, str]:
    """Environment for child interpreters: the same source tree first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def load_spec() -> dict[str, Any]:
    """The benchmark's own metric declarations (``BENCHMARK.json``)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def time_setup_child(argv: Sequence[str], repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of ``repeats`` fresh interpreters running ``argv``.

    Each child imports what the workload needs and builds its inputs,
    then exits; the time is spawn to exit.  It stays in wall seconds:
    start-up is module loading and page faults more than bytecode, and
    on the reference machine it sped up by a quarter where the speed
    probe sped up twofold, so the probe's correction would overshoot.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return statistics.median(times)


def peak_rss_mib_self() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation, 1 <= pct <= 99)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_rounds(
    seconds: float,
    one_round: Callable[[int], None],
    *,
    min_rounds: int = 1,
) -> int:
    """Call ``one_round(i)`` for whole rounds until ``seconds`` have passed.

    Every run attempts whole rounds of the same operations, so the share
    of failed operations does not depend on how long the run was.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_rounds or time.perf_counter() < deadline:
        one_round(i)
        i += 1
    return i


def timing_metrics(probe: SpeedProbe, recorder: Any, roots: Sequence[int],
                   ops: Collection[str]) -> dict[str, float]:
    """``wall_s``, ``rps`` and the operation latency percentiles of a run.

    ``roots`` are the measured rounds' spans and ``ops`` the names of the
    operation spans under them; every time is in reference seconds.
    ``wall_s`` is the median round, ``rps`` operations per second over
    all rounds.
    """
    spans = recorder.spans
    walls = [probe.ref_seconds(spans[r].start, spans[r].end) for r in roots]
    latencies = [probe.ref_seconds(spans[i].start, spans[i].end)
                 for i in recorder.descendants(roots) if spans[i].name in ops]
    return {
        "wall_s": statistics.median(walls),
        "rps": len(latencies) / sum(walls),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
    }
