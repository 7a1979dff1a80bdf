"""``serve_mix``: seeded ``analyze`` requests through a one-shard cluster.

The server is ``repro cluster start`` with one shard, one pool worker and
a fresh result-cache directory, spawned as its own process tree on the
benchmark's CPU.  One client drives it closed-loop over one connection
from the same CPU: callers of the service (sweep clients, ``repro
request``) wait for each reply.  At most one of the four processes
(client, router, shard, worker) is busy at a time.

Requests come from a stream seeded by ``--seed``: each asks for the NC
analysis of the BLAST or the bump-in-the-wire model with two sweep-axis
params, one stage's rate scaled by 0.5-2.0 and the source rate scaled.
After the first, each request repeats an earlier point with probability
0.3 (a cache read in the shard) and is new otherwise (a cache write plus
NC work in the pool worker).  Nine new points in ten scale the source by
0.9-1.0, the paper's regime where the source outruns the bottleneck and
the analysis is a ~1 ms closed form; every tenth is a BLAST variant fed
at 0.1-0.2 of its rate, a stable pipeline whose full curve analysis takes
~20 ms.  The shares are uneven and the stable share is fixed on
purpose: p50 sits a third of the way into the cheap misses and p99
inside the stable ones.  An even hit/miss mix, or a drawn share of
stable points, put them in the gap between two classes, where they
jumped from run to run; at 0.4 repeats p50 sat in the fast tail of the
misses, next to that gap.  No
DES runs on this path.  A round is 200 requests;
requests are the operations.

``setup_s`` is the median of five spawns of the cluster, each timed
until the router answers a ping (shard start and calibration included).
The speed probe is a reference request (:class:`ReferenceRequest`),
timed between requests, every fourth.
The traced run splits the client latency with the router's and the
shard's own ``stats`` histograms, and sends a sample of cache-hit
requests straight to the shard port to see the router hop from outside.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator

from common import (
    BENCH_DIR, ROOT, SETUP_REPEATS, SRC, BenchError, Outcome, SpeedProbe, child_env,
    run_rounds, timing_metrics,
)
from layers import Round, untraced_walls
from tracing import SpanRecorder

NAME = "serve_mix"
ROUND_REQUESTS = 200
REPEAT_SHARE = 0.3
#: every STABLE_EVERY-th new point is a stable BLAST variant
STABLE_EVERY = 10
#: source-rate scales: unstable for any stage scale in [0.5, 2], and stable
PAPER_SOURCE, STABLE_SOURCE = (0.9, 1.0), (0.1, 0.2)
#: requests between speed-probe samples (in the load generator)
PROBE_EVERY = 4
#: time of one reference request (``ReferenceRequest``) on the reference machine
REF_REQUEST_S = 1.7e-3
#: cache-hit requests sent both through the router and straight to the shard
DIRECT_SAMPLE = 100
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
#: what an ``analyze`` request means, as the sweep evaluator takes it
ANALYZE_OPTIONS = {"simulate": False, "packetized": False, "workload": None, "base_seed": 42}
_ROUTER_RE = re.compile(r"\[router\] listening on ([\d.]+):(\d+) \(pid (\d+)")
_SHARD_RE = re.compile(r"\[router\]\s+shard-0 at ([\d.]+):(\d+)")


def models() -> dict[str, dict[str, Any]]:
    from repro.apps.blast import blast_pipeline
    from repro.apps.bump_in_the_wire import bitw_pipeline
    from repro.streaming import pipeline_to_dict

    return {"blast": pipeline_to_dict(blast_pipeline()),
            "bitw": pipeline_to_dict(bitw_pipeline())}


def request_stream(seed: int, docs: dict[str, dict[str, Any]]) -> Iterator[tuple[str, dict]]:
    """``(app, params)`` forever: 30% repeats, every tenth new point stable."""
    rng = random.Random(seed)
    seen: list[tuple[str, dict]] = []
    while True:
        if seen and rng.random() < REPEAT_SHARE:
            yield rng.choice(seen)
            continue
        stable = len(seen) % STABLE_EVERY == STABLE_EVERY - 1
        app = "blast" if stable else rng.choice(sorted(docs))
        stage = rng.choice([s["name"] for s in docs[app]["stages"]])
        source = rng.uniform(*(STABLE_SOURCE if stable else PAPER_SOURCE))
        point = (app, {f"scale:{stage}": round(rng.uniform(0.5, 2.0), 4),
                       "source_rate_scale": round(source, 4)})
        seen.append(point)
        yield point


def prepare(seed: int) -> dict[str, dict[str, Any]]:
    import repro.serve  # noqa: F401

    return models()


class ClusterProcess:
    """One ``repro cluster start`` process tree, in its own session."""

    def __init__(self, work: Path, src: Path = SRC) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.log = work / "cluster.log"
        self.cache = work / "cache"
        t0 = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "cluster", "start", "--shards", "1",
                 "--workers-per-shard", "1", "--port", "0", "--cache-dir", str(self.cache)],
                cwd=ROOT, env=child_env(src), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        try:
            (self.host, self.port, pid), (_, self.shard_port) = self._wait_for_lines(t0)
            self.pid = int(pid)
            from repro.serve import ServeClient

            with ServeClient(self.host, self.port, connect_retries=20) as client:
                if not client.ping().get("ok"):
                    raise BenchError("router did not answer ping")
            self.ready_s = time.perf_counter() - t0
        except BaseException:
            self.kill()
            raise

    def _wait_for_lines(self, t0: float) -> tuple[tuple[str, int, str], tuple[str, int]]:
        while time.perf_counter() - t0 < START_TIMEOUT_S:
            text = self.log.read_text(errors="replace")
            router, shard = _ROUTER_RE.search(text), _SHARD_RE.search(text)
            if router and shard:
                return ((router[1], int(router[2]), router[3]), (shard[1], int(shard[2])))
            if self.proc.poll() is not None:
                raise BenchError(f"cluster exited {self.proc.returncode}: {text[-2000:]}")
            time.sleep(0.01)
        raise BenchError(f"cluster not ready in {START_TIMEOUT_S} s")

    def peak_rss_mib(self) -> float:
        """Summed peak RSS of router, shard and pool worker (not resource trackers)."""
        parents: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as fh:
                        parents[int(entry)] = int(fh.read().rsplit(")", 1)[1].split()[1])
                except (OSError, IndexError, ValueError):
                    continue
        tree, frontier = [self.pid], [self.pid]
        while frontier:
            kids = [p for p, pp in parents.items() if pp in frontier]
            tree += kids
            frontier = kids
        total_kib = 0
        for pid in tree:
            try:
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            if b"resource_tracker" in cmdline:
                continue
            hwm = re.search(r"VmHWM:\s+(\d+) kB", status)
            total_kib += int(hwm[1]) if hwm else 0
        return total_kib / 1024.0

    def stop(self) -> str:
        """SIGTERM drain; returns the log.  Kills the session on timeout."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(STOP_TIMEOUT_S)
        finally:
            self.kill()
        return self.log.read_text(errors="replace")

    def kill(self) -> None:
        """Kill whatever is left of the process tree, and reap the router."""
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                break
            if self.proc.poll() is None:
                self.proc.wait(STOP_TIMEOUT_S)
            time.sleep(0.05)  # until the shard and worker are gone too
        self.proc.wait(STOP_TIMEOUT_S)


class ReferenceRequest:
    """A reference request: a round trip through processes of the benchmark's own.

    The reference process (``refserver.py``) starts on the cluster's CPU
    with a one-worker ``ProcessPoolExecutor``; it answers each byte once
    the worker has run ``reference_work``.  The round trip goes the way a
    cache miss goes, with no ``repro`` code on it: socket I/O both ways,
    a hand-off to a pool worker and back, and interpreter work.  A
    request is mostly such hand-offs, which a bytecode loop follows
    poorly when the machine's load changes: over eight runs in a row,
    round time over the bytecode probe's time varied by 5.6% (coefficient
    of variation), over this probe's by 2.3%.
    """

    def __init__(self) -> None:
        self.sock, theirs = socket.socketpair()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "refserver.py"), str(theirs.fileno())],
                cwd=ROOT, pass_fds=(theirs.fileno(),),
            )
        except BaseException:
            self.sock.close()
            raise
        finally:
            theirs.close()
        try:
            if self.sock.recv(1) != b"r":
                raise BenchError("reference process did not start")
        except BaseException:
            self.close()
            raise

    def round_trip(self) -> None:
        self.sock.sendall(b"x")
        if self.sock.recv(1) != b"x":
            raise BenchError("reference process ended")

    def close(self) -> None:
        self.sock.close()
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _stats(client) -> dict[str, float]:
    """The router and shard histogram sums and counters the split needs."""
    doc = client.stats()["result"]
    router = doc["router"]
    shard = doc["shards"]["shard-0"]["metrics"]

    def hist(metrics, name):
        h = metrics.get(name) or {"count": 0, "sum": 0.0}
        return float(h["count"]), float(h["sum"])

    def counter(metrics, name):
        return float((metrics.get(name) or {"value": 0})["value"])

    out = {}
    out["router_n"], out["router_s"] = hist(router, "cluster.latency_s")
    out["shard_n"], out["shard_s"] = hist(shard, "serve.latency_s")
    out["service_n"], out["service_s"] = hist(shard, "serve.service_s")
    out["hits"] = counter(shard, "serve.cache.hits")
    out["misses"] = counter(shard, "serve.cache.misses")
    return out


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    docs = prepare(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir))
    try:
        return _measure(seed, seconds, trace, docs, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(seed: int, seconds: float, trace: bool, docs: dict, work: Path,
             out_dir: Path) -> Outcome:
    from repro.serve import ServeClient

    setups: list[float] = []
    starts = 1 if trace else SETUP_REPEATS  # a traced run reports no setup_s
    for k in range(starts):
        cluster = ClusterProcess(work / f"start{k}")
        setups.append(cluster.ready_s)
        if k < starts - 1:
            cluster.stop()

    stream = request_stream(seed, docs)
    recorder = SpanRecorder()
    rounds: list[Round] = []
    sent: list[tuple[str, dict, dict]] = []  # (app, params, response)
    deltas: dict[str, float] = {}  # stats growth over the traced rounds
    direct: dict[str, list[float]] = {"routed": [], "direct": []}
    reference = None
    try:
        reference = ReferenceRequest()
        probe = SpeedProbe(reference.round_trip, REF_REQUEST_S)
        client = ServeClient(cluster.host, cluster.port, timeout=60.0).connect()

        def one_round(i: int) -> None:
            traced = trace and i % 2 == 1
            before = _stats(client) if traced else {}
            t0 = time.perf_counter()
            with recorder.span("round") as root:
                for n in range(ROUND_REQUESTS):
                    if not trace and n % PROBE_EVERY == 0:
                        probe.sample()
                    app, params = next(stream)
                    with recorder.span("request"):
                        response = client.request("analyze", model=docs[app], params=params)
                    sent.append((app, params, response))
            rounds.append(Round(root, traced, time.perf_counter() - t0))
            for k, v in (_stats(client) if traced else {}).items():
                deltas[k] = deltas.get(k, 0.0) + v - before[k]

        # the load generator keeps every reply for the checks; its own
        # cyclic GC passes over them would land inside request timings
        gc.disable()
        try:
            t_start = time.perf_counter()
            run_rounds(seconds, one_round, min_rounds=2 if trace else 1)
            elapsed = time.perf_counter() - t_start
        finally:
            gc.enable()
        if trace:
            _direct_sample(client, cluster, docs, sent, direct)
        client.close()
        peak = cluster.peak_rss_mib()
    finally:
        try:
            if reference is not None:
                reference.close()
        finally:
            log = cluster.stop()

    attempted = len(sent) + len(direct["routed"]) + len(direct["direct"])
    failed = sum(1 for _, _, r in sent if not r.get("ok"))
    problems = check_responses(docs, sent)
    if "drained (clean)" not in log:
        problems.append("cluster drain was not clean")
    notes = [f"{NAME}: {len(rounds)} round(s), {attempted} requests, {failed} failed",
             f"measured {elapsed:.1f} s"]
    if trace:
        metrics = split_metrics(recorder, rounds, deltas, direct)
        path = recorder.write_chrome(out_dir / f"trace-{NAME}-seed{seed}.json", NAME)
        notes.append(f"trace written to {path}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
            **timing_metrics(probe, recorder, [r.root for r in rounds], ("request",)),
        }
        notes.append(f"latency samples: {len(sent)}; median wall round "
                     f"{statistics.median(r.wall for r in rounds):.3f} s; "
                     f"machine speed {probe.speed():.3f} of the reference")
    return Outcome(attempted, failed, metrics, problems, notes)


def _direct_sample(client, cluster, docs, sent, direct) -> None:
    """Identical cache-hit requests, through the router and straight to the shard."""
    from repro.serve import ServeClient

    points = [(app, params) for app, params, r in sent if r.get("ok")]
    sample = random.Random(0).sample(points, min(DIRECT_SAMPLE, len(points)))
    with ServeClient(cluster.host, cluster.shard_port, timeout=60.0) as shard:
        for app, params in sample:
            for kind, conn in (("routed", client), ("direct", shard)):
                t = time.perf_counter()
                response = conn.request("analyze", model=docs[app], params=params)
                direct[kind].append(time.perf_counter() - t)
                if not response.get("ok"):
                    raise BenchError(f"{kind} sample request failed: {response}")


def split_metrics(recorder: SpanRecorder, rounds: list[Round], deltas: dict[str, float],
                  direct: dict[str, list[float]]) -> dict[str, float]:
    """Client latency split by layer, per request, from the stats deltas.

    protocol = client - router, router hop = router - shard, pool wait =
    shard - worker compute (cache I/O and dispatch included); the four
    parts add up to the client latency.  ``serve.service_ms`` is worker
    compute per evaluated (missed) request.
    """
    traced = [r for r in rounds if r.traced]
    requests = recorder.descendants([r.root for r in traced], "request")
    client_s = sum(recorder.spans[i].end - recorder.spans[i].start for i in requests)
    n = len(requests)
    return {
        "serve.protocol_ms": (client_s - deltas["router_s"]) / n * 1e3,
        "cluster.router_hop_ms": (deltas["router_s"] - deltas["shard_s"]) / n * 1e3,
        "cluster.router_hop_client_ms":
            (statistics.mean(direct["routed"]) - statistics.mean(direct["direct"])) * 1e3,
        "serve.pool_wait_ms": (deltas["shard_s"] - deltas["service_s"]) / n * 1e3,
        "serve.service_ms":
            deltas["service_s"] / deltas["service_n"] * 1e3 if deltas["service_n"] else 0.0,
        "sweep.cache.hit_ratio": deltas["hits"] / (deltas["hits"] + deltas["misses"]),
        "trace.attributed_share": client_s / sum(r.wall for r in traced),
        "trace.overhead_s": (
            statistics.median(r.wall for r in traced) - statistics.median(untraced_walls(rounds))
        ),
    }


def _canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def check_responses(docs: dict[str, dict], sent: list[tuple[str, dict, dict]]) -> list[str]:
    """Served results against the sweep evaluator run here, hits against cold replies."""
    from repro.sweep import evaluate_point, point_key, point_seed

    problems: list[str] = []
    first: dict[str, dict] = {}
    for app, params, response in sent:
        if not response.get("ok"):
            continue
        result = dict(response["result"])
        point = _canonical([app, params])
        cold = first.get(point)
        if cold is None:
            first[point] = result
            if result.get("cached") is not False:
                problems.append(f"{point}: first request answered from cache")
            expected = evaluate_point(docs[app], params, ANALYZE_OPTIONS,
                                      point_seed(ANALYZE_OPTIONS["base_seed"], params))
            served = {k: v for k, v in result.items() if k in expected and k != "elapsed"}
            local = {k: v for k, v in expected.items() if k != "elapsed"}
            if _canonical(served) != _canonical(local):
                problems.append(f"{point}: served result differs from evaluate_point")
            if result.get("key") != point_key(docs[app], params, ANALYZE_OPTIONS):
                problems.append(f"{point}: served key differs from point_key")
        else:
            if result.get("cached") is not True:
                problems.append(f"{point}: repeated request not answered from cache")
            hit = {k: v for k, v in result.items() if k != "cached"}
            if _canonical(hit) != _canonical({k: v for k, v in cold.items() if k != "cached"}):
                problems.append(f"{point}: cache-hit reply differs from the cold reply")
    return problems
