"""Golden digests of every workload's outputs, to compare two commits.

    python3 perfbench/digest.py --out parent.json --src ../parent/src
    python3 perfbench/digest.py --out change.json
    python3 perfbench/digest.py --compare parent.json change.json

Makes one SHA-256 digest per output, from the source tree ``--src``
(default: this checkout's ``src/``):

* ``paper_repro``: every artifact's rows or figure fields, and the whole
  rendered ``repro reproduce all`` text;
* ``scenario_fuzz``: each scenario's ``nc``/``des``/``conformance`` payload;
* ``serve_mix``: the cold result of each distinct point among the first
  two rounds of requests of the seeded stream, served by a cluster run
  from that same source tree (timings and routing fields left out).

A refactor that claims byte-identical behaviour compares the digests of
the parent commit against its own; ``--compare`` lists every digest that
differs or exists on one side only and exits 1 if there is any.  This
is a comparison tool, not a gate inside the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

from common import OUT_DIR, SRC, BenchError, bind_source

#: result fields that carry timing or routing, not behaviour
VOLATILE = ("elapsed", "cached", "shard")


def _sha(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(value: Any) -> Any:
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot digest {type(value).__name__}")


def paper_digests() -> dict[str, str]:
    from paper_repro import ARTIFACTS, reproduce_all
    from tracing import SpanRecorder, Target

    from repro.nc import kernel

    out: dict[str, Any] = {}
    recorder = SpanRecorder()
    targets = [Target(ref, span, lambda args, value, span=span: out.__setitem__(span, value))
               for span, ref in ARTIFACTS.items()]
    kernel.reset_kernel()
    with recorder.patched(targets):
        _, stdout, error = reproduce_all(recorder)
    if error is not None:
        raise BenchError(f"repro reproduce all failed: {error}")
    digests = {"paper_repro/rendered": hashlib.sha256(stdout.encode()).hexdigest()}
    for span, value in out.items():
        if isinstance(value, list):  # table rows
            doc = [[r.quantity, r.paper, r.ours] for r in value]
        else:  # FigureData
            doc = {"series": value.series, "annotations": value.annotations}
        digests[f"paper_repro/{span}"] = _sha(doc)
    return digests


def scenario_digests(seed: int) -> dict[str, str]:
    from scenario_fuzz import payload_digest, scenarios

    from repro.nc import kernel
    from repro.scenarios import run_catalog

    kernel.reset_kernel()
    results = run_catalog(scenarios(seed)).results
    return {f"scenario_fuzz/{r.spec.name}": hashlib.sha256(payload_digest(r).encode()).hexdigest()
            for r in results}


def serve_digests(seed: int, src: Path) -> dict[str, str]:
    from serve_mix import ROUND_REQUESTS, ClusterProcess, models, request_stream

    from repro.serve import ServeClient

    docs = models()
    stream = request_stream(seed, docs)
    digests: dict[str, str] = {}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digest-serve-", dir=OUT_DIR))
    cluster = ClusterProcess(work, src)
    try:
        with ServeClient(cluster.host, cluster.port, timeout=60.0) as client:
            for _ in range(2 * ROUND_REQUESTS):
                app, params = next(stream)
                name = "serve_mix/" + json.dumps([app, params], sort_keys=True)
                if name in digests:
                    continue
                response = client.request("analyze", model=docs[app], params=params)
                if not response.get("ok"):
                    raise BenchError(f"{name}: {response}")
                result = {k: v for k, v in response["result"].items() if k not in VOLATILE}
                digests[name] = _sha(result)
    finally:
        cluster.stop()
        shutil.rmtree(work, ignore_errors=True)
    return digests


def compare(a_path: Path, b_path: Path) -> int:
    a = json.loads(a_path.read_text())["digests"]
    b = json.loads(b_path.read_text())["digests"]
    differ = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    only_a, only_b = sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys())
    for k in differ:
        print(f"differs: {k}")
    for k in only_a:
        print(f"only in {a_path}: {k}")
    for k in only_b:
        print(f"only in {b_path}: {k}")
    same = len(a.keys() & b.keys()) - len(differ)
    print(f"{same} identical, {len(differ)} differ, {len(only_a) + len(only_b)} unmatched")
    return 1 if differ or only_a or only_b else 0


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=SRC, help="source tree holding the repro package")
    p.add_argument("--seed", type=int, default=1, help="workload seed (scenario order, requests)")
    p.add_argument("--out", type=Path, help="write the digests here")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                   help="compare two digest files instead")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        p.error("--out is required unless --compare is given")
    src = args.src.resolve()
    try:
        bind_source(src)
        digests = {**paper_digests(), **scenario_digests(args.seed),
                   **serve_digests(args.seed, src)}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(
        {"source": str(src), "seed": args.seed, "digests": digests}, indent=1, sort_keys=True
    ) + "\n")
    print(f"{len(digests)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
