"""The sievecraft benchmark: CLI workloads run end to end, outputs checked.

    python3 perfbench/run.py --workload census-poly --seed 1 --seconds 15 --trace 0

Run from the repository root.  The operations of the workload (workloads.py)
are drawn from the seed, their reference values are computed without
sievecraft (reference.py), and then passes are run until --seconds have gone
by (at least three).  Each pass is a fresh process that imports sievecraft
from ./src and runs every operation once through ``sievecraft.cli.run``; each
output is checked (checks.py).  With --trace 0 the last line of stdout gives
the median pass's wall_s, peak_rss_mb and setup_s; with --trace 1 passes
alternate untraced and traced, and it gives the per-layer metrics listed in
BENCHMARK.json, with the tracing overhead.  The line before it records the
run's backend, revision, core count and versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
import workloads

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_SAMPLES = 5  # import-only launches per run, on top of one per pass
PASS_TIMEOUT_S = 150
# glibc raises its mmap threshold as large blocks are freed, after which some
# numpy arrays come from the heap and stay resident once freed.  Which ones do
# depends on the heap's layout, down to the length of the paths in argv: the
# same census-poly pass peaked at 82.8 MB from one directory and 90.7 MB from
# another.  A fixed threshold maps and unmaps every large array on its own, so
# the peak is that of live memory, the same from any checkout.
WORKER_ENV = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072"}


def run_pass(src: Path, ops: list[dict], traced: bool) -> dict:
    """One worker process; setup_s runs from launch to its ``ready`` line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), str(src),
        "1" if traced else "0", json.dumps([op["argv"] for op in ops]),
    ]
    t0 = time.perf_counter()
    # unbuffered, so that communicate() finds everything after the first line
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, env=WORKER_ENV)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {first!r}")
    report = json.loads(rest.splitlines()[-1])
    report["setup_s"] = ready - t0
    report["traced"] = traced
    return report


def revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values: list):
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def layer_metric(name: str, traced: list[dict], plain: list[dict]):
    if name == "trace.overhead_s":
        return median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain])
    if name.endswith(".calls_per_entry"):
        fn = name.rsplit(".", 1)[0]
        return median([p["trace"].get(f"{fn}.calls", 0) / p["trace"]["cli.run.calls"] for p in traced])
    return median([p["trace"].get(name, 0) for p in traced])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "sievecraft" / "cli.py").is_file():
        print("perfbench: no ./src/sievecraft; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    ops = workloads.make_ops(args.workload, args.seed)
    refs = [reference.reference(op) for op in ops]
    setups = [run_pass(src, [], traced=False)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    attempted = failed = 0
    wrong = False  # a problem other than the known fault
    problems_seen: dict[str, int] = {}
    start = time.perf_counter()
    while True:
        rep = run_pass(src, ops, traced=bool(args.trace) and len(passes) % 2 == 1)
        for op, ref, res in zip(ops, refs, rep["results"]):
            problems = checks.check(op, ref, res["rc"], res["stdout"])
            attempted += 1
            failed += bool(problems)
            wrong |= any(not p.startswith(checks.FAULT) for p in problems)
            for p in problems:
                key = f"{' '.join(op['argv'])}: {p}"
                problems_seen[key] = problems_seen.get(key, 0) + 1
            del res["stdout"], res["stderr"]
        passes.append(rep)
        n = len(passes)
        done = n >= 2 and n % 2 == 0 if args.trace else n >= MIN_PASSES
        if done and time.perf_counter() - start >= args.seconds:
            break

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        values = {m["name"]: layer_metric(m["name"], traced, plain) for m in spec["per_layer"]}
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": median([p["wall_s"] for p in plain]),
            "peak_rss_mb": median([p["peak_rss_kb"] / 1024 for p in plain]),
            "setup_s": median(setups + [p["setup_s"] for p in passes]),
        }
        declared = spec["end_to_end"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "backend": sorted({p["backend"] for p in passes}),
        "revision": revision(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "operations": [op["argv"] for op in ops],
        "pass_seconds": [[r["seconds"] for r in p["results"]] for p in passes],
    }
    print(json.dumps({"run": info}))
    for p, k in problems_seen.items():
        print(f"{k} x {p}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
