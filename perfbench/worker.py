"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py SRC TRACE OPS_JSON

Imports sievecraft from SRC, prints ``ready`` once the package and its kernel
backend are loaded, then runs each operation through ``sievecraft.cli.run``
with its output captured, and prints one JSON line: the backend, the outputs
and exit codes, the pass's wall time, peak RSS and, with TRACE = 1, the
per-layer trace summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """Peak resident memory of this process in KiB.

    On Linux, ru_maxrss also counts the launching process's peak, which exec
    carries over; VmHWM is the peak of this process's own memory only."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    src, trace, ops = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    sys.path.insert(0, src)
    from sievecraft import cli, kernels

    print("ready", flush=True)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results, wall = [], 0.0
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(argv)
            except Exception:  # report the failure and run the next operation
                rc = "exception"
                err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        wall += dt
        results.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": dt})
    report = {
        "backend": kernels.BACKEND,
        "wall_s": wall,
        "peak_rss_kb": peak_rss_kb(),
        "results": results,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
