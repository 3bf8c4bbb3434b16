"""One pass of a workload in a fresh interpreter.

Reads a plan {"ops": [argv, ...], "trace": bool, "provenance": bool} as JSON
on stdin, drives the program only through `tubekernels.cli.main(argv)` with
its stdout and stderr captured, and writes one JSON result on stdout:
per-op exit code, latency and captured output, the process's peak RSS, the
time its `import tubekernels.cli` finished, the speed-probe times of every
gap between ops, and, when traced, the spans and whether every wrapped
attribute was restored.

The speed probe is a fixed CPU kernel (a Python loop and small NumPy QR
factorizations, the program's own mix) timed in the gaps between ops,
outside every op timing.  Shared hosts change speed by up to 2x over tens of
milliseconds to minutes; the probes nearest an op measure the speed it ran
at (run.py scales by them).  A pass of one command (the suite) has no gap,
so no probe.

Run by perfbench/run.py with PYTHONPATH pointing at the checkout's src/.
"""

import time

import tubekernels.cli as cli

IMPORT_DONE = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

PROBES_PER_PASS = 120
PROBE_MATRIX = np.arange(64.0).reshape(8, 8) + np.eye(8)


def probe():
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(50):
        np.linalg.qr(PROBE_MATRIX)
    return time.perf_counter() - t0


def run_ops(ops, rec=None):
    """Run every op; returns (per-op results, probe times per gap)."""
    results, gaps = [], []
    per_gap = -(-PROBES_PER_PASS // max(1, len(ops) - 1))
    for i, argv in enumerate(ops):
        if i:
            gaps.append([probe() for _ in range(per_gap)])
        out, err = io.StringIO(), io.StringIO()
        exc = None
        token = rec.begin() if rec else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # an uncaught program error is a failed op, not a crashed pass
            code, exc = None, traceback.format_exc()
        secs = time.perf_counter() - t0
        if rec:
            rec.end(token, "cli.main")
        results.append({"code": code, "secs": secs, "out": out.getvalue(), "err": err.getvalue(), "exc": exc})
    return results, gaps


def provenance():
    import scipy

    blas = None
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    except TypeError:  # NumPy < 1.25 prints the config instead
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main():
    plan = json.load(sys.stdin)
    rec = undo = None
    if plan["trace"]:
        import tracing

        rec = tracing.Recorder()
        undo = tracing.install(rec)
    try:
        results, gaps = run_ops(plan["ops"], rec)
    finally:
        restored = undo() if undo else None
    doc = {
        "import_done": IMPORT_DONE,
        "probe_s": statistics.median(t for gap in gaps for t in gap) if gaps else None,
        "gap_probes_s": gaps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
    }
    if rec:
        doc["spans"] = rec.spans
        doc["restored"] = restored
    if plan.get("provenance"):
        doc["provenance"] = provenance()
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
