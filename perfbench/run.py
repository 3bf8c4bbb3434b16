#!/usr/bin/env python3
"""The tubekernels benchmark: four workloads, end-to-end metrics, traced per-layer metrics.

    python3 perfbench/run.py --workload mc-single --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1   # every workload; ROADMAP Baseline rows

Each pass of a workload runs its whole op sequence in a fresh interpreter
(perfbench/worker.py), so the program's caches start empty as they do for a
CLI user and only reuse within the workload counts.  Passes repeat until
--seconds is used up (at least two); every metric is the median over the
passes of the run, except the op latency percentiles, which pool the ops of
every pass.  With --trace 1 untraced and traced passes alternate; the
traced ones give the per-layer metrics, the difference of their wall times
the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it print every metric with its unit,
fail_ratio, the failing ops and the provenance of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# (name, unit); fail_ratio is printed with these and carried in the result as failed / attempted.
END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 3
# Op and wall times of a pass with probes between its ops are reported in
# reference seconds: each op's measured seconds times PROBE_REF_S / (median
# of the PROBE_WINDOW or more probes nearest to it, see op_speeds).  The
# probe (worker.py) takes about 2 ms on the 2-core machine the bounds were
# set on, whose speed drifts by up to 2x.  A one-command pass (the suite)
# has no gaps; its times, and setup_s, are measured seconds.
PROBE_REF_S = 0.002
PROBE_WINDOW = 12
WORKER_TIMEOUT_S = 170
# A run makes at least this many passes.  op_tail_s is the highest whole
# percentile with at least 10 ops beyond it in a pool of this many passes;
# the run takes that percentile over the ops of all its passes, so the
# percentile does not move with the number of passes that fit in a run.
MIN_PASSES = 2


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _check_checkout():
    for rel in ("src/tubekernels/cli.py", workloads.SUITE_SOURCE):
        if not (ROOT / rel).is_file():
            raise BenchError(f"{rel} not found under {ROOT}: run from a tubekernels checkout")


def setup_sample():
    """Seconds from spawning a fresh interpreter to `import tubekernels.cli` done."""
    code = "import tubekernels.cli, time; print(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env=_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import tubekernels.cli failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip()) - t0


def run_pass(plan, trace, want_provenance=False):
    request = json.dumps({"ops": [op.argv for op in plan.ops], "trace": trace, "provenance": want_provenance})
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(WORKER)], input=request, capture_output=True, text=True,
                          cwd=ROOT, env=_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["setup_s"] = result["import_done"] - t0
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def op_speeds(res):
    """Per command: reference seconds per measured second.

    From the median of the probes in the gaps around the command (gap i-1 is
    just before command i, gap i just after), widened symmetrically until
    the window holds at least PROBE_WINDOW probes.
    """
    gaps = res["gap_probes_s"]
    if not gaps:
        return [1.0] * len(res["ops"])
    half = max(1, -(-PROBE_WINDOW // (2 * len(gaps[0]))))
    speeds = []
    for i in range(len(res["ops"])):
        window = [t for gap in gaps[max(0, i - half):i + half] for t in gap]
        speeds.append(PROBE_REF_S / statistics.median(window))
    return speeds


def pass_speed(res):
    """One factor for a whole pass (the per-layer metrics): its median probe."""
    return PROBE_REF_S / res["probe_s"] if res["probe_s"] else 1.0


def tail_percentile(ops_per_pass):
    """The highest whole percentile with at least 10 ops beyond it in MIN_PASSES passes."""
    n = ops_per_pass * MIN_PASSES
    if n <= 10:  # only the tiny smoke plans are this small
        return 100
    return 100 * (n - 10) // n


def percentile(latencies, p):
    """Nearest-rank p-th percentile."""
    s = sorted(latencies)
    k = max(1, -(-p * len(s) // 100))
    return s[k - 1]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@contextlib.contextmanager
def plan_files(plan):
    """Write the plan's input files under the checkout root; remove them afterwards."""
    written = []
    try:
        for rel, text in plan.files.items():
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            written.append(path)
        yield
    finally:
        for path in written:
            path.unlink(missing_ok=True)
        work = ROOT / workloads.WORK_DIR
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload for `seconds`; returns the report dict (metrics, counts, failures, provenance)."""
    plan = workloads.build(name, seed, ROOT, tiny)
    with plan_files(plan):
        return _measure(plan, seconds, trace)


def _measure(plan, seconds, trace):
    start = time.perf_counter()
    deadline = start + seconds
    setup_sample()  # warm-up: the first import of a fresh checkout also compiles bytecode
    setups = [setup_sample() for _ in range(SETUP_SAMPLES)]
    kinds = (False, True) if trace else (False,)
    passes = []
    while True:
        traced = kinds[len(passes) % len(kinds)]
        result = run_pass(plan, traced, want_provenance=not passes)
        result["traced"] = traced
        passes.append(result)
        setups.append(result["setup_s"])
        if len(passes) >= MIN_PASSES and time.perf_counter() + result["elapsed_s"] > deadline:
            break

    attempted = failed = 0
    failures = []
    plain, traced_metrics, traced_walls, pooled = [], [], [], []
    restored = True
    for i, res in enumerate(passes):
        outs = workloads.outcomes(plan, res["ops"])
        attempted += len(outs)
        for secs, why, label in outs:
            if why:
                failed += 1
                failures.append({"pass": i, "op": label, "why": why})
        scale = op_speeds(res)
        wall = sum(op["secs"] * f for op, f in zip(res["ops"], scale))
        if res["traced"]:
            traced_walls.append(wall)
            traced_metrics.append(tracing.layer_metrics(res["spans"], pass_speed(res)))
            restored = restored and res["restored"]
            continue
        # a suite pass is one command (no gaps, so speed 1) carrying every experiment
        speeds = scale if len(scale) == len(outs) else [scale[0]] * len(outs)
        lat = [secs * f for (secs, _, _), f in zip(outs, speeds)]
        pooled += lat
        plain.append({
            "wall_s": wall,
            "ops_per_s": plan.op_count / wall,
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        })

    p_tail = tail_percentile(plan.op_count)
    metrics = {k: statistics.median(p[k] for p in plain) for k in ("wall_s", "ops_per_s", "peak_rss_mb")}
    metrics["op_p50_s"] = statistics.median(pooled)
    metrics["op_tail_s"] = percentile(pooled, p_tail)
    metrics["setup_s"] = statistics.median(setups)
    metrics = {k: metrics[k] for k, _ in END_TO_END}
    report = {
        "workload": plan.name,
        "seed": plan.seed,
        "passes": len(plain),
        "ops_per_pass": plan.op_count,
        "tail_percentile": p_tail,
        "pooled_ops": len(pooled),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "provenance": {
            **passes[0]["provenance"],
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "workload_seed": plan.seed,
            "inputs_sha256": plan.digest(),
        },
    }
    if trace:
        names = tracing.metric_names()
        layer = {k: statistics.median(m[k] for m in traced_metrics) for k in names if k != "trace.overhead_s"}
        layer["trace.overhead_s"] = statistics.median(traced_walls) - metrics["wall_s"]
        report["layer_metrics"] = layer
        report["traced_passes"] = len(traced_metrics)
        report["restored"] = restored
    return report


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_report(rep, trace):
    m = rep["metrics"]
    print(f"workload {rep['workload']}  seed {rep['seed']}  passes {rep['passes']}  "
          f"ops/pass {rep['ops_per_pass']}  inputs sha256:{rep['provenance']['inputs_sha256'][:16]}")
    for name, unit in END_TO_END:
        extra = ""
        if name == "op_tail_s":
            extra = (f"   (p{rep['tail_percentile']} of the {rep['pooled_ops']} ops of {rep['passes']} passes,"
                     f" {rep['ops_per_pass']} per pass)")
        print(f"  {name:<14}{_fmt(m[name]):>14} {unit}{extra}")
    print(f"  {'fail_ratio':<14}{_fmt(rep['fail_ratio']):>14} 1   ({rep['failed']} of {rep['attempted']} ops failed)")
    passes_of = {}
    for f in rep["failures"]:
        passes_of.setdefault((f["op"], f["why"]), []).append(f["pass"])
    for (op, why), passes in list(passes_of.items())[:20]:
        print(f"    FAILED in {len(passes)} passes: {op}: {why}")
    if trace:
        print(f"  traced passes {rep['traced_passes']}  wrapped attributes restored: {rep['restored']}")
        for name, value in rep["layer_metrics"].items():
            print(f"  {name:<46}{_fmt(value):>14} {tracing.unit_of(name)}")
    print("provenance " + json.dumps(rep["provenance"], sort_keys=True))


def result_line(reports, trace):
    metrics = {}
    for rep in reports:
        prefix = f"{rep['workload']}." if len(reports) > 1 else ""
        if trace:
            values = [(k, v, tracing.unit_of(k)) for k, v in rep["layer_metrics"].items()]
        else:
            values = [(k, rep["metrics"][k], unit) for k, unit in END_TO_END]
        for k, v, unit in values:
            metrics[prefix + k] = {"value": v, "unit": unit}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = failed == 0 and all(r.get("restored", True) for r in reports)
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _check_checkout()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        reports = []
        for name in names:
            rep = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(rep, bool(args.trace))
            reports.append(rep)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(result_line(reports, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
