"""Span recorder wrapped around the program's layer boundaries, and the per-layer metrics.

The program is traced from outside: each layer entry point is replaced, for
the duration of a traced pass, at the name its caller resolves at call time
(modules import functions by name, so `tubekernels.radial.hyp2f1_multi` and
`tubekernels.cli.hyp2f1_multi` are wrapped separately).  `install` returns
an undo that puts every original back and reports whether it did.

A span is (id, name, start, end, parent, op, thread, attrs).  Monte Carlo
blocks run in pool threads, so the stack of open spans is per thread, a pool
thread with an empty stack takes the enclosing estimate as its parent, and
ids and appends go through a lock.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict

COMMANDS = (
    "eval-2f1", "eval-spherical", "check-hua-integral", "check-schur-det", "check-pde",
    "check-x-system", "check-casimir-disk", "check-covariance", "table", "suite",
)

# (rank, k_max) cells of the Jack-table split; r1/r2 are the closed forms at any k_max.
JACK_CELLS = ("r1", "r2", "r3_k20", "r3_k30", "r3_k40", "r4_k30", "other")
JACK_BUILD_CELLS = ("r3_k20", "r3_k30", "r3_k40", "r4_k30")
# Haar Monte Carlo rows of the baseline, per 2e6 samples.
BASELINE_SAMPLES = 2_000_000
BASELINE_ESTIMATES = (
    ("schur_estimate_s", "check-schur-det", 2, 1),
    ("schur_estimate_s", "check-schur-det", 2, 2),
    ("schur_estimate_s", "check-schur-det", 3, 1),
    ("hua_estimate_s", "check-hua-integral", 2, 1),
    ("hua_estimate_s", "check-hua-integral", 2, 2),
)


class Recorder:
    def __init__(self):
        self.spans = []
        self.op = 0
        self.pool_parent = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main:
            parent = self.pool_parent
        else:
            parent = None
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, token, name, attrs=None):
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, name, start, end, parent, self.op, threading.get_ident(), attrs or {}))


def _wrap(rec, name, fn, attrs=None):
    def wrapper(*args, **kwargs):
        token = rec.begin()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.end(token, name, attrs(args, result) if attrs and result is not None else None)

    wrapper.__wrapped__ = fn
    return wrapper


def _series_attrs(args, res):
    return {"degree": res.truncation_degree, "converged": bool(res.converged)}


def _count_attrs(index):
    return lambda args, res: {"n": args[index].shape[-1], "count": args[index].shape[0]}


def install(rec):
    """Wrap every layer entry point; returns undo() -> True if all originals are back."""
    import numpy.linalg

    import tubekernels.cli as cli
    import tubekernels.hypergeom as hypergeom
    import tubekernels.partitions as partitions
    import tubekernels.radial as radial
    import tubekernels.schur as schur
    import tubekernels.shilov as shilov

    saved = []

    def put(owner, key, value):
        if isinstance(owner, dict):
            saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def span(owner, key, name, attrs=None):
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        put(owner, key, _wrap(rec, name, original, attrs))

    # partitions: the table the series asks for, with the lru_cache outcome
    jack_all, table_cache = hypergeom.jack_C_all, partitions._jack_table_cached

    def jack_table(alpha, x, kmax):
        hits = table_cache.cache_info().hits
        token = rec.begin()
        table = None
        try:
            table = jack_all(alpha, x, kmax)
            return table
        finally:
            hit = table_cache.cache_info().hits > hits
            rec.end(token, "partitions.jack_table",
                    {"rank": len(x), "kmax": kmax, "hit": hit, "entries": len(table) if table else 0})

    put(hypergeom, "jack_C_all", jack_table)

    # hypergeom: the multivariate series at each caller, the classical series of the det formula
    span(cli, "hyp2f1_multi", "hypergeom.series", _series_attrs)
    span(radial, "hyp2f1_multi", "hypergeom.series", _series_attrs)
    span(schur, "hyp2f1_classical", "hypergeom.classical")

    # radial
    for owner, key in ((cli, "spherical_F"), (cli, "spherical_F_xform"), (radial, "spherical_F")):
        span(owner, key, "radial.spherical_F")
    for key in ("radial_residual_report", "x_system_residual", "disk_casimir_residual"):
        span(cli, key, "radial.fd_stencil")
    span(radial, "circle_quadrature", "radial.quadrature")
    span(shilov, "circle_quadrature", "radial.quadrature")

    # shilov: one estimate = _run_blocks; its integrand closure is wrapped per call
    run_blocks = shilov._run_blocks

    def estimate(batch_values, n, samples, seed, workers):
        token = rec.begin()
        outer = rec.pool_parent
        rec.pool_parent = token[0]
        try:
            return run_blocks(_wrap(rec, "shilov.integrand", batch_values, _count_attrs(0)),
                              n, samples, seed, workers)
        finally:
            rec.pool_parent = outer
            rec.end(token, "shilov.estimate", {"n": n, "samples": samples, "workers": workers})

    put(shilov, "_run_blocks", estimate)
    span(shilov, "_haar_block", "shilov.haar_block", lambda a, r: {"n": a[0], "count": a[3]})
    span(shilov, "_block_stats", "shilov.block_stats")
    span(shilov, "_merge", "shilov.merge")

    # schur
    span(cli, "phi_m_batch", "schur.phi_m_batch", _count_attrs(1))
    span(numpy.linalg, "eigvals", "schur.eigvals")
    span(schur, "phi_m", "schur.collision_fallback")
    span(cli, "det_formula_rhs", "schur.det_formula")

    # domains
    span(shilov, "poisson_kernel_batch", "domains.kernel_batch")
    span(cli, "kernel_covariance_residual", "domains.covariance")
    span(cli, "cocycle_residual", "domains.covariance")

    # cli: every runner, looked up in _RUNNERS by main and by the suite runner;
    # each runner call but the suite's own is one op
    def runner(command, original):
        wrapped = _wrap(rec, f"cli.{command}", original)
        if command == "suite":
            return wrapped

        def counted(cfg):
            rec.op += 1
            return wrapped(cfg)

        return counted

    for command in list(cli._RUNNERS):
        put(cli._RUNNERS, command, runner(command, cli._RUNNERS[command]))

    def undo():
        for owner, key, original in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        return all(
            (owner[key] if isinstance(owner, dict) else getattr(owner, key)) is original
            for owner, key, original in saved
        )

    return undo


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _self_times(spans):
    """Duration minus the union of the children's intervals, clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for sid, _, start, end, *_ in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def _partition_counts(rank, kmax):
    """cum[d] = number of partitions with at most `rank` parts and weight <= d."""
    # p[k] counts partitions of k into parts of size <= rank, which by
    # conjugation equals partitions of k into at most rank parts
    p = [1] + [0] * kmax
    for part in range(1, rank + 1):
        for k in range(part, kmax + 1):
            p[k] += p[k - part]
    return list(itertools.accumulate(p))


def _jack_cell(rank, kmax):
    if rank <= 2:
        return f"r{rank}"
    cell = f"r{rank}_k{kmax}"
    return cell if cell in JACK_CELLS else "other"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, speed=1.0):
    """Per-layer metrics of one traced pass, every name present (0 where a layer is idle).

    Times are scaled by `speed` (reference seconds per measured second).
    """
    by_id = {s[0]: s for s in spans}
    self_s = _self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def dur(s):
        return s[3] - s[2]

    def total_self(name):
        return sum(self_s[s[0]] for s in by_name[name])

    def busy(name):
        return sum(dur(s) for s in by_name[name])

    def ancestor(s, prefix):
        while s[4] is not None:
            s = by_id.get(s[4])
            if s is None:
                return None
            if s[1].startswith(prefix):
                return s
        return None

    m = {}

    # partitions
    jack = by_name["partitions.jack_table"]
    misses = [s for s in jack if not s[7]["hit"]]
    built = sum(s[7]["entries"] for s in misses)
    used = 0
    counts = {}
    for s in misses:
        a = s[7]
        parent = by_id.get(s[4])
        degree = parent[7].get("degree", a["kmax"]) if parent and parent[7] else a["kmax"]
        key = (a["rank"], a["kmax"])
        if key not in counts:
            counts[key] = _partition_counts(a["rank"], a["kmax"])
        used += counts[key][min(degree, a["kmax"])]
    m["partitions.jack_table.calls"] = len(jack)
    m["partitions.jack_table.self_s"] = total_self("partitions.jack_table")
    m["partitions.jack_table.cache_hit_ratio"] = _ratio(len(jack) - len(misses), len(jack))
    m["partitions.jack_table.entries_built"] = built
    m["partitions.jack_table.used_ratio"] = _ratio(used, built)
    cells = defaultdict(float)
    builds = defaultdict(list)
    for s in jack:
        cell = _jack_cell(s[7]["rank"], s[7]["kmax"])
        cells[cell] += self_s[s[0]]
        if not s[7]["hit"]:
            builds[cell].append(dur(s))
    for cell in JACK_CELLS:
        m[f"partitions.jack_table.self_s.{cell}"] = cells[cell]
    for cell in JACK_BUILD_CELLS:
        m[f"partitions.jack_table.build_s.{cell}"] = statistics.fmean(builds[cell]) if builds[cell] else 0.0

    # hypergeom
    series = by_name["hypergeom.series"]
    m["hypergeom.series.calls"] = len(series)
    m["hypergeom.series.self_s"] = total_self("hypergeom.series")
    m["hypergeom.series.shells"] = sum(s[7].get("degree", 0) for s in series)
    m["hypergeom.series.unconverged"] = sum(1 for s in series if s[7].get("converged") is False)
    m["hypergeom.classical.calls"] = len(by_name["hypergeom.classical"])
    m["hypergeom.classical.self_s"] = total_self("hypergeom.classical")

    # radial
    m["radial.spherical_F.calls"] = len(by_name["radial.spherical_F"])
    m["radial.spherical_F.self_s"] = total_self("radial.spherical_F")
    stencils = by_name["radial.fd_stencil"]
    per_stencil = defaultdict(int)
    for s in series:
        owner = ancestor(s, "radial.fd_stencil")
        if owner is not None:
            per_stencil[owner[0]] += 1
    m["radial.fd_stencil.calls"] = len(stencils)
    m["radial.fd_stencil.self_s"] = total_self("radial.fd_stencil")
    # over the stencils that evaluate a series (the disk Casimir stencil uses quadrature)
    m["radial.fd_stencil.series_per_residual"] = _ratio(sum(per_stencil.values()), len(per_stencil))
    m["radial.quadrature.calls"] = len(by_name["radial.quadrature"])
    m["radial.quadrature.self_s"] = total_self("radial.quadrature")

    # shilov
    estimates = by_name["shilov.estimate"]
    est_wall = busy("shilov.estimate")
    samples = sum(s[7]["samples"] for s in estimates)
    block_busy = busy("shilov.haar_block") + busy("shilov.integrand") + busy("shilov.block_stats")
    m["shilov.haar_block.count"] = len(by_name["shilov.haar_block"])
    m["shilov.haar_block.busy_s"] = busy("shilov.haar_block")
    m["shilov.integrand.busy_s"] = busy("shilov.integrand")
    m["shilov.merge.self_s"] = total_self("shilov.merge")
    m["shilov.estimate.wall_s"] = est_wall
    m["shilov.samples"] = samples
    m["shilov.samples_per_s"] = _ratio(samples, est_wall)
    m["shilov.busy_ratio"] = _ratio(block_busy, sum(s[7]["workers"] * dur(s) for s in estimates))

    # schur
    m["schur.phi_m_batch.calls"] = len(by_name["schur.phi_m_batch"])
    m["schur.phi_m_batch.busy_s"] = busy("schur.phi_m_batch")
    m["schur.eigvals.busy_s"] = busy("schur.eigvals")
    m["schur.collision_fallbacks"] = len(by_name["schur.collision_fallback"])
    m["schur.det_formula.self_s"] = total_self("schur.det_formula")

    # domains
    m["domains.kernel_batch.calls"] = len(by_name["domains.kernel_batch"])
    m["domains.kernel_batch.busy_s"] = busy("domains.kernel_batch")
    m["domains.covariance.self_s"] = total_self("domains.covariance")

    # cli
    for command in COMMANDS:
        m[f"cli.{command}.calls"] = len(by_name[f"cli.{command}"])
        m[f"cli.{command}.wall_s"] = busy(f"cli.{command}")
    m["cli.self_s"] = sum(v for sid, v in self_s.items() if by_id[sid][1].startswith("cli."))

    # baseline rows: Haar Monte Carlo per 2e6 samples, by matrix size n
    for n in (2, 3):
        haar = [s for s in by_name["shilov.haar_block"] if s[7].get("n") == n]
        phi = [s for s in by_name["schur.phi_m_batch"] if s[7].get("n") == n]
        phi_ids = {s[0] for s in phi}
        eig = [s for s in by_name["schur.eigvals"] if s[4] in phi_ids]
        haar_samples = sum(s[7]["count"] for s in haar)
        phi_samples = sum(s[7]["count"] for s in phi)
        scale = BASELINE_SAMPLES
        m[f"baseline.haar_block_s.n{n}"] = _ratio(sum(map(dur, haar)) * scale, haar_samples)
        m[f"baseline.phi_m_batch_s.n{n}"] = _ratio(sum(map(dur, phi)) * scale, phi_samples)
        m[f"baseline.eigvals_s.n{n}"] = _ratio(sum(map(dur, eig)) * scale, phi_samples)
    for row, command, n, workers in BASELINE_ESTIMATES:
        picked = []
        for s in estimates:
            a = s[7]
            owner = ancestor(s, "cli.")
            if a["n"] == n and a["workers"] == workers and owner is not None and owner[1] == f"cli.{command}":
                picked.append(s)
        m[f"baseline.{row}.n{n}_w{workers}"] = _ratio(
            sum(map(dur, picked)) * BASELINE_SAMPLES, sum(s[7]["samples"] for s in picked)
        )

    m["trace.spans"] = len(spans)
    for name in m:
        unit = unit_of(name)
        if unit == "s":
            m[name] *= speed
        elif unit == "1/s":
            m[name] /= speed
    return m


def unit_of(name):
    if name.endswith("samples_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "series_per_residual")):
        return "1"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def metric_names():
    """Every per-layer metric name the traced run reports, in report order."""
    return list(layer_metrics([])) + ["trace.overhead_s"]


