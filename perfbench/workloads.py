"""Seeded op streams for the four benchmark workloads, and the output check of every op.

A workload is a fixed op sequence built from the workload seed alone: the
program sees only the generated argv lists and the suite file.  The *shape*
of every stream (which commands, ranks, multiplicities, truncation degrees,
which positions repeat an earlier op) is fixed; the seed draws the
continuous values inside the documented ranges.  Ranges that set the cost of
an op (t in check-pde, which picks the truncation degree) are drawn
stratified, so that the work of a pass does not depend on the seed.

Nothing here imports numpy or the program; the checks use only the parsed
JSON report that the command printed.
"""

from __future__ import annotations

import cmath
import copy
import hashlib
import json
import math
import random

WORKLOADS = ("suite", "series-r3", "radial-fd", "mc-single")

SUITE_SOURCE = "configs/acceptance_suite.json"
# Relative to the checkout root; removed again when the run ends.
WORK_DIR = ".bench_work"

# Output-check tolerances.  The series runs to tol 1e-12 (eval-2f1) and
# 1e-13 (eval-spherical), so 1e-9 leaves three orders of headroom.
BINOMIAL_RTOL = 1e-9
XFORM_RTOL = 1e-9


class Op:
    """One CLI command of a workload and how its output is checked."""

    __slots__ = ("argv", "check", "ref")

    def __init__(self, argv, check, ref=None):
        self.argv = argv
        self.check = check  # name of a checker in CHECKS
        self.ref = ref  # check data: expected value, or index of the op compared against

    def as_json(self):
        return {"argv": self.argv, "check": self.check, "ref": self.ref}


class Plan:
    """The generated inputs of one workload: ops plus the files they read."""

    def __init__(self, name, seed, ops, files=None, ops_per_command=None):
        self.name = name
        self.seed = seed
        self.ops = ops
        self.files = files or {}
        # suite: one command carries many ops (its experiments)
        self.ops_per_command = ops_per_command

    @property
    def op_count(self):
        return self.ops_per_command if self.ops_per_command else len(self.ops)

    def digest(self):
        blob = json.dumps(
            {"ops": [op.as_json() for op in self.ops], "files": self.files},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def _rng(name, seed):
    return random.Random(f"tubekernels-bench:{name}:{seed}")


def _f(v):
    return f"{v:.6f}"


def _csv(values):
    return ",".join(_f(v) for v in values)


def _lam(rng, complex_part):
    re = rng.uniform(0.5, 1.5)
    if not complex_part:
        return _f(re)
    return f"{re:.6f}+{rng.uniform(0.1, 0.5):.6f}j"


def _stratum(rng, lo, hi, index, strata):
    """A draw from the index-th of `strata` equal slices of [lo, hi]."""
    width = (hi - lo) / strata
    return lo + width * ((index % strata) + rng.random())


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def _derived_seed(seed, original):
    digest = hashlib.sha256(f"suite:{seed}:{original}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def build_suite(seed, source_text, tiny=False):
    """The shipped suite, with every `seed` key derived from the workload seed.

    Entries that share a seed in the shipped file still share one after the
    mapping, so the (n, seed, samples) sharing the suite has is kept.
    """
    doc = json.loads(source_text)
    experiments = doc["experiments"]
    if tiny:
        seen, keep = set(), []
        for exp in experiments:
            if exp["command"] not in seen:
                seen.add(exp["command"])
                exp = dict(exp)
                if "samples" in exp:
                    exp["samples"] = min(exp["samples"], 200_000)
                keep.append(exp)
        experiments = keep
    experiments = copy.deepcopy(experiments)
    for exp in experiments:
        if "seed" in exp:
            exp["seed"] = _derived_seed(seed, exp["seed"])
    path = f"{WORK_DIR}/suite-{seed}.json"
    files = {path: json.dumps({"experiments": experiments}, indent=1)}
    ops = [Op(["suite", "--config", path], "suite")]
    return Plan("suite", seed, ops, files, ops_per_command=len(experiments))


# ---------------------------------------------------------------------------
# series-r3
# ---------------------------------------------------------------------------

# One pass: (rank, m, k_max or None for the command default, |x| bound) for
# eval-2f1, "sph" for a direct/--xform eval-spherical pair, "rep" for an
# exact repeat of an earlier op.  About a third of the ops are repeats.
_SERIES_SHAPE = (
    (3, 2, 20, 0.12), (3, 1, 20, 0.12), (3, 2, 30, 0.25), "rep",
    (3, 1, 20, 0.12), "sph", (3, 1, 30, 0.25), "rep",
    (3, 2, 20, 0.12), (4, 2, 30, 0.2), "rep", (3, 1, 30, 0.25),
    (3, 2, 20, 0.12), "rep", (3, 2, 30, 0.25), "rep",
    (3, 1, 20, 0.12), "rep",
)
_SERIES_TINY = ((3, 2, 12, 0.05), (3, 1, 12, 0.05), "rep")


def _binomial(a, xs):
    """2F1(a, b; b; x) = prod_i (1 - x_i)^(-a) for every multiplicity."""
    return cmath.exp(-a * sum(math.log1p(-v) for v in xs))


def build_series(seed, tiny=False):
    rng = _rng("series-r3", seed)
    ops: list[Op] = []
    for unit in (_SERIES_TINY if tiny else _SERIES_SHAPE):
        if unit == "rep":
            first = rng.randrange(len(ops))
            ops.append(Op(list(ops[first].argv), "repeat", first))
            continue
        if unit == "sph":
            m = rng.choice((1, 2))
            ts = [rng.uniform(0.3, 0.49), rng.uniform(0.15, 0.3), rng.uniform(0.02, 0.15)]
            argv = [
                "eval-spherical", "--r", "3", "--m", str(m),
                "--lambda", _lam(rng, rng.random() < 0.5),
                "--nu", str(rng.choice((0, 1, 2))), "--t", _csv(ts),
            ]
            ops.append(Op(argv, "finite"))
            ops.append(Op(argv + ["--xform"], "xform", len(ops) - 1))
            continue
        rank, m, kmax, bound = unit
        xs = [rng.uniform(0.3, 1.0) * bound * (1 if i == 0 else rng.choice((-1, 1))) for i in range(rank)]
        a = rng.uniform(0.3, 1.5)
        # b = c (binomial collapse); a nonzero imaginary part keeps c off every pole
        c = complex(rng.uniform(0.5, 2.5), rng.uniform(0.2, 1.0))
        c_text = f"{c.real:.6f}+{c.imag:.6f}j"
        argv = ["eval-2f1", "--a", _f(a), "--b", c_text, "--c", c_text, "--m", str(m), "--x=" + _csv(xs)]
        if kmax != 30:
            argv += ["--kmax", str(kmax)]
        ops.append(Op(argv, "binomial", [float(_f(a)), [float(_f(v)) for v in xs]]))
    return Plan("series-r3", seed, ops)


# ---------------------------------------------------------------------------
# radial-fd
# ---------------------------------------------------------------------------

# One pass repeats this cycle 12 times: ("pde", rank, m, complex lambda),
# "rich" for a --richardson check-pde, ("x", rank), ("casimir", complex
# lambda).  A quarter of the check-pde ops use --richardson.
_RADIAL_CYCLE = (
    ("pde", 2, 2, False), ("pde", 1, 1, False), ("rich",), ("x", 2), ("pde", 2, 1, True),
    ("casimir", False), ("pde", 1, 4, True), ("pde", 2, 4, False), ("rich",), ("x", 1),
    ("pde", 2, 2, True), ("casimir", True),
)
# The --richardson ops walk through every (rank, m), each the same number of
# times per pass, with real and complex lambda in turn.
_RICHARDSON_SHAPES = ((1, 1), (2, 2), (1, 4), (2, 1), (1, 2), (2, 4))
# Cycle c draws its truncation-setting t and x from the c-th of _RADIAL_CYCLES
# equal slices of their range, so every pass holds the same spread of degrees.
_RADIAL_CYCLES = 12
# The t ranges of the shipped suite's check-pde grid: t_1 in [0.2, 0.6],
# t_2 in [0.45, 1.1].  Rank 1 takes the whole span.  A rank-2 point keeps
# t_1 below t_2 by at least _T_GAP, as every suite point does: the radial
# system rejects (exit 3) points whose sinh^2 t_j lie within 10 h.
_T1_RANGE = (0.2, 0.6)
_T2_RANGE = (0.45, 1.1)
_T_GAP = 0.05


def _radial_t(rng, rank, c):
    if rank == 1:
        return [_stratum(rng, _T1_RANGE[0], _T2_RANGE[1], c, _RADIAL_CYCLES)]
    t2 = _stratum(rng, *_T2_RANGE, c, _RADIAL_CYCLES)
    return [rng.uniform(_T1_RANGE[0], min(_T1_RANGE[1], t2 - _T_GAP)), t2]


def build_radial(seed, tiny=False):
    rng = _rng("radial-fd", seed)
    ops: list[Op] = []
    rich = 0
    for c in range(1 if tiny else _RADIAL_CYCLES):
        for kind, *shape in _RADIAL_CYCLE:
            nu = str(rng.choice((0, 1, 2)))
            if kind in ("pde", "rich"):
                if kind == "rich":
                    rank, m = _RICHARDSON_SHAPES[rich % len(_RICHARDSON_SHAPES)]
                    cplx = bool(rich % 2)
                    rich += 1
                else:
                    rank, m, cplx = shape
                argv = [
                    "check-pde", "--r", str(rank), "--m", str(m), "--lambda", _lam(rng, cplx),
                    "--nu", nu, "--t", _csv(_radial_t(rng, rank, c)),
                ]
                if kind == "rich":
                    argv.append("--richardson")
                ops.append(Op(argv, "gate"))
            elif kind == "x":
                (rank,) = shape
                # |x_1| sets the truncation degree, so it is drawn stratified
                x = [-_stratum(rng, 0.35, 0.6, c, _RADIAL_CYCLES), -rng.uniform(0.1, 0.3)][:rank]
                argv = [
                    "check-x-system", "--r", str(rank), "--m", str(rng.choice((1, 2, 4))),
                    "--lambda", _lam(rng, rank == 1), "--nu", nu, "--x=" + _csv(x),
                ]
                ops.append(Op(argv, "x-system"))
            else:
                r, phase = rng.uniform(0.0, 0.4), rng.uniform(0.0, 2.0 * math.pi)
                z = f"{r * math.cos(phase):.6f},{r * math.sin(phase):.6f}"
                ops.append(Op(["check-casimir-disk", "--lambda", _lam(rng, shape[0]), "--z=" + z], "gate"))
    return Plan("radial-fd", seed, ops)


# ---------------------------------------------------------------------------
# mc-single
# ---------------------------------------------------------------------------

# One pass: ("schur", n) or ("hua", nu, complex lambda); the seed draws the
# rest.  12 Hua ops, 6 n = 2 and 2 n = 3 Schur ops: the median op is a Hua op
# and the tail percentile (p75 of two passes) lands among the n = 2 Schur ops.
_MC_SHAPE = (
    ("schur", 3), ("hua", 0, False), ("schur", 2), ("hua", 1, True), ("hua", 2, False), ("schur", 2),
    ("hua", 0, True), ("hua", 1, False), ("schur", 2), ("hua", 2, True), ("schur", 3), ("hua", 1, False),
    ("schur", 2), ("hua", 0, False), ("hua", 2, False), ("schur", 2), ("hua", 1, True), ("hua", 0, True),
    ("schur", 2), ("hua", 2, True),
)
_MC_TINY = (("schur", 2), ("hua", 1, False))
_SIGS = {2: ("1,0", "2,0", "1,1", "2,1"), 3: ("1,0,0", "1,1,0", "2,1,0")}


def _op_seed(seed, index):
    digest = hashlib.sha256(f"mc-single:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def build_mc(seed, tiny=False):
    rng = _rng("mc-single", seed)
    ops: list[Op] = []
    seeds = set()
    for i, (kind, *shape) in enumerate(_MC_TINY if tiny else _MC_SHAPE):
        op_seed = _op_seed(seed, i)
        while op_seed in seeds:  # no two ops share (n, seed, samples)
            op_seed = (op_seed + 1) & 0x7FFFFFFF
        seeds.add(op_seed)
        if kind == "hua":
            nu, cplx = shape
            t = [rng.uniform(0.1, 0.3), rng.uniform(0.35, 0.6)]
            argv = [
                "check-hua-integral", "--domain", "typeI", "--n", "2", "--lambda", _lam(rng, cplx),
                "--nu", str(nu), "--t", _csv(t), "--seed", str(op_seed),
            ]
            ops.append(Op(argv, "gate"))
        else:
            (n,) = shape
            argv = [
                "check-schur-det", "--n", str(n), "--sig", rng.choice(_SIGS[n]),
                "--lambda", _f(rng.uniform(0.4, 0.9)), "--t", _f(rng.uniform(0.4, 0.5)),
                "--seed", str(op_seed),
            ]
            ops.append(Op(argv, "schur"))
    if tiny:
        for op in ops:
            op.argv += ["--samples", "50000"]
    return Plan("mc-single", seed, ops)


def build(name, seed, root, tiny=False):
    if name == "suite":
        with open(root / SUITE_SOURCE, encoding="utf-8") as fh:
            return build_suite(seed, fh.read(), tiny)
    return {"series-r3": build_series, "radial-fd": build_radial, "mc-single": build_mc}[name](seed, tiny)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _value(rep_value):
    if isinstance(rep_value, dict):
        return complex(rep_value["re"], rep_value["im"])
    return complex(rep_value)


def _finite(v):
    return math.isfinite(v.real) and math.isfinite(v.imag)


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _check_finite(rep, ref, reports):
    v = _value(rep["lhs"]["value"])
    return None if _finite(v) else f"non-finite value {v}"


def _check_binomial(rep, ref, reports):
    if rep.get("converged") is not True:
        return f"not converged (degree {rep.get('truncation_degree')}, last shell {rep.get('last_shell')})"
    a, xs = ref
    got, want = _value(rep["lhs"]["value"]), _binomial(a, xs)
    err = _rel(got, want)
    return None if err <= BINOMIAL_RTOL else f"binomial oracle: rel err {err:.3g}"


def _check_xform(rep, ref, reports):
    other = reports[ref]
    if other is None:
        return "direct representation produced no report"
    got, want = _value(rep["lhs"]["value"]), _value(other["lhs"]["value"])
    err = _rel(got, want)
    return None if err <= XFORM_RTOL else f"direct vs --xform: rel err {err:.3g}"


def _check_repeat(rep, ref, reports):
    other = reports[ref]
    if other is None or other.get("lhs") != rep.get("lhs"):
        return f"repeat of op {ref} is not identical"
    return None


def _check_gate(rep, ref, reports):
    if rep.get("pass") is True:
        return None
    seen = {k: rep[k] for k in ("rel_diff", "richardson_ratio", "z_score") if k in rep}
    return f"gate failed {json.dumps(seen)}"


def _check_schur(rep, ref, reports):
    if rep.get("pass") is not True:
        return _check_gate(rep, ref, reports)
    if rep.get("matching_variant") != "h_squared":
        return f"matching_variant {rep.get('matching_variant')!r}"
    return None


def _check_x_system(rep, ref, reports):
    r = rep["lhs"]["max_residual"]
    if rep.get("pass") is not True or not isinstance(r, (int, float)) or not math.isfinite(r):
        return f"x-system residual {r!r}"
    return None


CHECKS = {
    "finite": _check_finite,
    "binomial": _check_binomial,
    "xform": _check_xform,
    "repeat": _check_repeat,
    "gate": _check_gate,
    "schur": _check_schur,
    "x-system": _check_x_system,
}

_EXPERIMENT_CHECKS = {"check-schur-det": _check_schur, "check-x-system": _check_x_system}


def _command_failure(result):
    # The program's exit codes: 0 pass, 1 gate failed, 2 no convergence,
    # 3 bad arguments.  Code 1 still prints a report, whose check then names
    # the failed gate; 2 and 3 print none.
    if result["exc"]:
        return "exception: " + result["exc"].strip().splitlines()[-1]
    if "Traceback" in result["err"]:
        return "traceback on stderr"
    if result["code"] not in (0, 1):
        return f"exit code {result['code']}: {result['err'].strip()[:200]}"
    return None


def _parse(result):
    try:
        return json.loads(result["out"]), None
    except ValueError as exc:
        return None, f"report is not JSON: {exc}"


def _checked(check, rep, ref, reports):
    try:
        return check(rep, ref, reports)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def _suite_outcomes(plan, res):
    failure = _command_failure(res)
    rep, bad = _parse(res)
    if rep is None or "experiments" not in rep:
        reason = failure or bad or "suite report has no experiments"
        return [(res["secs"], reason, f"suite experiment {i}") for i in range(plan.op_count)]
    out = []
    for i, exp in enumerate(rep["experiments"]):
        check = _EXPERIMENT_CHECKS.get(exp.get("command"))
        if check is None and "pass" in exp:
            check = _check_gate
        why = _checked(check, exp, None, None) if check else None
        out.append((exp.get("wall_time_s", 0.0), why, f"suite experiment {i} {exp.get('command')}"))
    out += [(0.0, "experiment missing from report", "suite")] * (plan.op_count - len(out))
    if failure and not any(why for _, why, _ in out):
        secs, _, label = out[-1]
        out[-1] = (secs, failure, label)
    return out


def outcomes(plan, results):
    """Per-op (latency_s, failure or None, label) for one pass.

    A stream op is one CLI command.  A suite op is one experiment, timed by
    the wall_time_s of its own report; if the suite command fails without a
    report, every experiment counts as failed.
    """
    if plan.name == "suite":
        return _suite_outcomes(plan, results[0])
    out, reports = [], []
    for op, res in zip(plan.ops, results):
        rep = None
        failure = _command_failure(res)
        if failure is None:
            rep, failure = _parse(res)
        if failure is None:
            failure = _checked(CHECKS[op.check], rep, op.ref, reports)
        if failure is None and res["code"] != 0:
            failure = f"exit code {res['code']} with a passing report"
        reports.append(rep if failure is None else None)
        out.append((res["secs"], failure, " ".join(op.argv)))
    return out
