"""Command-line front end: evaluate series and run the verification experiments.

``_command`` declares each command's keys (reader, default, help) and its
runner in one place, on the runner itself, and fills ``_SCHEMA`` and
``_RUNNERS`` from them.  A command's flags are built from its keys, and
``_resolve`` reads a command line and a ``suite`` entry alike; the resolved
keys are what the runner uses and what the report echoes.  Every command
emits one machine-readable report (JSON canonical; csv/text are projections
of the same dict).  Exit codes: 0 pass, 1 fail, 2 no answer (no convergence,
overflow, a non-finite result), 3 invalid arguments, such as an unknown,
unreadable or missing key.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import io
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .domains import (FAMILIES, KERNEL_FAMILIES, DomainSpec, LineBundleParams, casimir_eigenvalue, catalog_record,
                      char_poly_coeffs, cocycle_residual, families_at, hua_eigenvalue, kernel_covariance_residual,
                      poisson_kernel_batch, random_group_element)
from .errors import (ConvergenceError, DomainError, GeometryError, InvalidArgumentError, NonFiniteResultError,
                     NonFiniteSampleError, ParameterError, SingularActionError, SingularKernelError)
from .hypergeom import HyperParams, hyp2f1_multi
# perfbench/tracing.py wraps cli.disk_casimir_residual by name, so it stays imported here
from .radial import (_ONE, RadialPoint, SphericalParams, _disk_casimir, disk_casimir_residual, hua_integral_rhs,
                     radial_eigenvalue, radial_residual_report, spherical_F, spherical_F_xform, x_system_residual)
from .schur import SignatureM, det_formula_rhs, phi_m_batch
from .shilov import MAX_WORKERS, _check_count, haar_unitary, mc_integrate_vector, philox_generator, poisson_transform

DEFAULT_SEED = 20240314
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_ARGS = 3
_Z_GATE = 4.0  # a Monte Carlo estimate matches a closed form within this many standard errors
_RHO = 0.05  # an estimate whose stderr exceeds _RHO * max(1, |rhs|) cannot decide its gate: exit 2
# the largest rank r, and type-I side n: on 2 cores, 2^14 Hua samples at n = 8 take 20 s, eval-spherical at r = 8 23 s
MAX_RANK = 8


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 3
        raise InvalidArgumentError(message)


# ---------------------------------------------------------------------------
# readers: one per value kind; each takes command-line text or a JSON value
# ---------------------------------------------------------------------------


def _finite(value):
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{value} is not finite")
    return value


def _int(value) -> int:
    """An integer, an integral float or integer text; a bool is no integer."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _float(value) -> float:
    """A finite real number or its text."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{value!r} is not a number")
    return _finite(float(value))


def _complex(value) -> complex:
    """A finite number, or a complex literal like 1.3+0.2j."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"{value!r} is not a number")
    return _finite(complex(value.replace(" ", "") if isinstance(value, str) else value))


def _point(value) -> complex:
    """A finite planar point 're,im' (also accepts a bare complex literal)."""
    if isinstance(value, str) and "," in value:
        re_s, im_s = value.split(",")
        return complex(_float(re_s), _float(im_s))
    return _complex(value)


def _bool(value) -> bool:
    """true or false (on the command line, the bare flag)."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _list_of(read):
    """Reader of a list, or of comma-separated text, each element read by ``read``."""

    def read_all(value) -> tuple:
        parts = value if isinstance(value, (list, tuple)) else [v for v in str(value).split(",") if v != ""]
        return tuple(read(v) for v in parts)

    return read_all


_floats = _list_of(_float)
_ints = _list_of(_int)


def _check_length(name: str, value: tuple) -> None:
    """Refuse a point with more coordinates than the largest rank."""
    if len(value) > MAX_RANK:
        raise InvalidArgumentError(f"{name} must have at most {MAX_RANK} entries, got {len(value)}")


def _choice(*names):
    def read(value) -> str:
        if value not in names:
            raise ValueError(f"{value!r} is not one of {', '.join(names)}")
        return value

    return read


# ---------------------------------------------------------------------------
# the config schema
# ---------------------------------------------------------------------------

_REQUIRED = object()


class Key(NamedTuple):
    read: Callable
    default: object  # _REQUIRED when the key must be given
    help: str
    bounds: tuple | None = None  # (smallest, largest) value a given size key may take
    check: Callable | None = None  # check(name, value): the library's own check, or a bound on a list's length


# Every key with its reader, its usual default, its help line and, for a size, its bounds.
_KEYS = {
    "a": Key(_complex, _REQUIRED, "upper parameter a (complex literal, e.g. 0.7+0.1j)"),
    "b": Key(_complex, _REQUIRED, "upper parameter b"),
    "c": Key(_complex, _REQUIRED, "lower parameter c"),
    "x": Key(_floats, _REQUIRED, "series arguments x_1,...,x_r", check=_check_length),
    "r": Key(_int, _REQUIRED, "rank", (-math.inf, MAX_RANK)),
    "m": Key(_float, 2.0, "root multiplicity (Jack parameter 2/m)"),
    "n": Key(_int, 2, "matrix size of the type I_{n,n} domain", (-math.inf, MAX_RANK)),
    "domain": Key(_choice(*KERNEL_FAMILIES), "disk", "domain with a Poisson kernel"),
    "lambda": Key(_complex, _REQUIRED, "spectral parameter (complex literal, e.g. 0.9+0.3j)"),
    "nu": Key(_int, 0, "line-bundle twist"),
    "t": Key(_floats, _REQUIRED, "radial coordinates t_1,...,t_r"),
    "sig": Key(_ints, _REQUIRED, "signature m_1 >= ... >= m_n, e.g. 1,0"),
    "z": Key(_point, 0j, "planar point re,im"),
    "kmax": Key(_int, None, "truncation degree (None: chosen from the point)"),
    "tol": Key(_float, 1e-12, "tail tolerance of the series' early stop"),
    "xform": Key(_bool, False, "evaluate the Euler-transformed representation"),
    "seed": Key(_int, DEFAULT_SEED, "seed of the random streams"),
    "samples": Key(_int, 200_000, "Haar samples", check=_check_count),
    "workers": Key(_int, 1, "worker threads (results do not depend on it)", (1, MAX_WORKERS)),
    "fd_step": Key(_float, 1e-3, "finite-difference step"),
    "nodes": Key(_int, 512, "circle quadrature nodes", check=_check_count),
    # trials <= 10^4: about 25 s at n = 8 on a 2-core host
    "trials": Key(_int, 100, "random group elements tried", (1, 10_000)),
    "gate": Key(_float, 1e-5, "pass gate on the relative difference"),
    "richardson": Key(_bool, False, "also gate the Richardson ratio of steps h and h/2 (3.5..4.5)"),
    "kernel_gate": Key(_float, 1e-8, "gate on the kernel transformation residual"),
    "cocycle_gate": Key(_float, 1e-10, "gate on the cocycle residual"),
    "config": Key(str, _REQUIRED, "JSON file with an 'experiments' array"),
}


_SCHEMA: dict[str, dict[str, Key]] = {}  # command -> its keys, in declaration order
_RUNNERS: dict[str, Callable] = {}  # command -> its runner, in the same order


def _command(name: str, keys: str, own: dict | None = None):
    """Declare the command ``name`` on its runner: the keys ``keys`` of ``_KEYS``,
    then ``own``, a command default for one of them or a Key of the command's own."""
    schema = {key: _KEYS[key] for key in keys.split()}
    for key, spec in (own or {}).items():
        schema[key] = spec if isinstance(spec, Key) else _KEYS[key]._replace(default=spec)

    def declare(runner):
        _SCHEMA[name], _RUNNERS[name] = schema, runner
        return runner

    return declare


def _resolve(command: str, raw: dict) -> dict:
    """Every key of ``command`` read from ``raw`` or defaulted: the values the
    runner uses and the report echoes.  A JSON null counts as not given, and a
    given value outside its key's bounds is refused before any command runs."""
    schema = _SCHEMA[command]
    unknown = [name for name in raw if name not in schema]
    if unknown:
        raise InvalidArgumentError(f"{command} has no key {', '.join(map(repr, unknown))}")
    cfg = {}
    for name, key in schema.items():
        value = raw.get(name)
        if value is None:
            if key.default is _REQUIRED:
                raise InvalidArgumentError(f"missing required key {name!r}")
            cfg[name] = key.default
            continue
        try:
            cfg[name] = key.read(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidArgumentError(f"cannot read {name!r} from {value!r}: {exc}") from exc
        if key.bounds and not key.bounds[0] <= cfg[name] <= key.bounds[1]:
            low, high = key.bounds
            raise InvalidArgumentError(f"{name} must be {f'>= {low}' if cfg[name] < low else f'<= {high}'}, "
                                       f"got {cfg[name]}")
        if key.check:
            key.check(name, cfg[name])
    return cfg


def _spherical_params(cfg: dict) -> SphericalParams:
    return SphericalParams(lam=cfg["lambda"], nu=cfg["nu"], multiplicity=cfg["m"], rank=cfg["r"])


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _flatten(prefix: str, obj, into: dict):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, into)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, into)
    else:
        into[prefix] = obj


def render_report(report: dict, output: str) -> str:
    report = _jsonable(report)
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResultError(f"the report holds a non-finite value ({exc})") from exc
    if output == "json":
        return text
    flat: dict = {}
    _flatten("", report, flat)
    if output == "csv":
        buf = io.StringIO()
        writer = _csv.writer(buf)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
        return buf.getvalue().rstrip("\n")
    if output == "text":
        width = max(len(k) for k in flat)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in flat.items())
    raise InvalidArgumentError(f"unknown output format {output!r}")


def _execute(command: str, cfg: dict) -> tuple[dict, int]:
    """The report of ``command`` run on resolved keys, which it echoes, and its exit code."""
    t0 = time.perf_counter()
    body, passed, code = _RUNNERS[command](cfg)
    report = {"command": command, "config": {**cfg, "version": __version__}, **body}
    if passed is not None:
        report["pass"] = bool(passed)
    report["wall_time_s"] = round(time.perf_counter() - t0, 6)
    return report, code


# ---------------------------------------------------------------------------
# runners (resolved config in; report body, pass/fail and exit code out)
# ---------------------------------------------------------------------------


@_command("eval-2f1", "a b c m x kmax tol seed", {"kmax": 30})
def run_eval_2f1(cfg: dict) -> tuple[dict, bool | None, int]:
    params = HyperParams(
        a=cfg["a"], b=cfg["b"], c=cfg["c"], multiplicity_m=cfg["m"], k_max=cfg["kmax"], tol=cfg["tol"]
    )
    res = hyp2f1_multi(params, cfg["x"])
    body = {
        "lhs": {"value": res.value},
        "converged": res.converged,
        "truncation_degree": res.truncation_degree,
        "last_shell": res.last_shell,
    }
    return body, res.converged, EXIT_PASS if res.converged else EXIT_NO_CONVERGENCE


@_command("eval-spherical", "r m lambda nu t kmax tol xform seed")
def run_eval_spherical(cfg: dict) -> tuple[dict, bool | None, int]:
    sp = _spherical_params(cfg)
    pt = RadialPoint(cfg["t"])
    use_xform = cfg["xform"]
    val = (spherical_F_xform if use_xform else spherical_F)(sp, pt, k_max=cfg["kmax"], tol=cfg["tol"])
    body = {"lhs": {"value": val}, "representation": "xform" if use_xform else "direct"}
    return body, None, EXIT_PASS


def _check_resolved(rhs: complex, *ests) -> None:
    """Exit 2 (no answer) when the largest stderr a verdict reads is too wide for its gate."""
    stderr, bound = max(e.stderr for e in ests), _RHO * max(1.0, abs(rhs))
    if stderr > bound:
        raise ConvergenceError(f"too noisy to decide: stderr {stderr:.3g} exceeds rho * max(1, |rhs|) = {bound:.3g}")


@_command("check-hua-integral", "domain n lambda nu t samples workers seed kmax tol gate",
          {"tol": 1e-13, "gate": 1e-8})
def run_check_hua_integral(cfg: dict) -> tuple[dict, bool | None, int]:
    spec = DomainSpec.of(cfg["domain"], cfg["n"])
    lam, nu, t = cfg["lambda"], cfg["nu"], cfg["t"]
    sp = SphericalParams(lam=lam, nu=nu, multiplicity=spec.multiplicity, rank=spec.rank)
    rhs = hua_integral_rhs(sp, RadialPoint(t), k_max=cfg["kmax"], tol=cfg["tol"])
    z = np.diag([math.tanh(v) for v in t]).astype(complex)
    est = poisson_transform(spec, sp, _ONE, z, cfg["samples"], cfg["seed"], workers=cfg["workers"])
    _check_resolved(rhs, est)
    body: dict = {"lhs": {"mean": est.mean, "stderr": est.stderr, "samples": est.samples}, "rhs": rhs}
    if spec.matrix_size == 1:  # the circle rule on U(1) is exact: gate the relative difference
        body["rel_diff"] = abs(est.mean - rhs) / max(1.0, abs(rhs))
        passed = body["rel_diff"] <= cfg["gate"]
    else:
        body["z_score"] = est.z_score(rhs)
        passed = body["z_score"] <= _Z_GATE
    body["abs_diff"] = abs(est.mean - rhs)
    return body, passed, EXIT_PASS if passed else EXIT_FAIL


def schur_det_integrands(n: int, lam: complex, t: float, sig: SignatureM):
    """Batched integrands of both exponent readings at z = tanh(t) I, each times phi_m.

    The |h|^2 reading is the nu = 0 Poisson kernel; the |h| reading,
    [h(z,z)/|h(z,u)|]^((lam+eta)/2), is no kernel and is formed beside it from
    the same h(z, u).  Both h(tau I, u) = det(I - tau u*) = sum_k (-tau)^k
    conj(e_k(u)) and phi_m come from one set of characteristic-polynomial
    coefficients e_k(u) per block, with no determinant of I - tau u*.
    """
    spec = DomainSpec.type_i(n)
    kernel = LineBundleParams(lam=lam, nu=0)
    th = math.tanh(t)
    z = th * np.eye(n)
    log_h_zz = math.log((1.0 - th * th) ** n)
    s = (lam + spec.eta) / 2.0

    def batch(us: np.ndarray) -> np.ndarray:
        e = char_poly_coeffs(us)
        h_zu = sum((-th) ** k * e[k].conj() for k in range(n + 1))
        phi = phi_m_batch(sig, us, coeffs=e)
        squared = poisson_kernel_batch(spec, kernel, z, us, h_zu=h_zu) * phi
        single = np.exp(s * (log_h_zz - np.log(np.abs(h_zu)))) * phi
        return np.stack([squared, single], axis=1)

    return batch


@_command("check-schur-det", "n sig lambda samples workers seed",
          {"t": Key(_float, _REQUIRED, "radial coordinate of z = tanh(t) I")})
def run_check_schur_det(cfg: dict) -> tuple[dict, bool | None, int]:
    n, lam, t = cfg["n"], cfg["lambda"], cfg["t"]
    sig = SignatureM(cfg["sig"])
    if sig.n != n:
        raise InvalidArgumentError(f"signature length {sig.n} must equal n={n}")
    rhs = det_formula_rhs(lam, sig, t)
    ests = mc_integrate_vector(
        schur_det_integrands(n, lam, t, sig), n, cfg["samples"], cfg["seed"], workers=cfg["workers"]
    )
    _check_resolved(rhs, *ests)
    z_sq = ests[0].z_score(rhs)
    z_single = ests[1].z_score(rhs)
    matching = [name for name, z in (("h_squared", z_sq), ("h_single", z_single)) if z <= _Z_GATE]
    body = {
        "rhs": rhs,
        "variants": {
            "h_squared": {"mean": ests[0].mean, "stderr": ests[0].stderr, "z_score": z_sq},
            "h_single": {"mean": ests[1].mean, "stderr": ests[1].stderr, "z_score": z_single},
        },
        "matching_variant": matching[0] if len(matching) == 1 else matching,
    }
    passed = len(matching) == 1
    return body, passed, EXIT_PASS if passed else EXIT_FAIL


@_command("check-pde", "r m lambda nu t fd_step gate richardson seed")
def run_check_pde(cfg: dict) -> tuple[dict, bool | None, int]:
    sp = _spherical_params(cfg)
    h = cfg["fd_step"]
    pt = RadialPoint(cfg["t"])
    rep = radial_residual_report(sp, pt, h)
    body: dict = {
        "lhs": {"max_residual": float(np.max(np.abs(rep.residuals)))},
        "rhs": radial_eigenvalue(sp) * rep.phi_value,
        "rel_diff": rep.relative,
        "phi": rep.phi_value,
    }
    passed = rep.relative <= cfg["gate"]
    if cfg["richardson"]:
        rep_half = radial_residual_report(sp, pt, h / 2.0)
        denom = float(np.max(np.abs(rep_half.residuals)))
        ratio = float(np.max(np.abs(rep.residuals))) / denom if denom > 0 else float("inf")
        body["richardson_ratio"] = ratio
        passed = passed and 3.5 <= ratio <= 4.5
    return body, passed, EXIT_PASS if passed else EXIT_FAIL


@_command("check-x-system", "r m lambda nu x fd_step seed")
def run_check_x_system(cfg: dict) -> tuple[dict, bool | None, int]:
    sp = _spherical_params(cfg)
    res = x_system_residual(sp, cfg["x"], cfg["fd_step"])
    body = {
        "lhs": {"max_residual": float(np.max(np.abs(res)))},
        "rhs": None,
        "gated": False,
        "note": "diagnostic only; the residual is reported, not gated",
    }
    return body, True, EXIT_PASS


@_command("check-casimir-disk", "lambda z fd_step nodes gate seed")
def run_check_casimir_disk(cfg: dict) -> tuple[dict, bool | None, int]:
    res, p0, eig = _disk_casimir(cfg["lambda"], cfg["z"], cfg["fd_step"], cfg["nodes"])
    rel = abs(res) / (max(1.0, abs(eig)) * abs(p0))
    passed = rel <= cfg["gate"]
    body = {
        "lhs": {"value": res + eig * p0},
        "rhs": eig * p0,
        "rel_diff": rel,
        "poisson_value": p0,
    }
    return body, passed, EXIT_PASS if passed else EXIT_FAIL


@_command("check-covariance", "n lambda nu trials kernel_gate cocycle_gate seed")
def run_check_covariance(cfg: dict) -> tuple[dict, bool | None, int]:
    n, trials = cfg["n"], cfg["trials"]
    kernel_gate, cocycle_gate = cfg["kernel_gate"], cfg["cocycle_gate"]
    spec = DomainSpec.type_i(n)
    params = LineBundleParams(lam=cfg["lambda"], nu=cfg["nu"])
    rng = philox_generator(cfg["seed"], 0xC0C1)
    worst_kernel = worst_cocycle = 0.0
    for _ in range(trials):
        g = random_group_element(n, rng)
        g2 = random_group_element(n, rng)
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z = 0.7 * rng.uniform(0.2, 1.0) * w / np.linalg.norm(w, 2)
        u = haar_unitary(n, rng)
        worst_kernel = max(worst_kernel, kernel_covariance_residual(spec, params, g, z, u))
        worst_cocycle = max(worst_cocycle, cocycle_residual(g, g2, z))
    passed = worst_kernel <= kernel_gate and worst_cocycle <= cocycle_gate
    body = {
        "lhs": {"max_kernel_residual": worst_kernel, "max_cocycle_residual": worst_cocycle},
        "rhs": {"kernel_gate": kernel_gate, "cocycle_gate": cocycle_gate},
        "trials": trials,
    }
    return body, passed, EXIT_PASS if passed else EXIT_FAIL


@_command("table", "domain n lambda nu seed",
          {"domain": Key(_choice(*FAMILIES), None, "catalog entry (None: every kind)"), "lambda": None})
def run_table(cfg: dict) -> tuple[dict, bool | None, int]:
    n = cfg["n"]
    rows = []
    for kind in [cfg["domain"]] if cfg["domain"] else families_at(n):
        rec = catalog_record(kind, n)
        if cfg["lambda"] is not None:
            spec = DomainSpec.of(kind, n)
            params = LineBundleParams(lam=cfg["lambda"], nu=cfg["nu"])
            rec["hua_eigenvalue"] = hua_eigenvalue(spec, params)
            rec["casimir_eigenvalue"] = casimir_eigenvalue(spec, params)
        rows.append(rec)
    return {"rows": rows}, None, EXIT_PASS


@_command("suite", "config")
def run_suite(cfg: dict) -> tuple[dict, bool | None, int]:
    path = cfg["config"]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidArgumentError(f"suite: cannot read config {path!r}: {exc}") from exc
    experiments = doc.get("experiments", []) if isinstance(doc, dict) else None
    if not isinstance(experiments, list):
        raise InvalidArgumentError(f"suite: {path!r} must be a JSON object with an 'experiments' list")
    runs = []
    for i, exp in enumerate(experiments):
        if not isinstance(exp, dict):
            raise InvalidArgumentError(f"suite experiment {i} must be a JSON object, got {exp!r}")
        raw = dict(exp)
        command = raw.pop("command", None)
        if not isinstance(command, str) or command not in _SCHEMA or command == "suite":
            raise InvalidArgumentError(f"suite: unknown command {command!r}")
        try:
            runs.append((command, _resolve(command, raw)))
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"suite experiment {i} ({command}): {exc}") from exc
    reports = []
    worst = EXIT_PASS
    for command, sub_cfg in runs:
        report, code = _execute(command, sub_cfg)
        reports.append(report)
        worst = max(worst, code)
    passed = worst == EXIT_PASS
    body = {"experiments": reports, "n_experiments": len(reports)}
    return body, passed, worst


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

# The exit code of each exception class a run may raise; the first class that matches wins, so the
# singular kernel and action (arithmetic errors) are bad arguments, and any other arithmetic error
# (overflow, division by zero, a non-finite result) means there is no answer.
_EXIT_CODES = {
    **dict.fromkeys((InvalidArgumentError, DomainError, ParameterError, GeometryError, SingularKernelError,
                     SingularActionError), EXIT_BAD_ARGS),
    **dict.fromkeys((ConvergenceError, ArithmeticError, NonFiniteSampleError), EXIT_NO_CONVERGENCE),
}


@functools.cache
def _build_parser() -> _Parser:
    """One subcommand per schema entry; only the flags given reach the config.  Built on
    the first call and shared after it: the parser depends only on ``_SCHEMA``."""
    io_flags = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    io_flags.add_argument("--output", choices=["json", "csv", "text"], help="report format (default: json)")
    io_flags.add_argument("--out", help="also write the report to this path")
    parser = _Parser(prog="tubekernels", description=__doc__.splitlines()[0])  # the user-facing line only
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _SCHEMA.items():
        p = sub.add_parser(command, parents=[io_flags], argument_default=argparse.SUPPRESS)
        for name, key in keys.items():
            shown = "required" if key.default is _REQUIRED else f"default: {key.default}"
            action = "store_true" if key.read is _bool else "store"
            p.add_argument("--" + name.replace("_", "-"), dest=name, action=action, help=f"{key.help} ({shown})")
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
        command, output, out = args.pop("command"), args.pop("output", "json"), args.pop("out", None)
        report, code = _execute(command, _resolve(command, args))
        rendered = render_report(report, output)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        try:
            print(rendered, flush=True)
        except BrokenPipeError:  # the reader closed stdout early: drop what is left, keep the exit code
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except tuple(_EXIT_CODES) as exc:
        detail = f"{type(exc).__name__}: {exc}" if type(exc).__module__ == "builtins" else exc
        print(f"error: {detail}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
