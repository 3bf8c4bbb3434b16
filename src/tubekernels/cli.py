"""Command-line front end: evaluate series and run the verification experiments.

Every command emits one machine-readable report (JSON canonical; csv/text are
projections of the same dict) with full config echo, so a run can be
reproduced from its own output.  Exit codes: 0 pass, 1 fail, 2 series did not
converge, 3 invalid arguments.
"""

from __future__ import annotations

import argparse
import csv as _csv
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .domains import (
    DomainSpec,
    LineBundleParams,
    casimir_eigenvalue,
    catalog_record,
    char_poly_coeffs,
    cocycle_residual,
    hua_eigenvalue,
    kernel_covariance_residual,
    poisson_kernel_batch,
    random_group_element,
)
from .errors import (
    ConvergenceError,
    DomainError,
    GeometryError,
    InvalidArgumentError,
    NonFiniteSampleError,
    NumericalError,
    ParameterError,
    SingularActionError,
    SingularKernelError,
)
from .hypergeom import HyperParams, hyp2f1_multi
from .radial import (
    RadialPoint,
    SphericalParams,
    disk_casimir_residual,
    disk_poisson_value,
    hua_integral_rhs,
    radial_eigenvalue,
    radial_residual_report,
    spherical_F,
    spherical_F_xform,
    x_system_residual,
)
from .schur import SignatureM, det_formula_rhs, phi_m_batch
from .shilov import BoundaryFunction, haar_unitary, mc_integrate_vector, philox_generator, poisson_transform

DEFAULT_SEED = 20240314
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_ARGS = 3


class CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 3
        raise CliArgumentError(message)


# ---------------------------------------------------------------------------
# small codecs
# ---------------------------------------------------------------------------


def _list_of(kind):
    """Reader of a list as given, or of comma-separated text read by ``kind``."""

    def read(value) -> tuple:
        if isinstance(value, (list, tuple)):
            return tuple(value)
        return tuple(kind(v) for v in str(value).split(",") if v != "")

    return read


_floats = _list_of(float)
_ints = _list_of(int)


def _finite(value: complex) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{value} is not finite")
    return value


def _complex(value) -> complex:
    """A finite number, or a complex literal like 1.3+0.2j."""
    if isinstance(value, (int, float, complex)):
        return _finite(complex(value))
    return _finite(complex(str(value).replace(" ", "")))


def _point(value) -> complex:
    """A finite planar point 're,im' (also accepts a bare complex literal)."""
    s = str(value)
    if "," in s:
        re_s, im_s = s.split(",")
        return _finite(complex(float(re_s), float(im_s)))
    return _complex(s)


_REQUIRED = object()


def _get(cfg: dict, key: str, kind, default=_REQUIRED):
    """cfg[key] read by ``kind`` (one reader per value kind); a required key that
    is missing, or a value ``kind`` cannot read, is a bad argument."""
    value = cfg.get(key)
    if value is None:
        if default is _REQUIRED:
            raise CliArgumentError(f"missing required key {key!r}")
        return default
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise CliArgumentError(f"cannot read {key!r} from {value!r}: {exc}") from exc


def _spherical_params(cfg: dict) -> SphericalParams:
    return SphericalParams(
        lam=_get(cfg, "lambda", _complex),
        nu=_get(cfg, "nu", int, 0),
        multiplicity=_get(cfg, "m", float, 2.0),
        rank=_get(cfg, "r", int),
    )


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.complexfloating,)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
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
    if output == "json":
        return json.dumps(report, indent=2)
    if output == "csv":
        flat: dict = {}
        _flatten("", report, flat)
        buf = io.StringIO()
        writer = _csv.writer(buf)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
        return buf.getvalue().rstrip("\n")
    if output == "text":
        flat = {}
        _flatten("", report, flat)
        width = max(len(k) for k in flat)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in flat.items())
    raise CliArgumentError(f"unknown output format {output!r}")


def _report(command: str, config: dict, body: dict, passed: bool | None, t0: float) -> dict:
    out = {"command": command, "config": {**config, "version": __version__}}
    out.update(body)
    if passed is not None:
        out["pass"] = bool(passed)
    out["wall_time_s"] = round(time.perf_counter() - t0, 6)
    return out


# ---------------------------------------------------------------------------
# runners (dict config in, report + exit code out)
# ---------------------------------------------------------------------------


def run_eval_2f1(cfg: dict) -> tuple[dict, int]:
    t0 = time.perf_counter()
    params = HyperParams(
        a=_get(cfg, "a", _complex),
        b=_get(cfg, "b", _complex),
        c=_get(cfg, "c", _complex),
        multiplicity_m=_get(cfg, "m", float, 2.0),
        k_max=_get(cfg, "kmax", int, 30),
        tol=_get(cfg, "tol", float, 1e-12),
    )
    x = _get(cfg, "x", _floats)
    res = hyp2f1_multi(params, x, collect_shells=True)
    body = {
        "lhs": {"value": res.value},
        "converged": res.converged,
        "truncation_degree": res.truncation_degree,
        "last_shell": res.last_shell,
    }
    report = _report("eval-2f1", cfg, body, res.converged, t0)
    return report, EXIT_PASS if res.converged else EXIT_NO_CONVERGENCE


def run_eval_spherical(cfg: dict) -> tuple[dict, int]:
    t0 = time.perf_counter()
    sp = _spherical_params(cfg)
    pt = RadialPoint(_get(cfg, "t", _floats))
    kmax = _get(cfg, "kmax", int, None)
    tol = _get(cfg, "tol", float, 1e-13)
    use_xform = _get(cfg, "xform", bool, False)
    val = (spherical_F_xform if use_xform else spherical_F)(sp, pt, k_max=kmax, tol=tol)
    body = {"lhs": {"value": val}, "representation": "xform" if use_xform else "direct"}
    return _report("eval-spherical", cfg, body, None, t0), EXIT_PASS


def _domain_from_cfg(cfg: dict) -> DomainSpec:
    kind = cfg.get("domain", "disk")
    if kind == "disk":
        return DomainSpec.disk()
    if kind == "typeI":
        return DomainSpec.type_i(_get(cfg, "n", int, 2))
    raise InvalidArgumentError(f"kernel checks support domains disk|typeI, got {kind!r}")


def run_check_hua_integral(cfg: dict) -> tuple[dict, int]:
    t0 = time.perf_counter()
    spec = _domain_from_cfg(cfg)
    lam = _get(cfg, "lambda", _complex)
    nu = _get(cfg, "nu", int, 0)
    t = _get(cfg, "t", _floats)
    if len(t) != spec.rank:
        raise InvalidArgumentError(f"need {spec.rank} torus coordinates, got {len(t)}")
    seed = _get(cfg, "seed", int, DEFAULT_SEED)
    samples = _get(cfg, "samples", int, 200_000)
    workers = _get(cfg, "workers", int, 1)
    gate = _get(cfg, "gate", float, 1e-8)
    kmax = _get(cfg, "kmax", int, None)
    params = LineBundleParams(lam=lam, nu=nu)
    sp = SphericalParams(lam=lam, nu=nu, multiplicity=spec.multiplicity, rank=spec.rank)
    rhs = hua_integral_rhs(sp, RadialPoint(t), k_max=kmax, tol=_get(cfg, "tol", float, 1e-13))
    z = np.diag([math.tanh(v) for v in t]).astype(complex)
    one = BoundaryFunction(fn=lambda u: 1.0, tag="1", batch=lambda us: np.ones(us.shape[0]))
    est = poisson_transform(spec, params, one, z, samples, seed, workers=workers)
    body: dict = {"lhs": {"mean": est.mean, "stderr": est.stderr, "samples": est.samples}, "rhs": rhs}
    if spec.kind == "disk":
        diff = abs(est.mean - rhs)
        rel = diff / max(1.0, abs(rhs))
        body["rel_diff"] = rel
        body["abs_diff"] = diff
        passed = rel <= gate
    else:
        z_score = est.z_score(rhs)
        body["z_score"] = z_score
        body["abs_diff"] = abs(est.mean - rhs)
        passed = z_score <= 4.0
    return _report("check-hua-integral", cfg, body, passed, t0), EXIT_PASS if passed else EXIT_FAIL


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


def run_check_schur_det(cfg: dict) -> tuple[dict, int]:
    t0 = time.perf_counter()
    n = _get(cfg, "n", int, 2)
    sig = SignatureM(_get(cfg, "sig", _ints))
    if sig.n != n:
        raise InvalidArgumentError(f"signature length {sig.n} must equal n={n}")
    lam = _get(cfg, "lambda", _complex)
    t = _get(cfg, "t", float)
    seed = _get(cfg, "seed", int, DEFAULT_SEED)
    samples = _get(cfg, "samples", int, 200_000)
    workers = _get(cfg, "workers", int, 1)
    rhs = det_formula_rhs(lam, sig, t)
    ests = mc_integrate_vector(schur_det_integrands(n, lam, t, sig), n, samples, seed, workers=workers)
    z_sq = ests[0].z_score(rhs)
    z_single = ests[1].z_score(rhs)
    matching = []
    if z_sq <= 4.0:
        matching.append("h_squared")
    if z_single <= 4.0:
        matching.append("h_single")
    body = {
        "rhs": rhs,
        "variants": {
            "h_squared": {"mean": ests[0].mean, "stderr": ests[0].stderr, "z_score": z_sq},
            "h_single": {"mean": ests[1].mean, "stderr": ests[1].stderr, "z_score": z_single},
        },
        "matching_variant": matching[0] if len(matching) == 1 else matching,
    }
    passed = len(matching) == 1
    return _report("check-schur-det", cfg, body, passed, t0), EXIT_PASS if passed else EXIT_FAIL


def run_check_pde(cfg: dict) -> tuple[dict, int]:
    t0 = time.perf_counter()
    sp = _spherical_params(cfg)
    t = _get(cfg, "t", _floats)
    h = _get(cfg, "fd_step", float, 1e-3)
    gate = _get(cfg, "gate", float, 1e-5)
    pt = RadialPoint(t)
    rep = radial_residual_report(sp, pt, h)
    body: dict = {
        "lhs": {"max_residual": float(np.max(np.abs(rep.residuals)))},
        "rhs": radial_eigenvalue(sp) * rep.phi_value,
        "rel_diff": rep.relative,
        "phi": rep.phi_value,
    }
    passed = rep.relative <= gate
    if _get(cfg, "richardson", bool, False):
        rep_half = radial_residual_report(sp, pt, h / 2.0)
        denom = float(np.max(np.abs(rep_half.residuals)))
        ratio = float(np.max(np.abs(rep.residuals))) / denom if denom > 0 else float("inf")
        body["richardson_ratio"] = ratio
        passed = passed and 3.5 <= ratio <= 4.5
    return _report("check-pde", cfg, body, passed, t0), EXIT_PASS if passed else EXIT_FAIL


def run_check_x_system(cfg: dict) -> tuple[dict, int]:
    t0 = time.perf_counter()
    sp = _spherical_params(cfg)
    x = _get(cfg, "x", _floats)
    h = _get(cfg, "fd_step", float, 1e-3)
    res = x_system_residual(sp, x, h)
    body = {
        "lhs": {"max_residual": float(np.max(np.abs(res)))},
        "rhs": None,
        "gated": False,
        "note": "diagnostic only; the residual is reported, not gated",
    }
    return _report("check-x-system", cfg, body, True, t0), EXIT_PASS


def run_check_casimir_disk(cfg: dict) -> tuple[dict, int]:
    t0 = time.perf_counter()
    lam = _get(cfg, "lambda", _complex)
    z = _get(cfg, "z", _point, 0j)
    h = _get(cfg, "fd_step", float, 1e-3)
    nodes = _get(cfg, "nodes", int, 512)
    gate = _get(cfg, "gate", float, 1e-5)
    res = disk_casimir_residual(lam, z, h, nodes=nodes)
    p0 = disk_poisson_value(lam, z, nodes)
    eig = (lam**2 - 1.0) / 4.0
    rel = abs(res) / (max(1.0, abs(eig)) * abs(p0))
    passed = rel <= gate
    body = {
        "lhs": {"value": res + eig * p0},
        "rhs": eig * p0,
        "rel_diff": rel,
        "poisson_value": p0,
    }
    return _report("check-casimir-disk", cfg, body, passed, t0), EXIT_PASS if passed else EXIT_FAIL


def run_check_covariance(cfg: dict) -> tuple[dict, int]:
    t0 = time.perf_counter()
    n = _get(cfg, "n", int, 2)
    lam = _get(cfg, "lambda", _complex)
    nu = _get(cfg, "nu", int, 0)
    trials = _get(cfg, "trials", int, 100)
    seed = _get(cfg, "seed", int, DEFAULT_SEED)
    kernel_gate = _get(cfg, "kernel_gate", float, 1e-8)
    cocycle_gate = _get(cfg, "cocycle_gate", float, 1e-10)
    spec = DomainSpec.type_i(n)
    params = LineBundleParams(lam=lam, nu=nu)
    rng = philox_generator(seed, 0xC0C1)
    worst_kernel = 0.0
    worst_cocycle = 0.0
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
    return _report("check-covariance", cfg, body, passed, t0), EXIT_PASS if passed else EXIT_FAIL


def run_table(cfg: dict) -> tuple[dict, int]:
    t0 = time.perf_counter()
    kinds = [cfg["domain"]] if cfg.get("domain") else ["disk", "typeI", "typeII", "typeIII", "typeIV", "e7"]
    n = _get(cfg, "n", int, 2)
    rows = []
    for kind in kinds:
        rec = catalog_record(kind, n)
        if cfg.get("lambda") is not None:
            spec = DomainSpec.of(kind, n)
            params = LineBundleParams(lam=_get(cfg, "lambda", _complex), nu=_get(cfg, "nu", int, 0))
            rec["hua_eigenvalue"] = hua_eigenvalue(spec, params)
            rec["casimir_eigenvalue"] = casimir_eigenvalue(spec, params)
        rows.append(rec)
    return _report("table", cfg, {"rows": rows}, None, t0), EXIT_PASS


def run_suite(cfg: dict) -> tuple[dict, int]:
    t0 = time.perf_counter()
    path = _get(cfg, "config", str)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliArgumentError(f"suite: cannot read config {path!r}: {exc}") from exc
    experiments = doc.get("experiments", []) if isinstance(doc, dict) else None
    if not isinstance(experiments, list):
        raise CliArgumentError(f"suite: {path!r} must be a JSON object with an 'experiments' list")
    reports = []
    worst = EXIT_PASS
    for i, exp in enumerate(experiments):
        if not isinstance(exp, dict):
            raise CliArgumentError(f"suite experiment {i} must be a JSON object, got {exp!r}")
        command = exp.get("command")
        runner = _RUNNERS.get(command)
        if runner is None or command == "suite":
            raise InvalidArgumentError(f"suite: unknown command {command!r}")
        sub_cfg = {k: v for k, v in exp.items() if k != "command"}
        try:
            report, code = runner(sub_cfg)
        except CliArgumentError as exc:
            raise CliArgumentError(f"suite experiment {i} ({command}): {exc}") from exc
        reports.append(report)
        worst = max(worst, code)
    passed = worst == EXIT_PASS
    body = {"experiments": reports, "n_experiments": len(reports)}
    return _report("suite", {"config_path": path}, body, passed, t0), worst


_RUNNERS = {
    "eval-2f1": run_eval_2f1,
    "eval-spherical": run_eval_spherical,
    "check-hua-integral": run_check_hua_integral,
    "check-schur-det": run_check_schur_det,
    "check-pde": run_check_pde,
    "check-x-system": run_check_x_system,
    "check-casimir-disk": run_check_casimir_disk,
    "check-covariance": run_check_covariance,
    "table": run_table,
    "suite": run_suite,
}


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--samples", type=int, default=200_000)
    common.add_argument("--kmax", type=int, default=None)
    common.add_argument("--tol", type=float, default=1e-12)
    common.add_argument("--fd-step", dest="fd_step", type=float, default=1e-3)
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--output", choices=["json", "csv", "text"], default="json")
    common.add_argument("--out", type=str, default=None, help="also write the report to this path")

    parser = _Parser(prog="tubekernels", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-2f1", parents=[common])
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--x", required=True)

    p = sub.add_parser("eval-spherical", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--t", required=True)
    p.add_argument("--xform", action="store_true")

    p = sub.add_parser("check-hua-integral", parents=[common])
    p.add_argument("--domain", choices=["disk", "typeI"], default="disk")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--t", required=True)
    p.add_argument("--gate", type=float, default=1e-8)

    p = sub.add_parser("check-schur-det", parents=[common])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--sig", required=True, help="signature, e.g. 1,0")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("check-pde", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--t", required=True)
    p.add_argument("--gate", type=float, default=1e-5)
    p.add_argument("--richardson", action="store_true")

    p = sub.add_parser("check-x-system", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--x", required=True)

    p = sub.add_parser("check-casimir-disk", parents=[common])
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--z", default="0,0", help="planar point re,im")
    p.add_argument("--nodes", type=int, default=512)
    p.add_argument("--gate", type=float, default=1e-5)

    p = sub.add_parser("check-covariance", parents=[common])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--nu", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--kernel-gate", dest="kernel_gate", type=float, default=1e-8)
    p.add_argument("--cocycle-gate", dest="cocycle_gate", type=float, default=1e-10)

    p = sub.add_parser("table", parents=[common])
    p.add_argument("--domain", choices=["disk", "typeI", "typeII", "typeIII", "typeIV", "e7"], default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--nu", type=int, default=0)

    p = sub.add_parser("suite", parents=[common])
    p.add_argument("--config", required=True, help="JSON file with an 'experiments' array")

    return parser


def _cfg_from_args(args: argparse.Namespace) -> dict:
    cfg = {}
    for key, value in vars(args).items():
        if key in ("command", "output", "out") or value is None:
            continue
        cfg["lambda" if key == "lam" else key] = value
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        runner = _RUNNERS[args.command]
        report, code = runner(_cfg_from_args(args))
        rendered = render_report(report, args.output)
        print(rendered)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        return code
    except CliArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (InvalidArgumentError, DomainError, ParameterError, GeometryError,
            SingularKernelError, SingularActionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (NumericalError, NonFiniteSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
