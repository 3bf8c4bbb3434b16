"""Closed-form spherical functions and finite-difference residuals of the radial systems.

The eigenvalue constant used for the t-coordinate system is

    lam^2 - (eta - nu)^2        (see ``radial_eigenvalue``),

the unique constant under which the closed-form spherical function satisfies
the printed operator; it is also exactly what the x-coordinate form of the
system (whose constant is ((eta - nu)^2 - lam^2)/4) transforms into under
x_j = -sinh^2 t_j.  Both reductions are covered by tests.

Finite differencing is central second order.  Residual evaluations run the
series to a fixed degree (no early stop), so the truncation tail is a smooth
function of the evaluation point and cancels in the differences.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .domains import DomainSpec, LineBundleParams, _eta_of
from .errors import DomainError, GeometryError, InvalidArgumentError
from .hypergeom import HyperParams, hyp2f1_multi
from .shilov import BoundaryFunction, poisson_transform
from .shilov import circle_quadrature  # noqa: F401  (perfbench/tracing.py wraps radial.circle_quadrature)

__all__ = [
    "SphericalParams",
    "RadialPoint",
    "radial_eigenvalue",
    "spherical_F",
    "spherical_F_xform",
    "hua_integral_rhs",
    "hua_radial_residual",
    "radial_residual_report",
    "x_system_residual",
    "disk_casimir_residual",
    "disk_poisson_value",
]

_T_BOUND = 3.0


@dataclass(frozen=True)
class SphericalParams:
    """Spectral parameter, bundle twist, and the domain's (m, r) pair."""

    lam: complex
    nu: int
    multiplicity: float
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidArgumentError(f"rank must be >= 1, got {self.rank}")
        if not self.multiplicity > 0:
            raise InvalidArgumentError(f"multiplicity must be positive, got {self.multiplicity}")
        if int(self.nu) != self.nu:
            raise InvalidArgumentError(f"nu must be an integer, got {self.nu}")
        object.__setattr__(self, "nu", int(self.nu))

    @property
    def eta(self) -> float:
        return _eta_of(self.multiplicity, self.rank)


@dataclass(frozen=True)
class RadialPoint:
    """Flat coordinates t = (t_1, ..., t_r), bounded away from tanh saturation."""

    t: tuple[float, ...]

    def __init__(self, t, bound: float = _T_BOUND):
        ts = tuple(float(v) for v in t)
        if not ts:
            raise InvalidArgumentError("t must have at least one entry")
        if not all(math.isfinite(v) for v in ts):
            raise InvalidArgumentError(f"t must be finite, got {ts}")
        if max(abs(v) for v in ts) > bound:
            raise InvalidArgumentError(f"|t_j| must stay <= {bound}, got {ts}")
        object.__setattr__(self, "t", ts)


def radial_eigenvalue(sp: SphericalParams) -> complex:
    """Eigenvalue constant lam^2 - (eta - nu)^2 of the t-coordinate system."""
    return sp.lam**2 - (sp.eta - sp.nu) ** 2


def _auto_kmax(max_abs_x: float, requested: int | None) -> int:
    if requested is not None:
        return requested
    if max_abs_x < 1e-12:
        return 8
    # geometric tail max_abs_x^k below 1e-17, clamped to a sane range
    est = int(math.ceil(math.log(1e-17) / math.log(max_abs_x))) + 10
    return min(max(est, 40), 180)


def _spherical_series(
    sp: SphericalParams, b: complex, x: tuple[float, ...], k_max: int | None, tol: float, early_stop: bool
) -> complex:
    """2F1^(m)((lam+eta-nu)/2, b; eta; x), the series both representations share."""
    params = HyperParams(
        a=(sp.lam + sp.eta - sp.nu) / 2.0,
        b=b,
        c=sp.eta,
        multiplicity_m=sp.multiplicity,
        k_max=_auto_kmax(max(abs(v) for v in x), k_max),
        tol=tol,
    )
    return hyp2f1_multi(params, x, early_stop=early_stop).value


def spherical_F(
    sp: SphericalParams,
    pt: RadialPoint,
    *,
    k_max: int | None = None,
    tol: float = 1e-13,
    early_stop: bool = True,
) -> complex:
    """Closed-form spherical function on the flat torus coordinates.

    prod_j (1 - tanh^2 t_j)^((lam+eta)/2)
    * 2F1^(m)((lam+eta-nu)/2, (lam+eta+nu)/2; eta; tanh^2 t_1, ..., tanh^2 t_r).
    """
    if len(pt.t) != sp.rank:
        raise InvalidArgumentError(f"point has rank {len(pt.t)}, params have rank {sp.rank}")
    x = tuple(math.tanh(v) ** 2 for v in pt.t)
    series = _spherical_series(sp, (sp.lam + sp.eta + sp.nu) / 2.0, x, k_max, tol, early_stop)
    pref = cmath.exp(((sp.lam + sp.eta) / 2.0) * sum(math.log1p(-xi) for xi in x))
    return pref * series


def spherical_F_xform(
    sp: SphericalParams,
    pt: RadialPoint,
    *,
    k_max: int | None = None,
    tol: float = 1e-13,
    early_stop: bool = True,
) -> complex:
    """The alternative representation of the same function:

    prod_j (cosh t_j)^(-nu)
    * 2F1^(m)((lam+eta-nu)/2, (-lam+eta-nu)/2; eta; -sinh^2 t_1, ..., -sinh^2 t_r).

    Swapping lam -> -lam leaves this form fixed term by term; its agreement
    with :func:`spherical_F` is the Euler-transformation bridge.
    """
    if len(pt.t) != sp.rank:
        raise InvalidArgumentError(f"point has rank {len(pt.t)}, params have rank {sp.rank}")
    x = tuple(-math.sinh(v) ** 2 for v in pt.t)
    if max(abs(v) for v in x) >= 1.0:
        raise DomainError(f"-sinh^2 t leaves the unit polydisk at {pt.t}; use spherical_F")
    series = _spherical_series(sp, (-sp.lam + sp.eta - sp.nu) / 2.0, x, k_max, tol, early_stop)
    pref = 1.0
    for v in pt.t:
        pref *= math.cosh(v) ** (-sp.nu)
    return pref * series


def hua_integral_rhs(
    sp: SphericalParams, pt: RadialPoint, *, k_max: int | None = None, tol: float = 1e-13
) -> complex:
    """Closed form of the Shilov-boundary integral at z = diag(tanh t).

    h(z,z)^((lam+eta-nu)/2) * 2F1^(m)((lam+eta-nu)/2, (lam+eta+nu)/2; eta; tanh^2 t),
    equal to (prod_j cosh t_j)^nu * spherical_F.
    """
    val = spherical_F(sp, pt, k_max=k_max, tol=tol)
    for v in pt.t:
        val *= math.cosh(v) ** sp.nu
    return val


def _phi(sp: SphericalParams, t: tuple[float, ...], k_max: int) -> complex:
    pref = 1.0
    for v in t:
        pref *= math.cosh(v) ** sp.nu
    return pref * spherical_F(sp, RadialPoint(t), k_max=k_max, early_stop=False)


def _check_step(h: float):
    if not h > 0:
        raise InvalidArgumentError(f"the finite-difference step must be positive, got {h}")


def _central_differences(fn, point: tuple[float, ...], h: float):
    """fn at point, and its central first and second differences along each coordinate."""
    f0 = fn(point)
    d1 = np.empty(len(point), dtype=complex)
    d2 = np.empty(len(point), dtype=complex)
    for k in range(len(point)):
        plus = list(point)
        minus = list(point)
        plus[k] += h
        minus[k] -= h
        fp = fn(tuple(plus))
        fm = fn(tuple(minus))
        d1[k] = (fp - fm) / (2.0 * h)
        d2[k] = (fp - 2.0 * f0 + fm) / h**2
    return f0, d1, d2


def hua_radial_residual(
    sp: SphericalParams, pt: RadialPoint, h: float = 1e-3, *, k_max: int | None = None
) -> np.ndarray:
    """Finite-difference residual vector of the radial system at phi = prod cosh^nu * F.

    Component k is

        phi_kk + 2 coth(2 t_k) phi_k - 2 nu tanh(t_k) phi_k
        + (m/2) sum_{j != k} [sinh(2t_j) phi_j - sinh(2t_k) phi_k]
                              / (sinh^2 t_j - sinh^2 t_k)
        - (lam^2 - (eta - nu)^2) phi.

    The stencil must stay off the singular set: |t_k| >= 10h and
    |sinh^2 t_j - sinh^2 t_k| >= 10h for j != k.
    """
    return _radial_residual(sp, pt, h, k_max)[0]


def _radial_residual(sp: SphericalParams, pt: RadialPoint, h: float, k_max: int | None):
    """The residual vector of :func:`hua_radial_residual` and phi at the point."""
    _check_step(h)
    t = pt.t
    r = sp.rank
    if len(t) != r:
        raise InvalidArgumentError(f"point has rank {len(t)}, params have rank {r}")
    if min(abs(v) for v in t) < 10.0 * h:
        raise GeometryError(f"|t_k| < 10h at {t}: too close to the coth singularity")
    sh2 = [math.sinh(v) ** 2 for v in t]
    for j in range(r):
        for k in range(j + 1, r):
            if abs(sh2[j] - sh2[k]) < 10.0 * h:
                raise GeometryError(f"sinh^2 separation below 10h between t_{j} and t_{k}")
    if k_max is None:
        worst = math.tanh(max(abs(v) for v in t) + h) ** 2
        k_max = _auto_kmax(worst, None)
    f0, d1, d2 = _central_differences(lambda tt: _phi(sp, tt, k_max), t, h)
    const = radial_eigenvalue(sp)
    res = np.empty(r, dtype=complex)
    for k in range(r):
        lhs = d2[k] + 2.0 / math.tanh(2.0 * t[k]) * d1[k] - 2.0 * sp.nu * math.tanh(t[k]) * d1[k]
        for j in range(r):
            if j == k:
                continue
            lhs += (
                0.5
                * sp.multiplicity
                * (math.sinh(2.0 * t[j]) * d1[j] - math.sinh(2.0 * t[k]) * d1[k])
                / (sh2[j] - sh2[k])
            )
        res[k] = lhs - const * f0
    return res, f0


@dataclass(frozen=True)
class RadialReport:
    residuals: np.ndarray
    phi_value: complex
    relative: float


def radial_residual_report(
    sp: SphericalParams, pt: RadialPoint, h: float = 1e-3, *, k_max: int | None = None
) -> RadialReport:
    """Residual vector plus the scale-free relative size used by the gates.

    relative = max_k |res_k| / (max(1, |const|) * |phi|).
    """
    res, f0 = _radial_residual(sp, pt, h, k_max)
    const = radial_eigenvalue(sp)
    rel = float(np.max(np.abs(res)) / (max(1.0, abs(const)) * abs(f0)))
    return RadialReport(residuals=res, phi_value=f0, relative=rel)


def x_system_residual(
    sp: SphericalParams, x, h: float = 1e-3, *, k_max: int | None = None
) -> np.ndarray:
    """Finite-difference residual of the x-coordinate system, exactly as printed.

    With psi the bare series in x (the function the t-system's phi becomes
    under x_j = -sinh^2 t_j), component k is

        x_k (1 - x_k) psi_kk + (1 - (2 - nu) x_k) psi_k
        - (m/2) sum_{j != k} [x_j(1-x_j) psi_j - x_k(1-x_k) psi_k] / (x_k - x_j)
        - ((eta - nu)^2 - lam^2)/4 * psi.

    Diagnostic companion to :func:`hua_radial_residual`; requires x_k < 0,
    pairwise separated by at least 10h.
    """
    _check_step(h)
    xs = tuple(float(v) for v in x)
    r = sp.rank
    if len(xs) != r:
        raise InvalidArgumentError(f"x has rank {len(xs)}, params have rank {r}")
    if not all(math.isfinite(v) for v in xs):
        raise InvalidArgumentError(f"x must be finite, got {xs}")
    if max(xs) > -10.0 * h:
        raise GeometryError(f"x_k must stay below -10h, got {xs}")
    for j in range(r):
        for k in range(j + 1, r):
            if abs(xs[j] - xs[k]) < 10.0 * h:
                raise GeometryError(f"x separation below 10h between x_{j} and x_{k}")
    if k_max is None:
        k_max = _auto_kmax(max(abs(v) for v in xs) + h, None)

    b = (-sp.lam + sp.eta - sp.nu) / 2.0
    f0, d1, d2 = _central_differences(lambda xx: _spherical_series(sp, b, xx, k_max, 1e-13, False), xs, h)
    const = ((sp.eta - sp.nu) ** 2 - sp.lam**2) / 4.0
    res = np.empty(r, dtype=complex)
    for k in range(r):
        lhs = xs[k] * (1.0 - xs[k]) * d2[k] + (1.0 - (2.0 - sp.nu) * xs[k]) * d1[k]
        acc = 0.0 + 0.0j
        for j in range(r):
            if j == k:
                continue
            acc += (xs[j] * (1.0 - xs[j]) * d1[j] - xs[k] * (1.0 - xs[k]) * d1[k]) / (xs[k] - xs[j])
        lhs -= 0.5 * sp.multiplicity * acc
        res[k] = lhs - const * f0
    return res


_ONE = BoundaryFunction(fn=lambda u: 1.0, tag="1", batch=lambda us: np.ones(us.shape[0]))


def disk_poisson_value(lam: complex, z: complex, nodes: int = 512) -> complex:
    """Scalar Poisson integral on the disk with f = 1, nu = 0, by quadrature."""
    zc = complex(z)
    if abs(zc) >= 1.0:
        raise InvalidArgumentError(f"|z| must be < 1, got {abs(zc)}")
    return poisson_transform(DomainSpec.disk(), LineBundleParams(lam=lam, nu=0), _ONE, zc, 0, 0, nodes=nodes).mean


def disk_casimir_residual(lam: complex, z: complex, h: float = 1e-3, *, nodes: int = 512) -> complex:
    """Residual of the invariant Laplacian eigenvalue identity on the disk.

    Applies Delta = (1 - |z|^2)^2 d^2/dz dzbar to the quadrature-evaluated
    Poisson integral by the 5-point stencil and subtracts
    ((lam^2 - 1)/4) * P(z).
    """
    zc = complex(z)
    _check_step(h)
    if abs(zc) + 2.0 * h >= 1.0:
        raise InvalidArgumentError("need |z| + 2h < 1")
    p0 = disk_poisson_value(lam, zc, nodes)
    px = disk_poisson_value(lam, zc + h, nodes) + disk_poisson_value(lam, zc - h, nodes)
    py = disk_poisson_value(lam, zc + 1j * h, nodes) + disk_poisson_value(lam, zc - 1j * h, nodes)
    lap = (px + py - 4.0 * p0) / h**2
    delta = (1.0 - abs(zc) ** 2) ** 2 * 0.25 * lap
    return delta - (lam**2 - 1.0) / 4.0 * p0
