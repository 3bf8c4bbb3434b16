"""Closed-form spherical functions and finite-difference residuals of the radial systems.

Every value comes from one series, 2F1^(m)((lam+eta-nu)/2, b; eta; x) in
``_spherical_series``, run to a given degree or to the one where max|x|^k falls
below 1e-17, capped where the Jack tables stop (200; 100 at rank >= 3).  A
series unconverged at its degree raises ConvergenceError (naming the degree and
the last shell), a non-finite one NonFiniteResultError: there is no bare value.

The eigenvalue constant used for the t-coordinate system is

    lam^2 - (eta - nu)^2        (see ``radial_eigenvalue``),

the unique constant under which the closed-form spherical function satisfies
the printed operator; it is also exactly what the x-coordinate form of the
system (whose constant is ((eta - nu)^2 - lam^2)/4) transforms into under
x_j = -sinh^2 t_j.  Both reductions are covered by tests.

Each system checks its own step, rank and singular wall and forms its own rows;
both take their central differences from one stencil, ``_fd_differences``.  Its
series run to one degree, chosen at the worst stencil point (no early stop), so
the truncation tail is a smooth function of the point and cancels in the differences.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .domains import DomainSpec, LineBundleParams, _eta_of, _spectral_constant, casimir_eigenvalue
from .errors import ConvergenceError, DomainError, GeometryError, InvalidArgumentError, NonFiniteResultError
from .hypergeom import HyperParams, hyp2f1_multi
from .partitions import _degree_cap, _finite_point
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
class SphericalParams(LineBundleParams):
    """A line bundle's (lam, nu) and the domain's (m, r) pair."""

    multiplicity: float
    rank: int

    def __post_init__(self):
        super().__post_init__()
        if self.rank < 1:
            raise InvalidArgumentError(f"rank must be >= 1, got {self.rank}")
        if not self.multiplicity > 0:
            raise InvalidArgumentError(f"multiplicity must be positive, got {self.multiplicity}")

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
    return _spectral_constant(sp.eta, sp)


def _auto_kmax(max_abs_x: float, rank: int) -> int:
    """The degree at which max|x|^k falls below 1e-17, plus 10 and at least 40, within the Jack tables' cap."""
    if max_abs_x < 1e-12:
        return 8
    est = int(math.ceil(math.log(1e-17) / math.log(max_abs_x))) + 10
    return min(max(est, 40), _degree_cap(rank))


def _check_rank(sp: SphericalParams, point: tuple[float, ...]):
    if len(point) != sp.rank:
        raise InvalidArgumentError(f"point has rank {len(point)}, params have rank {sp.rank}")


def _spherical_series(
    sp: SphericalParams, b: complex, x: tuple[float, ...], k_max: int | None, tol: float, early_stop: bool
) -> complex:
    """2F1^(m)((lam+eta-nu)/2, b; eta; x), the series both representations share.

    k_max None picks the degree from max|x|.  A non-finite or unconverged series
    gives no value: it raises NonFiniteResultError or ConvergenceError.
    """
    _check_rank(sp, x)
    k_max = _auto_kmax(max(abs(v) for v in x), sp.rank) if k_max is None else k_max
    params = HyperParams(a=(sp.lam + sp.eta - sp.nu) / 2.0, b=b, c=sp.eta, multiplicity_m=sp.multiplicity,
                         k_max=k_max, tol=tol)
    res = hyp2f1_multi(params, x, early_stop=early_stop)
    if not cmath.isfinite(res.value):
        raise NonFiniteResultError(f"the spherical series is non-finite at x = {x}")
    if not res.converged:
        raise ConvergenceError(
            f"the spherical series did not converge by degree {res.truncation_degree} at x = {x}: "
            f"last shell {res.last_shell:.3g} > tol {tol:g} * max(1, |value|)"
        )
    return res.value


def _cosh_power(t: tuple[float, ...], p: int) -> float:
    """prod_j cosh(t_j)^p, multiplied in coordinate order."""
    pref = 1.0
    for v in t:
        pref *= math.cosh(v) ** p
    return pref


def spherical_F(sp: SphericalParams, pt: RadialPoint, *, k_max: int | None = None, tol: float = 1e-13,
                early_stop: bool = True) -> complex:
    """Closed-form spherical function on the flat torus coordinates.

    prod_j (1 - tanh^2 t_j)^((lam+eta)/2)
    * 2F1^(m)((lam+eta-nu)/2, (lam+eta+nu)/2; eta; tanh^2 t_1, ..., tanh^2 t_r).
    """
    x = tuple(math.tanh(v) ** 2 for v in pt.t)
    series = _spherical_series(sp, (sp.lam + sp.eta + sp.nu) / 2.0, x, k_max, tol, early_stop)
    pref = cmath.exp(((sp.lam + sp.eta) / 2.0) * sum(math.log1p(-xi) for xi in x))
    return pref * series


def spherical_F_xform(sp: SphericalParams, pt: RadialPoint, *, k_max: int | None = None, tol: float = 1e-13) -> complex:
    """The alternative representation of the same function:

    prod_j (cosh t_j)^(-nu)
    * 2F1^(m)((lam+eta-nu)/2, (-lam+eta-nu)/2; eta; -sinh^2 t_1, ..., -sinh^2 t_r).

    Swapping lam -> -lam leaves this form fixed term by term; its agreement
    with :func:`spherical_F` is the Euler-transformation bridge.
    """
    x = tuple(-math.sinh(v) ** 2 for v in pt.t)
    if max(abs(v) for v in x) >= 1.0:
        raise DomainError(f"-sinh^2 t leaves the unit polydisk at {pt.t}; use spherical_F")
    b = (-sp.lam + sp.eta - sp.nu) / 2.0
    return _cosh_power(pt.t, -sp.nu) * _spherical_series(sp, b, x, k_max, tol, True)


def hua_integral_rhs(sp: SphericalParams, pt: RadialPoint, *, k_max: int | None = None, tol: float = 1e-13) -> complex:
    """Closed form of the Shilov-boundary integral at z = diag(tanh t).

    h(z,z)^((lam+eta-nu)/2) * 2F1^(m)((lam+eta-nu)/2, (lam+eta+nu)/2; eta; tanh^2 t),
    equal to (prod_j cosh t_j)^nu * spherical_F.
    """
    val = spherical_F(sp, pt, k_max=k_max, tol=tol)
    for v in pt.t:
        val *= math.cosh(v) ** sp.nu
    return val


def _check_step(h: float, point):
    """h > 0, h^2 a normal float (the stencils divide by it), and h >= ulp(p), so p +- h != p, at each centre p."""
    if not h > 0:
        raise InvalidArgumentError(f"the finite-difference step must be positive, got {h}")
    smallest = max([math.sqrt(sys.float_info.min)] + [math.ulp(p) for p in point])
    if h < smallest:
        raise InvalidArgumentError(f"the finite-difference step must be at least {smallest!r} so that h^2 is a "
                                   f"normal float and p +- h differs from each coordinate p = {point}, got {h}")


def _fd_differences(fn, point: tuple[float, ...], h: float, apart, max_x: float):
    """fn at the point, and its first and second central differences along each coordinate.

    The stencil of both radial systems, called once each has checked its step,
    rank and singular wall.  It checks that the coordinates ``apart`` =
    (name, values) stay 10h apart pairwise, then evaluates ``fn(p, k_max)`` at
    the point and at p +- h e_k, all at one degree: the automatic degree of the
    worst stencil point, whose largest |x| is ``max_x``.
    """
    r = len(point)
    name, coords = apart
    for j, k in itertools.combinations(range(r), 2):
        if abs(coords[j] - coords[k]) < 10.0 * h:
            raise GeometryError(f"{name} separation below 10h between coordinates {j} and {k}")
    k_max = _auto_kmax(max_x, r)
    f0 = fn(point, k_max)
    d1, d2 = np.empty(r, dtype=complex), np.empty(r, dtype=complex)
    for k in range(r):
        fp = fn(point[:k] + (point[k] + h,) + point[k + 1:], k_max)
        fm = fn(point[:k] + (point[k] - h,) + point[k + 1:], k_max)
        d1[k] = (fp - fm) / (2.0 * h)
        d2[k] = (fp - 2.0 * f0 + fm) / h**2
    return f0, d1, d2


@dataclass(frozen=True)
class RadialReport:
    residuals: np.ndarray
    phi_value: complex
    relative: float


def radial_residual_report(sp: SphericalParams, pt: RadialPoint, h: float = 1e-3) -> RadialReport:
    """Finite-difference residual vector of the radial system at phi = prod cosh^nu * F,
    phi itself, and the scale-free relative size used by the gates.

    Component k is

        phi_kk + 2 coth(2 t_k) phi_k - 2 nu tanh(t_k) phi_k
        + (m/2) sum_{j != k} [sinh(2t_j) phi_j - sinh(2t_k) phi_k]
                              / (sinh^2 t_j - sinh^2 t_k)
        - (lam^2 - (eta - nu)^2) phi,

    and relative = max_k |res_k| / (max(1, |lam^2 - (eta - nu)^2|) * |phi|).
    The stencil must stay off the singular set: |t_k| >= 10h and
    |sinh^2 t_j - sinh^2 t_k| >= 10h for j != k.
    """
    t, nu, m = pt.t, sp.nu, sp.multiplicity
    _check_step(h, t)
    _check_rank(sp, t)
    if min(map(abs, t)) < 10.0 * h:
        raise GeometryError(f"|t_k| < 10h at {t}: too close to the coth singularity")
    const = radial_eigenvalue(sp)
    sh2 = [math.sinh(v) ** 2 for v in t]
    f0, d1, d2 = _fd_differences(
        lambda p, k: _cosh_power(p, nu) * spherical_F(sp, RadialPoint(p), k_max=k, early_stop=False),
        t, h, ("sinh^2 t", sh2), math.tanh(max(map(abs, t)) + h) ** 2,
    )
    rows = []
    for k in range(len(t)):
        lhs = d2[k] + 2.0 / math.tanh(2.0 * t[k]) * d1[k] - 2.0 * nu * math.tanh(t[k]) * d1[k]
        for j in range(len(t)):
            if j != k:
                lhs += 0.5 * m * (math.sinh(2.0 * t[j]) * d1[j] - math.sinh(2.0 * t[k]) * d1[k]) / (sh2[j] - sh2[k])
        rows.append(lhs - const * f0)
    res = np.array(rows)
    rel = float(np.max(np.abs(res)) / (max(1.0, abs(const)) * abs(f0)))
    return RadialReport(residuals=res, phi_value=f0, relative=rel)


def hua_radial_residual(sp: SphericalParams, pt: RadialPoint, h: float = 1e-3) -> np.ndarray:
    """The residual vector of :func:`radial_residual_report`."""
    return radial_residual_report(sp, pt, h).residuals


def x_system_residual(sp: SphericalParams, x, h: float = 1e-3) -> np.ndarray:
    """Finite-difference residual of the x-coordinate system, exactly as printed.

    With psi the bare series in x (the function the t-system's phi becomes
    under x_j = -sinh^2 t_j), component k is

        x_k (1 - x_k) psi_kk + (1 - (2 - nu) x_k) psi_k
        - (m/2) sum_{j != k} [x_j(1-x_j) psi_j - x_k(1-x_k) psi_k] / (x_k - x_j)
        - ((eta - nu)^2 - lam^2)/4 * psi.

    Diagnostic companion to :func:`hua_radial_residual`; requires -1 + h < x_k <= -10h
    (the stencil stays off 0 and inside the unit polydisk), pairwise separated by at least 10h.
    """
    xs = _finite_point(x)
    _check_step(h, xs)
    _check_rank(sp, xs)
    if max(xs) > -10.0 * h or min(xs) - h <= -1.0:
        raise GeometryError(f"x_k must stay in (-1 + h, -10h], got {xs}")
    nu, m = sp.nu, sp.multiplicity
    const = -radial_eigenvalue(sp) / 4.0
    b = (-sp.lam + sp.eta - nu) / 2.0
    f0, d1, d2 = _fd_differences(lambda p, k: _spherical_series(sp, b, p, k, 1e-13, False),
                                 xs, h, ("x", xs), max(map(abs, xs)) + h)
    rows = []
    for k in range(len(xs)):
        lhs = xs[k] * (1.0 - xs[k]) * d2[k] + (1.0 - (2.0 - nu) * xs[k]) * d1[k]
        acc = 0.0 + 0.0j
        for j in range(len(xs)):
            if j != k:
                acc += (xs[j] * (1.0 - xs[j]) * d1[j] - xs[k] * (1.0 - xs[k]) * d1[k]) / (xs[k] - xs[j])
        rows.append(lhs - 0.5 * m * acc - const * f0)
    return np.array(rows)


_ONE = BoundaryFunction(fn=lambda u: 1.0, tag="1", batch=lambda us: np.ones(us.shape[0]))


def disk_poisson_value(lam: complex, z: complex, nodes: int = 512) -> complex:
    """Scalar Poisson integral on the disk with f = 1, nu = 0, by quadrature; the kernel rejects |z| >= 1."""
    return poisson_transform(DomainSpec.disk(), LineBundleParams(lam=lam, nu=0), _ONE, z, 0, 0, nodes=nodes).mean


def disk_casimir_residual(lam: complex, z: complex, h: float = 1e-3, *, nodes: int = 512) -> complex:
    """Residual of the invariant Laplacian eigenvalue identity on the disk.

    Applies Delta = (1 - |z|^2)^2 d^2/dz dzbar to the quadrature-evaluated
    Poisson integral by the 5-point stencil and subtracts
    ((lam^2 - 1)/4) * P(z).
    """
    return _disk_casimir(lam, z, h, nodes)[0]


def _disk_casimir(lam: complex, z: complex, h: float, nodes: int) -> tuple[complex, complex, complex]:
    """``disk_casimir_residual``, the centre value P(z) of its stencil, and the Casimir eigenvalue."""
    zc = complex(z)
    _check_step(h, (zc.real, zc.imag))
    if abs(zc) + 2.0 * h >= 1.0:
        raise InvalidArgumentError("need |z| + 2h < 1")
    p0 = disk_poisson_value(lam, zc, nodes)
    px = disk_poisson_value(lam, zc + h, nodes) + disk_poisson_value(lam, zc - h, nodes)
    py = disk_poisson_value(lam, zc + 1j * h, nodes) + disk_poisson_value(lam, zc - 1j * h, nodes)
    lap = (px + py - 4.0 * p0) / h**2
    delta = (1.0 - abs(zc) ** 2) ** 2 * 0.25 * lap
    eig = casimir_eigenvalue(DomainSpec.disk(), LineBundleParams(lam, 0))
    return delta - eig * p0, p0, eig
