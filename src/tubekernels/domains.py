"""Tube-type domain invariants, Jordan polynomial, and line-bundle Poisson kernels.

``FAMILIES`` gives every tube-type family's rank, multiplicity and kernel matrix side
at size n, ``families_at`` those that exist at n, and the catalog derives eta and the genus 2 eta.
Side 1 is the unit disk, side n the type I_{n,n} ball {z : ||z||_op < 1} with Shilov boundary
U(n); the kernel entry points refuse the side-0 families, whose invariants still hold.

Conventions pinned here:

* Jordan polynomial: disk h(z, w) = 1 - z conj(w); type I h(z, w) =
  det(I - z w*).  Restricted to z = w = diag(a_1..a_r) this is
  prod_j (1 - a_j^2), the defining torus normalization.
* Poisson kernel: [h(z,z) / |h(z,u)|^2]^((lam+eta-nu)/2) * h(z,u)^(-nu),
  principal branch on the positive real base, exact integer power for the
  h(z,u) factor.
* Cocycle: j(g, z) = det(Cz + D), so the canonical automorphy factor obeys
  J_g(z)^(1/p) = j(g, z)^(-1) and the Jordan polynomial transforms as
  h(g.z, g.w) = j(g,z)^(-1) h(z,w) conj(j(g,w))^(-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NonFiniteResultError, SingularActionError, SingularKernelError

__all__ = [
    "DomainSpec",
    "LineBundleParams",
    "KernelPoint",
    "AdmissibilityReport",
    "FAMILIES",
    "KERNEL_FAMILIES",
    "catalog_record",
    "families_at",
    "char_poly_coeffs",
    "jordan_h",
    "poisson_kernel",
    "poisson_kernel_batch",
    "hua_eigenvalue",
    "casimir_eigenvalue",
    "check_admissibility",
    "moebius_typeI",
    "cocycle_j",
    "random_group_element",
    "kernel_covariance_residual",
    "cocycle_residual",
    "h_covariance_residual",
]

_GROUP_TOL = 1e-10
_UNITARY_TOL = 1e-12


def _eta_of(m: float, r: int) -> float:
    return 0.5 * m * (r - 1) + 1.0


@dataclass(frozen=True)
class DomainSpec:
    """Invariants of one tube-type domain realization."""

    kind: str
    rank: int
    multiplicity: float
    eta: float
    genus: float
    matrix_size: int

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidArgumentError(f"rank must be >= 1, got {self.rank}")
        if abs(self.eta - _eta_of(self.multiplicity, self.rank)) > 1e-12:
            raise InvalidArgumentError("eta must equal (m/2)(r-1) + 1")
        if abs(self.genus - 2.0 * self.eta) > 1e-12:
            raise InvalidArgumentError("genus must equal m(r-1) + 2 = 2*eta")

    @classmethod
    def disk(cls) -> "DomainSpec":
        """Unit disk (rank 1; the multiplicity plays no role at r = 1)."""
        return cls.of("disk", 1)

    @classmethod
    def type_i(cls, n: int) -> "DomainSpec":
        return cls.of("typeI", n)

    @classmethod
    def of(cls, kind: str, n: int) -> "DomainSpec":
        """The catalog record of ``kind`` as a spec, its matrix_size the kernel side in ``FAMILIES``."""
        rec = catalog_record(kind, n)
        return cls(kind=kind, rank=rec["rank"], multiplicity=rec["multiplicity"], eta=rec["eta"],
                   genus=rec["genus"], matrix_size=FAMILIES[kind](n)[2])


# Every tube-type family: (rank, multiplicity, kernel matrix side or 0 for none) at size n.  e7 ignores n.
FAMILIES = {
    "disk": lambda n: (1, 2.0, 1),
    "typeI": lambda n: (n, 2.0, n),
    "typeII": lambda n: (n, 4.0, 0),
    "typeIII": lambda n: (n, 1.0, 0),
    "typeIV": lambda n: (2, float(n - 2), 0),
    "e7": lambda n: (3, 8.0, 0),
}
KERNEL_FAMILIES = tuple(kind for kind, family in FAMILIES.items() if family(1)[2] > 0)


def _record_error(kind: str, n: int) -> str | None:
    """Why ``kind`` has no record at size n, or None when it has one."""
    if kind not in FAMILIES:
        return f"unknown domain kind {kind!r}"
    if kind == "typeIV" and n < 3:
        return "typeIV record requires n >= 3"
    r = FAMILIES[kind](n)[0]
    return f"rank must be >= 1, got {r}" if r < 1 else None


def families_at(n: int) -> list[str]:
    """The kinds in ``FAMILIES`` that have a record at size n, in table order."""
    return [kind for kind in FAMILIES if _record_error(kind, n) is None]


def catalog_record(kind: str, n: int) -> dict:
    """The (rank, multiplicity, eta, genus, has_kernel: side > 0) record of a family at n (typeIV: n >= 3)."""
    error = _record_error(kind, n)
    if error:
        raise InvalidArgumentError(error)
    r, m, side = FAMILIES[kind](n)
    eta = _eta_of(m, r)
    return {"kind": kind, "rank": r, "multiplicity": m, "eta": eta, "genus": 2.0 * eta, "has_kernel": side > 0}


@dataclass(frozen=True)
class LineBundleParams:
    """Spectral parameter lambda and integer line-bundle twist nu."""

    lam: complex
    nu: int

    def __post_init__(self):
        if int(self.nu) != self.nu:
            raise InvalidArgumentError(f"nu must be an integer, got {self.nu}")
        object.__setattr__(self, "nu", int(self.nu))


def _as_matrix(z, n: int | None = None) -> np.ndarray:
    """z as a complex array, a scalar as the 1x1 matrix; with n, it must be n x n."""
    zm = np.asarray(z, dtype=complex)
    if zm.ndim == 0:
        zm = zm.reshape(1, 1)
    if n is not None and zm.shape != (n, n):
        raise InvalidArgumentError(f"expected a {n}x{n} matrix, got shape {zm.shape}")
    return zm


def _kernel_side(spec: DomainSpec) -> int:
    """The matrix side of spec's kernel realization; the one refusal of a family with none."""
    if spec.matrix_size < 1:
        raise InvalidArgumentError(f"{spec.kind} has no kernel realization; only {', '.join(KERNEL_FAMILIES)} have")
    return spec.matrix_size


def _spectral_norm(z: np.ndarray) -> float:
    return float(np.linalg.norm(z, 2))


def _check_unitary(u: np.ndarray) -> None:
    """The one unitarity test, of kernel points and character arguments alike."""
    defect = float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
    if not defect <= _UNITARY_TOL:
        raise InvalidArgumentError(f"u is not unitary: max|u u* - I| = {defect:.3g} exceeds {_UNITARY_TOL:g}")


@dataclass(frozen=True)
class KernelPoint:
    """Interior point z (spectral norm < 1) and Shilov point u (unitary)."""

    z: np.ndarray
    u: np.ndarray

    def __init__(self, z, u, spec: DomainSpec | None = None):
        zm, um = _as_matrix(z), _as_matrix(u)
        if zm.shape != um.shape or zm.ndim != 2 or zm.shape[0] != zm.shape[1]:
            raise InvalidArgumentError(f"z and u must be square matrices of equal size, got {zm.shape}, {um.shape}")
        if spec is not None and zm.shape != (_kernel_side(spec),) * 2:
            raise InvalidArgumentError(f"point size {zm.shape} does not match domain size {spec.matrix_size}")
        if _spectral_norm(zm) >= 1.0:
            raise InvalidArgumentError("z must have spectral norm < 1")
        _check_unitary(um)
        object.__setattr__(self, "z", zm)
        object.__setattr__(self, "u", um)


def char_poly_coeffs(ms: np.ndarray) -> list[np.ndarray]:
    """Coefficients e_0..e_n of det(I + x m) = sum_k e_k x^k over a (B, n, n) stack.

    e_k is the k-th elementary symmetric function of the eigenvalues, obtained
    from the power traces p_k = tr(m^k), k <= n, by Newton's identities
    k e_k = sum_i (-1)^(i-1) e_(k-i) p_i (Macdonald, Symmetric Functions and
    Hall Polynomials, I.2).  p_k is traced as tr(m^(k - k//2) m^(k//2)), so
    only the powers up to m^ceil(n/2) are formed.  No factorization and no
    eigenvalue is computed.
    """
    n = ms.shape[-1]
    power = [None, ms]
    for k in range(2, (n + 1) // 2 + 1):
        power.append(power[k - 1] @ ms)
    p = [None, np.einsum("bii->b", ms)]
    for k in range(2, n + 1):
        p.append(np.einsum("bij,bji->b", power[k - k // 2], power[k // 2]))
    e = [np.ones(ms.shape[0], dtype=ms.dtype)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)) / k)
    return e


def _h_batch(zm: np.ndarray, us: np.ndarray) -> np.ndarray:
    """h(z, u) = det(I - z u*) over a (B, n, n) stack u, from the coefficients of
    (z u*)^T = conj(u) z^T, which has the same characteristic polynomial.

    Column i of (z u*)^T is sum_j z_ij conj(u)[:, :, j]: n^2 scalar multiples
    of strided columns, each one long loop, with no einsum and no BLAS call.
    """
    n = zm.shape[0]
    uc = us.conj()
    m = np.empty_like(uc)
    for i in range(n):
        col = uc[:, :, 0] * zm[i, 0]
        for j in range(1, n):
            col += uc[:, :, j] * zm[i, j]
        m[:, :, i] = col
    return sum((-1) ** k * e for k, e in enumerate(char_poly_coeffs(m)))


def jordan_h(spec: DomainSpec, z, w) -> complex:
    """Jordan determinant polynomial h(z, w), holomorphic in z, conjugate in w."""
    zm = _as_matrix(z, _kernel_side(spec))
    wm = _as_matrix(w, spec.matrix_size)
    return complex(_h_batch(zm, wm[None])[0])


def poisson_kernel(spec: DomainSpec, params: LineBundleParams, pt: KernelPoint) -> complex:
    """Line-bundle Poisson kernel P_{lam,nu}(z, u): the one-point view of :func:`poisson_kernel_batch`."""
    return complex(poisson_kernel_batch(spec, params, pt.z, pt.u[None])[0])


def poisson_kernel_batch(
    spec: DomainSpec, params: LineBundleParams, z, u_batch: np.ndarray, *, h_zu: np.ndarray | None = None
) -> np.ndarray:
    """Kernel values P_{lam,nu}(z, u) against a stack of Shilov points (B, n, n).

    [h(z,z)/|h(z,u)|^2]^((lam+eta-nu)/2) * h(z,u)^(-nu); the first factor uses
    the principal branch on its positive real base, the second is an exact
    integer power.  h(z, u) = det(I - z u*) = sum_k (-1)^k e_k(z u*) comes
    from the characteristic-polynomial coefficients of :func:`char_poly_coeffs`,
    with no determinant call; ``h_zu`` passes it already evaluated on
    ``u_batch``, for callers that read it for more than the kernel.  A z off
    the open domain, or a u with h(z, u) = 0, raises :class:`SingularKernelError`.
    """
    n = _kernel_side(spec)
    zm = _as_matrix(z, n)
    us = np.asarray(u_batch, dtype=complex)
    if us.ndim != 3 or us.shape[1:] != (n, n):
        raise InvalidArgumentError(f"u_batch must have shape (B, {n}, {n}), got {us.shape}")
    h_zz = jordan_h(spec, zm, zm).real
    if not h_zz > 0.0 or _spectral_norm(zm) >= 1.0:
        raise SingularKernelError(f"h(z, z) = {h_zz}, |z| = {_spectral_norm(zm)}; z is not interior")
    if h_zu is None:
        h_zu = _h_batch(zm, us)
    if np.any(np.abs(h_zu) < 1e-300):
        raise SingularKernelError("h(z, u) = 0: kernel is singular at this boundary point")
    base = h_zz / np.abs(h_zu) ** 2
    s = (params.lam + spec.eta - params.nu) / 2.0
    out = np.exp(s * np.log(base))
    if params.nu != 0:
        out = out * h_zu ** (-params.nu)
    return out


def _spectral_constant(eta: float, params: LineBundleParams) -> complex:
    """lam^2 - (eta - nu)^2, the constant every eigenvalue of the paper is a multiple of."""
    return params.lam**2 - (eta - params.nu) ** 2


def hua_eigenvalue(spec: DomainSpec, params: LineBundleParams) -> complex:
    """(lam^2 - (eta - nu)^2) / (4p) with p the genus."""
    return _spectral_constant(spec.eta, params) / (4.0 * spec.genus)


def casimir_eigenvalue(spec: DomainSpec, params: LineBundleParams) -> complex:
    """(lam^2 - (eta - nu)^2) / (4r) with r the rank."""
    return _spectral_constant(spec.eta, params) / (4.0 * spec.rank)


@dataclass(frozen=True)
class AdmissibilityReport:
    condition_13: bool
    condition_14: bool

    @property
    def admissible(self) -> bool:
        return self.condition_13 and self.condition_14


_INT_TOL = 1e-9


def _is_positive_multiple(v: complex, step: int) -> bool:
    """Whether v is, within _INT_TOL, one of step, 2 step, 3 step, ..."""
    if abs(v.imag) > _INT_TOL:
        return False
    nearest = round(v.real)
    return nearest >= step and nearest % step == 0 and abs(v.real - nearest) <= _INT_TOL


def check_admissibility(spec: DomainSpec, params: LineBundleParams) -> AdmissibilityReport:
    """Exact membership tests of the two spectral-parameter conditions.

    condition_13 holds iff -lam - (m/2)(-r + 2 + j) is not in {1, 2, ...}
    for j = 0, 1; condition_14 holds iff -lam + eta - |nu| is not in
    {2, 4, 6, ...}.  Nonreal lam passes both.
    """
    lam = complex(params.lam)
    m = spec.multiplicity
    r = spec.rank
    cond13 = True
    for j in (0, 1):
        v = -lam - (m / 2.0) * (-r + 2 + j)
        if _is_positive_multiple(v, 1):
            cond13 = False
    w = -lam + spec.eta - abs(params.nu)
    cond14 = not _is_positive_multiple(w, 2)
    return AdmissibilityReport(condition_13=cond13, condition_14=cond14)


# ---------------------------------------------------------------------------
# Type I_{n,n} group action
# ---------------------------------------------------------------------------


def _group_blocks(g: np.ndarray):
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2:
        raise InvalidArgumentError(f"group element must be a 2n x 2n matrix, got {g.shape}")
    n = g.shape[0] // 2
    jmat = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    defect = np.max(np.abs(g.conj().T @ jmat @ g - jmat))
    if defect > _GROUP_TOL:
        raise InvalidArgumentError(f"matrix is not in the type-I group: |g*Jg - J| = {defect:.2e}")
    return g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]


def _act(g: np.ndarray, z) -> tuple[np.ndarray, complex]:
    """g.z = (Az + B)(Cz + D)^(-1) and the cocycle j(g, z) = det(Cz + D), from one check
    of g and one of Cz + D."""
    a, b, c, d = _group_blocks(g)
    zm = _as_matrix(z, a.shape[0])
    denom = c @ zm + d
    sv = np.linalg.svd(denom, compute_uv=False)
    if sv[-1] <= 1e-14 * sv[0]:
        raise SingularActionError("Cz + D is singular")
    return np.linalg.solve(denom.T, (a @ zm + b).T).T, complex(np.linalg.det(denom))


def moebius_typeI(g: np.ndarray, z) -> np.ndarray:
    """Fractional-linear action g.z = (Az + B)(Cz + D)^(-1) on the matrix ball."""
    return _act(g, z)[0]


def cocycle_j(g: np.ndarray, z) -> complex:
    """Holomorphic cocycle j(g, z) = det(Cz + D)."""
    return _act(g, z)[1]


def random_group_element(n: int, rng: np.random.Generator) -> np.ndarray:
    """Exponential of a random Lie-algebra element of the type-I group.

    The element is rescaled to operator norm <= 0.5, keeping Cz + D well
    conditioned in tests.
    """
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = 0.5 * (x - x.conj().T)
    d = 0.5 * (y - y.conj().T)
    xi = np.block([[a, b], [b.conj().T, d]])
    nrm = np.linalg.norm(xi, 2)
    if nrm > 0.5:
        xi *= 0.5 / nrm
    g = term = np.eye(2 * n, dtype=complex)  # exp(xi) = sum_k xi^k / k!; past k = 18 the tail is below 0.5^19 / 19!
    for k in range(1, 19):
        term = term @ xi / k
        g = g + term
    return g


def cocycle_residual(g1: np.ndarray, g2: np.ndarray, z) -> float:
    """Relative defect of the multiplicative identity j(g1 g2, z) = j(g1, g2.z) j(g2, z)."""
    lhs = cocycle_j(np.asarray(g1) @ np.asarray(g2), z)
    g2z, j2 = _act(g2, z)
    rhs = _act(g1, g2z)[1] * j2
    return abs(lhs - rhs) / abs(lhs)


def h_covariance_residual(spec: DomainSpec, g: np.ndarray, z, w) -> float:
    """Relative defect of h(g.z, g.w) = j(g,z)^(-1) h(z,w) conj(j(g,w))^(-1)."""
    (gz, jz), (gw, jw) = _act(g, z), _act(g, w)
    lhs = jordan_h(spec, gz, gw)
    rhs = jordan_h(spec, z, w) / (jz * np.conj(jw))
    return abs(lhs - rhs) / abs(lhs)


def kernel_covariance_residual(
    spec: DomainSpec, params: LineBundleParams, g: np.ndarray, z, u
) -> float:
    """Relative defect of the kernel transformation law under the group action.

    P(g.z, g.u) = P(z, u) * j(g,z)^nu * |j(g,u)|^(lam+eta-nu) * conj(j(g,u))^nu,
    which is the printed covariance identity written through
    J_g(.)^(1/p) = j(g, .)^(-1); every factor is branch-free for integer nu.
    A non-finite residual (a kernel value overflowed) raises NonFiniteResultError.
    """
    (gz, jz), (gu, ju) = _act(g, z), _act(g, u)
    with np.errstate(all="ignore"):  # what NumPy would warn about is a non-finite residual, rejected below
        lhs = poisson_kernel(spec, params, KernelPoint(gz, gu, spec))
        p0 = poisson_kernel(spec, params, KernelPoint(z, u, spec))
        s = params.lam + spec.eta - params.nu
        rhs = p0 * jz**params.nu * np.exp(s * np.log(abs(ju))) * ju.conjugate() ** params.nu
        residual = abs(lhs - rhs) / abs(lhs)
    if not np.isfinite(residual):
        raise NonFiniteResultError(f"the kernel covariance residual is non-finite ({residual})")
    return residual
