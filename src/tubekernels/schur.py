"""Schur characters on U(n), Weyl dimensions, and the determinant-side formulas.

phi_m is the normalized character: the bialternant ratio evaluated on the
eigenvalues of u, divided by the Weyl dimension, so phi_m(identity) = 1 and
|phi_m| <= 1.  Signatures may have negative parts; those are folded out
through s_m = det(u)^(m_n) s_(m - m_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InvalidArgumentError, NumericalError
from .hypergeom import hyp2f1_classical

__all__ = [
    "SignatureM",
    "weyl_dim",
    "schur_char",
    "phi_m",
    "phi_m_batch",
    "phi_lambda_k",
    "det_formula_rhs",
]

_COLLISION_TOL = 1e-9
_UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class SignatureM:
    """Weakly decreasing integer signature (m_1 >= ... >= m_n), negatives allowed."""

    parts: tuple[int, ...]

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise InvalidArgumentError("signature must have length >= 1")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InvalidArgumentError(f"signature not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return len(self.parts)


def weyl_dim(sig: SignatureM) -> int:
    """Dimension prod_{i<j} (1 + (m_i - m_j)/(j - i)), computed exactly."""
    n = sig.n
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= 1 + Fraction(sig.parts[i] - sig.parts[j], j - i)
    if out.denominator != 1:
        raise NumericalError(f"Weyl dimension of {sig.parts} is not integral: {out}")
    return int(out)


def _char_jacobi_trudi(eigs: np.ndarray, shifted: tuple[int, ...]) -> complex:
    """Division-free character via det(h_{m_i - i + j}) with Newton's identities.

    Collision-proof: no Vandermonde quotient, so it stays exact (to rounding)
    when eigenvalues coincide.  Used only on the collision branch of
    :func:`phi_m_batch`; the bialternant is cheaper for well-separated spectra.
    """
    n = len(shifted)
    top = shifted[0] + n - 1
    p = [complex(np.sum(eigs**j)) for j in range(1, top + 1)]
    h = [1.0 + 0.0j]
    for k in range(1, top + 1):
        acc = 0.0 + 0.0j
        for i in range(1, k + 1):
            acc += p[i - 1] * h[k - i]
        h.append(acc / k)

    def h_at(k: int) -> complex:
        return h[k] if 0 <= k <= top else 0.0 + 0.0j

    mat = np.array([[h_at(shifted[i] - (i + 1) + (j + 1)) for j in range(n)] for i in range(n)])
    return complex(np.linalg.det(mat))


def schur_char(sig: SignatureM, u) -> complex:
    """Character value s_m(eigenvalues of u) for a unitary u: weyl_dim times :func:`phi_m`."""
    return phi_m(sig, u) * weyl_dim(sig)


def phi_m(sig: SignatureM, u) -> complex:
    """Normalized character schur_char / weyl_dim (zonal-type, phi_m(I) = 1) of one
    unitary: the one-matrix view of :func:`phi_m_batch`."""
    um = np.asarray(u, dtype=complex)
    n = sig.n
    if um.shape != (n, n):
        raise InvalidArgumentError(f"u must be {n}x{n} for this signature, got {um.shape}")
    if np.max(np.abs(um @ um.conj().T - np.eye(n))) > _UNITARY_TOL:
        raise InvalidArgumentError("u is not unitary")
    return complex(phi_m_batch(sig, um[None])[0])


def phi_m_batch(sig: SignatureM, us: np.ndarray) -> np.ndarray:
    """Normalized characters over a (B, n, n) stack of unitaries.

    Generic spectra go through the bialternant ratio
    det(x_i^(m_j + n - j)) / det(x_i^(n - j)); samples whose eigenvalues
    collide within 1e-9 (a Haar-measure-zero event) switch to the
    division-free Jacobi-Trudi determinant, which has no cancellation at
    coincident points.
    """
    us = np.asarray(us, dtype=complex)
    n = sig.n
    if us.ndim != 3 or us.shape[1:] != (n, n):
        raise InvalidArgumentError(f"expected shape (B, {n}, {n}), got {us.shape}")
    dim = weyl_dim(sig)
    shift = sig.parts[-1]
    shifted = tuple(p - shift for p in sig.parts)
    eigs = np.linalg.eigvals(us)
    if n == 1:
        return (eigs[:, 0] ** sig.parts[0]) / dim
    exps = np.array([shifted[j] + n - 1 - j for j in range(n)])
    num = np.linalg.det(eigs[:, :, None] ** exps[None, None, :])
    den = np.ones(us.shape[0], dtype=complex)
    gap = np.full(us.shape[0], np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            diff = eigs[:, i] - eigs[:, j]
            den *= diff
            gap = np.minimum(gap, np.abs(diff))
    colliding = gap < _COLLISION_TOL
    den = np.where(colliding, 1.0, den)
    out = num / den
    for idx in np.nonzero(colliding)[0]:
        out[idx] = _char_jacobi_trudi(eigs[idx], shifted)
    if shift:
        out = out * np.linalg.det(us) ** shift
    return out / dim


def _poch(a: complex, k: int) -> complex:
    out = 1.0 + 0.0j
    for j in range(k):
        out *= a + j
    return out


def phi_lambda_k(lam: complex, k: int, t: float, n: int) -> complex:
    """One-variable building block of the determinant formula.

    (1 - tanh^2 t)^((lam+n)/2) * ((lam+n)/2)_k / k! * tanh^k t
    * 2F1((lam+n)/2, (lam+n)/2 + k; 1 + k; tanh^2 t).
    """
    if k < 0:
        raise InvalidArgumentError(f"k must be nonnegative, got {k}")
    s = (lam + n) / 2.0
    th = math.tanh(t)
    x = th * th
    if not x < 1.0:  # |t| so large that tanh^2 t rounds to 1, or t NaN
        raise DomainError(f"tanh^2 t must be < 1, got {x} at t={t}")
    pref = np.exp(s * np.log1p(-x)) * _poch(s, k) / math.factorial(k) * th**k
    return complex(pref * hyp2f1_classical(s, s + k, 1 + k, x))


def det_formula_rhs(lam: complex, sig: SignatureM, t: float) -> complex:
    """(1/d_m) * det(phi_{lam, |m_i - i + j|}(t))_{i,j=1..n}.

    The 1/d_m prefactor is forced by the trivial cases: at t = 0 and m = 0
    the determinant is 1 and the boundary integral it represents has total
    mass 1.  (The Andreief reduction of the U(n) integral gives exactly
    det(phi)/d_m; an extra n! would double-count the Weyl-measure factor.)
    """
    n = sig.n
    mat = np.empty((n, n), dtype=complex)
    cache: dict[int, complex] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k = abs(sig.parts[i - 1] - i + j)
            if k not in cache:
                cache[k] = phi_lambda_k(lam, k, t, n)
            mat[i - 1, j - 1] = cache[k]
    return complex(np.linalg.det(mat) / weyl_dim(sig))
