"""Schur characters on U(n), Weyl dimensions, and the determinant-side formulas.

phi_m is the normalized character s_m(u) / d_m, so phi_m(identity) = 1 and
|phi_m| <= 1.  It is computed from traces of powers of u alone, through the
characteristic polynomial (the helper shared with the Poisson kernel's
h(z, u)) and the Jacobi-Trudi determinant, with no eigenvalue decomposition
and no division by eigenvalue gaps.  Signatures may
have negative parts; those are folded out through s_m = det(u)^(m_n)
s_(m - m_n), with det(u) the top coefficient of the characteristic polynomial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .domains import _as_matrix, _check_unitary, char_poly_coeffs
from .errors import DomainError, InvalidArgumentError, NonFiniteResultError
from .hypergeom import hyp2f1_classical
from .partitions import Partition, gen_pochhammer

__all__ = [
    "SignatureM",
    "weyl_dim",
    "schur_char",
    "phi_m",
    "phi_m_batch",
    "phi_lambda_k",
    "det_formula_rhs",
]

_MAX_K = 170  # the largest k whose k! is a float; phi_(lambda, k) divides by it


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
    """Dimension prod_{i<j} (m_i - m_j + j - i) / (j - i), an exact integer quotient."""
    m, pairs = sig.parts, [(i, j) for j in range(sig.n) for i in range(j)]
    return math.prod(m[i] - m[j] + j - i for i, j in pairs) // math.prod(j - i for i, j in pairs)


def schur_char(sig: SignatureM, u) -> complex:
    """Character value s_m(u) of a unitary u: weyl_dim times :func:`phi_m`."""
    return phi_m(sig, u) * weyl_dim(sig)


def phi_m(sig: SignatureM, u) -> complex:
    """Normalized character schur_char / weyl_dim (zonal-type, phi_m(I) = 1) of one
    unitary: the one-matrix view of :func:`phi_m_batch`."""
    um = _as_matrix(u, sig.n)
    _check_unitary(um)
    return complex(phi_m_batch(sig, um[None])[0])


def phi_m_batch(sig: SignatureM, us: np.ndarray, *, coeffs: list[np.ndarray] | None = None) -> np.ndarray:
    """Normalized characters over a (B, n, n) stack of unitaries, from traces alone.

    The coefficients e_k of the characteristic polynomial come from
    :func:`~tubekernels.domains.char_poly_coeffs` (power traces and Newton's
    identities), the same helper that gives the Jordan polynomial h(z, u) of
    the Poisson kernel; ``coeffs`` passes them already computed on ``us``.
    They give the complete symmetric functions by h_k = sum_i (-1)^(i-1) e_i
    h_(k-i), and the character is the Jacobi-Trudi determinant
    det(h_(m_i - i + j)) times e_n^(m_n) = det(u)^(m_n) (Macdonald, Symmetric
    Functions and Hall Polynomials, I.2-3).  No eigenvalue is computed and
    nothing is divided by an eigenvalue gap, so coincident eigenvalues need no
    special case.
    """
    us = np.asarray(us, dtype=complex)
    n = sig.n
    if us.ndim != 3 or us.shape[1:] != (n, n):
        raise InvalidArgumentError(f"expected shape (B, {n}, {n}), got {us.shape}")
    shift = sig.parts[-1]
    shifted = [p - shift for p in sig.parts]
    top = shifted[0] + n - 1
    e = char_poly_coeffs(us) if coeffs is None else coeffs
    h = [e[0]]
    for k in range(1, top + 1):
        h.append(sum((-1) ** (i - 1) * e[i] * h[k - i] for i in range(1, min(k, n) + 1)))
    jt = np.zeros_like(us)
    for i in range(n):
        for j in range(n):
            k = shifted[i] - i + j
            if k >= 0:
                jt[:, i, j] = h[k]
    out = np.linalg.det(jt)
    if shift:
        out = out * e[n] ** shift
    return out / weyl_dim(sig)


def phi_lambda_k(lam: complex, k: int, t: float, n: int) -> complex:
    """One-variable building block of the determinant formula.

    (1 - tanh^2 t)^((lam+n)/2) * ((lam+n)/2)_k / k! * tanh^k t
    * 2F1((lam+n)/2, (lam+n)/2 + k; 1 + k; tanh^2 t); non-finite raises NonFiniteResultError.
    k runs from 0 to 170, the largest k whose k! is a float.
    """
    if not 0 <= k <= _MAX_K:
        raise InvalidArgumentError(f"k must be in 0..{_MAX_K}, got {k}")
    s = (lam + n) / 2.0
    th = math.tanh(t)
    x = th * th
    if not x < 1.0:  # |t| so large that tanh^2 t rounds to 1, or t NaN
        raise DomainError(f"tanh^2 t must be < 1, got {x} at t={t}")
    series = hyp2f1_classical(s, s + k, 1 + k, x)  # before the prefactor: a huge |lam| stops here, with no warning
    with np.errstate(all="ignore"):  # a value NumPy would warn about is non-finite, and rejected next
        # a complex base: (s)_k stays complex at a real lambda, so k! divides it as a complex value
        poch = gen_pochhammer(complex(s), Partition((k,)), 1.0)
        out = complex(np.exp(s * np.log1p(-x)) * poch / math.factorial(k) * th**k * series)
    if not cmath.isfinite(out):
        raise NonFiniteResultError(f"the determinant formula is non-finite: phi_(lambda, k)(t) = {out} at "
                                   f"lambda = {lam}, k = {k}, t = {t}")
    return out


def det_formula_rhs(lam: complex, sig: SignatureM, t: float) -> complex:
    """(1/d_m) * det(phi_{lam, |m_i - i + j|}(t))_{i,j=1..n}.

    The 1/d_m prefactor is forced by the trivial cases: at t = 0 and m = 0
    the determinant is 1 and the boundary integral it represents has total
    mass 1.  (The Andreief reduction of the U(n) integral gives exactly
    det(phi)/d_m; an extra n! would double-count the Weyl-measure factor.)
    A non-finite value (an overflowing prefactor at a large |lam|) raises
    NonFiniteResultError.  The entries need k = |m_i - i + j| <= 170, so
    m_1 <= 171 - n and m_n >= n - 171; a part past them is a bad argument.
    """
    n = sig.n
    first, last = sig.parts[0], sig.parts[-1]
    if first + n - 1 > _MAX_K:
        raise InvalidArgumentError(f"signature part m_1 = {first} is out of range at n = {n}; "
                                   f"the largest m_1 accepted there is {_MAX_K + 1 - n}")
    if n - 1 - last > _MAX_K:
        raise InvalidArgumentError(f"signature part m_{n} = {last} is out of range at n = {n}; "
                                   f"the smallest m_{n} accepted there is {n - 1 - _MAX_K}")
    mat = np.empty((n, n), dtype=complex)
    cache: dict[int, complex] = {}
    with np.errstate(all="ignore"):  # a value NumPy would warn about is non-finite, and rejected next
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                k = abs(sig.parts[i - 1] - i + j)
                if k not in cache:
                    cache[k] = phi_lambda_k(lam, k, t, n)
                mat[i - 1, j - 1] = cache[k]
        out = complex(np.linalg.det(mat) / weyl_dim(sig))
    if not cmath.isfinite(out):
        raise NonFiniteResultError(f"the determinant formula is non-finite at lambda = {lam}, t = {t}")
    return out
