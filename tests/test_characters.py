"""The normalized character phi_m_batch: traces, Newton's identities and Jacobi-Trudi.

The oracle is the bialternant det(x_i^(m_j + n - j)) / det(x_i^(n - j)) on
the eigenvalues, written here and used only on Haar samples, whose spectra
are separated almost surely.  Exact collisions are checked against closed
forms instead.
"""

import cmath

import numpy as np
import pytest

from tubekernels.cli import EXIT_PASS, main
from tubekernels.schur import SignatureM, phi_m, phi_m_batch, schur_char, weyl_dim
from tubekernels.shilov import _haar_block, haar_unitary

SIGNATURES = {
    1: [(0,), (1,), (4,), (-1,), (-3,)],
    2: [(0, 0), (1, 0), (2, 0), (1, 1), (3, 1), (0, -1), (2, -1), (-1, -3)],
    3: [(0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 1, 1), (3, 1, -1), (0, 0, -2), (1, -1, -2)],
    4: [(1, 0, 0, 0), (2, 1, 1, 0), (1, 0, 0, -1), (3, 2, -1, -2)],
    5: [(1, 0, 0, 0, 0), (2, 1, 0, 0, -1), (1, 1, 0, -1, -1), (3, 1, 0, -2, -2)],
}
CASES = [(n, parts) for n, sigs in SIGNATURES.items() for parts in sigs]


def _bialternant(parts, us):
    """Normalized character on the eigenvalues: the Vandermonde quotient, times det(u)^(m_n)."""
    n = len(parts)
    shift = parts[-1]
    eigs = np.linalg.eigvals(us)
    num = np.linalg.det(eigs[:, :, None] ** np.array([parts[j] - shift + n - 1 - j for j in range(n)]))
    den = np.linalg.det(eigs[:, :, None] ** np.arange(n - 1, -1, -1))
    return num / den * np.prod(eigs, axis=1) ** shift / weyl_dim(SignatureM(parts))


@pytest.mark.parametrize("n, parts", CASES)
def test_matches_the_eigenvalue_bialternant(n, parts):
    us = _haar_block(n, 17, n, 400)
    got = phi_m_batch(SignatureM(parts), us)
    assert np.max(np.abs(got - _bialternant(parts, us))) <= 1e-12


@pytest.mark.parametrize("n, parts", CASES)
def test_bounded_by_one(n, parts):
    us = _haar_block(n, 23, n, 400)
    assert np.max(np.abs(phi_m_batch(SignatureM(parts), us))) <= 1.0 + 1e-12


@pytest.mark.parametrize("n, parts", CASES)
def test_scalar_matrices(n, parts):
    # s_m(c, ..., c) = c^|m| d_m, so phi_m(c I) = c^|m|; c = 1 is the identity, c = i gives diag(i, i) at n = 2
    sig = SignatureM(parts)
    for c in (1.0, 1j, -1.0, cmath.exp(0.7j)):
        u = c * np.eye(n, dtype=complex)
        assert abs(phi_m(sig, u) - c ** sum(parts)) <= 1e-12
    assert abs(schur_char(sig, np.eye(n, dtype=complex)) - weyl_dim(sig)) <= 1e-12 * weyl_dim(sig)


# s_m(1, 1, -1) by hand: h_k = floor(k/2) + 1, e_1 = 1, e_2 = -1, e_3 = -1
_AT_1_1_MINUS_1 = {(1, 0, 0): 1, (2, 0, 0): 2, (1, 1, 0): -1, (1, 1, 1): -1, (2, 1, 0): 0, (0, 0, -1): 1, (1, 0, -1): 0}


@pytest.mark.parametrize("parts, value", sorted(_AT_1_1_MINUS_1.items()))
def test_repeated_eigenvalue_closed_forms(parts, value):
    sig = SignatureM(parts)
    v = haar_unitary(3, np.random.Generator(np.random.Philox(key=np.array([29, 0], dtype=np.uint64))))
    d = np.diag([1.0, 1.0, -1.0]).astype(complex)
    # a class function: the diagonal and a Haar conjugate of it agree
    vals = phi_m_batch(sig, np.stack([d, v @ d @ v.conj().T]))
    assert np.max(np.abs(vals - value / weyl_dim(sig))) <= 1e-12


def test_no_eigenvalue_call(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    seen = []
    det = np.linalg.det

    def spy(a):
        seen.append(a)
        return det(a)

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    us = _haar_block(3, 5, 0, 64)
    monkeypatch.setattr(np.linalg, "det", spy)
    phi_m_batch(SignatureM((2, 0, -1)), us)
    assert seen and all(a is not us and a.shape == us.shape and not np.array_equal(a, us) for a in seen)
    monkeypatch.setattr(np.linalg, "det", det)
    argv = ["check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "0.5", "--t", "0.4", "--samples", "20000"]
    assert main(argv) == EXIT_PASS
    assert "h_squared" in capsys.readouterr().out
