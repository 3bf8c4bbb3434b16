"""One characteristic-polynomial helper feeds the Poisson kernel, the Schur integrand and the characters.

h(z, u) = det(I - z u*) is sum_k (-1)^k e_k(z u*), with e_k from power traces
and Newton's identities; the Monte Carlo path makes no determinant call on
I - z u*, and the Haar draw is bitwise what it was.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from tubekernels.cli import main
from tubekernels.domains import DomainSpec, _h_batch, char_poly_coeffs, jordan_h
from tubekernels.schur import SignatureM, phi_m_batch
from tubekernels.shilov import BLOCK, _ginibre, _haar_block, philox_generator


def _rng(tag):
    return np.random.Generator(np.random.Philox(key=np.array([23, tag], dtype=np.uint64)))


def _points(n, rng):
    """Diagonal z = diag(tanh t) with t up to 3, and non-diagonal z of the same norms."""
    for t_max in (0.3, 1.0, 2.0, 3.0):
        t = rng.uniform(0.0, t_max, n)
        t[0] = t_max
        yield np.diag(np.tanh(t)).astype(complex)
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        yield math.tanh(t_max) * w / np.linalg.norm(w, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_h_from_the_coefficients_matches_the_determinant(n):
    rng = _rng(n)
    us = _haar_block(n, 5, n, 2000)
    worst = 0.0
    for z in _points(n, rng):
        want = np.linalg.det(np.eye(n) - np.einsum("ij,bkj->bik", z, us.conj()))
        got = _h_batch(z, us)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
        alt = sum((-1) ** k * e for k, e in enumerate(char_poly_coeffs(z @ us.conj().transpose(0, 2, 1))))
        assert np.allclose(alt, want, rtol=1e-11, atol=0.0)
        spec = DomainSpec.disk() if n == 1 else DomainSpec.type_i(n)
        assert jordan_h(spec, z, us[0]) == got[0]
    assert worst <= 1e-11


@pytest.mark.parametrize("n", [1, 2, 3])
def test_h_at_a_scalar_point_is_the_conjugate_coefficient_sum(n):
    us = _haar_block(n, 9, 0, 500)
    e = char_poly_coeffs(us)
    for t in (0.1, 0.8, 3.0):
        tau = math.tanh(t)
        got = sum((-tau) ** k * e[k].conj() for k in range(n + 1))
        want = np.linalg.det(np.eye(n) - tau * us.conj().transpose(0, 2, 1))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


@pytest.mark.parametrize("parts", [(2, 0), (1, -1), (2, 1, 0), (3, 1, 0, -1), (2, 2, 1, 0, 0)])
def test_phi_m_batch_with_passed_coefficients_is_bitwise_the_same(parts):
    sig = SignatureM(parts)
    us = _haar_block(sig.n, 3, 1, 64)
    assert np.array_equal(phi_m_batch(sig, us, coeffs=char_poly_coeffs(us)), phi_m_batch(sig, us))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("count", [1, BLOCK])
def test_ginibre_buffer_is_bitwise_the_old_formula(n, count):
    for seed in (0, 7, 2**64 - 1):
        got = _ginibre(philox_generator(seed, 4), n, count)
        twin = philox_generator(seed, 4)
        want = (twin.standard_normal((count, n, n)) + 1j * twin.standard_normal((count, n, n))) / np.sqrt(2.0)
        assert got.tobytes() == want.tobytes()


def _det_spy(monkeypatch):
    calls = []
    det = np.linalg.det

    def spy(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", spy)
    return calls


def test_schur_det_makes_one_determinant_call_per_block(monkeypatch, capsys):
    calls = _det_spy(monkeypatch)
    samples = 3 * BLOCK + 5
    code = main(["check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "0.5", "--t", "0.4",
                 "--samples", str(samples)])
    capsys.readouterr()
    assert code == 0
    stacks = [s for s in calls if len(s) == 3]
    # the Jacobi-Trudi stack of each block, and the 2 x 2 matrix of the closed form
    assert stacks == [(BLOCK, 2, 2)] * 3 + [(5, 2, 2)]
    assert [s for s in calls if len(s) != 3] == [(2, 2)]


def test_type_i_hua_integral_makes_no_determinant_call(monkeypatch, capsys):
    calls = _det_spy(monkeypatch)
    code = main(["check-hua-integral", "--domain", "typeI", "--n", "2", "--lambda", "0.7", "--t", "0.3,0.5",
                 "--samples", str(2 * BLOCK)])
    capsys.readouterr()
    assert code == 0
    assert calls == []


def test_importing_the_cli_does_not_import_scipy():
    code = "import sys, tubekernels.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0
