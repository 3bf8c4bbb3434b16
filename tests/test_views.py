"""One implementation per concept: the scalar and single-sample forms are views of the batched ones.

Every comparison here is bitwise, since a view adds no arithmetic of its own.
"""

import json
import math
import warnings

import numpy as np
import pytest

from tubekernels.cli import main
from tubekernels.domains import (
    DomainSpec,
    KernelPoint,
    LineBundleParams,
    casimir_eigenvalue,
    hua_eigenvalue,
    poisson_kernel,
    poisson_kernel_batch,
)
from tubekernels.errors import NonFiniteSampleError, SingularKernelError
from tubekernels.schur import SignatureM, phi_m, phi_m_batch, schur_char, weyl_dim
from tubekernels.shilov import (
    BoundaryFunction,
    _haar_block,
    circle_quadrature,
    haar_unitary,
    mc_integrate,
    mc_integrate_vector,
    philox_generator,
)


def _rng(tag):
    return np.random.Generator(np.random.Philox(key=np.array([11, tag], dtype=np.uint64)))


def _interior(n, rng, radius=0.8):
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return radius * rng.uniform(0.1, 1.0) * w / np.linalg.norm(w, 2)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_kernel_is_the_batch_view(n):
    spec = DomainSpec.disk() if n == 1 else DomainSpec.type_i(n)
    rng = _rng(n)
    for lam, nu in ((0.7, 0), (0.9 + 0.4j, 1), (1.3, -2), (0.2 - 0.5j, 3)):
        params = LineBundleParams(lam=lam, nu=nu)
        z = _interior(n, rng)
        us = np.stack([haar_unitary(n, rng) for _ in range(6)])
        for u in us:
            scalar = poisson_kernel(spec, params, KernelPoint(z, u, spec))
            assert scalar == poisson_kernel_batch(spec, params, z, u[None])[0]


@pytest.mark.parametrize("z", [np.diag([1.0, 0.5]), np.diag([1.2, 0.5]), np.diag([1.2, 1.2]), 2.0 * np.eye(2)])
def test_batch_kernel_rejects_points_off_the_domain(z):
    spec = DomainSpec.type_i(2)
    us = np.stack([haar_unitary(2, _rng(20)) for _ in range(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularKernelError):
            poisson_kernel_batch(spec, LineBundleParams(lam=0.7, nu=1), z, us)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("parts", [(3,), (-2,), (1, 0), (2, -1), (1, 1), (2, 1, 0), (1, 0, -2)])
def test_phi_m_is_the_batch_view(parts):
    sig = SignatureM(parts)
    n = sig.n
    rng = _rng(30 + n)
    samples = [haar_unitary(n, rng) for _ in range(8)] + [np.eye(n, dtype=complex)]
    for u in samples:
        assert phi_m(sig, u) == phi_m_batch(sig, u[None])[0]
        assert schur_char(sig, u) == phi_m(sig, u) * weyl_dim(sig)


def test_batch_collision_branch_at_identity():
    sig = SignatureM((2, 1, 0))
    us = np.stack([np.eye(3, dtype=complex), haar_unitary(3, _rng(40))])
    vals = phi_m_batch(sig, us)
    assert vals[0] == pytest.approx(1.0, rel=1e-10)
    assert vals[1] == phi_m(sig, us[1])


# ---------------------------------------------------------------------------
# Haar sampler and Philox streams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_haar_unitary_is_the_shared_block_draw(n):
    for seed in range(10):
        rng = philox_generator(seed, 3)
        u = haar_unitary(n, rng)
        assert np.array_equal(u, _haar_block(n, seed, 3, 1)[0])
        # same draw, and same stream position after it, as one Ginibre matrix
        # factored on its own
        twin = philox_generator(seed, 3)
        g = (twin.standard_normal((n, n)) + 1j * twin.standard_normal((n, n))) / np.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        assert np.array_equal(u, q * (d / np.abs(d)))
        assert np.array_equal(rng.standard_normal(3), twin.standard_normal(3))


def test_philox_generator_masks_the_seed():
    for seed in (0, 5, 2**63, 2**64 - 1):
        ours = philox_generator(seed, 0xC0C1).standard_normal(4)
        plain = np.random.Generator(np.random.Philox(key=np.array([seed, 0xC0C1], dtype=np.uint64)))
        assert np.array_equal(ours, plain.standard_normal(4))
    assert np.array_equal(philox_generator(-1, 7).standard_normal(4), philox_generator(2**64 - 1, 7).standard_normal(4))


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 3])
def test_mc_integrate_is_the_k1_view(workers):
    f = BoundaryFunction(fn=None, batch=lambda us: np.abs(1 - 0.5 * np.conj(us[:, 0, 0])) ** 2 + us[:, 1, 0])
    samples = 2 * 8192 + 5
    est = mc_integrate(f, 2, samples, seed=17, workers=workers)
    (vec,) = mc_integrate_vector(f.batch, 2, samples, seed=17, workers=workers)
    assert est == vec


def test_circle_quadrature_names_the_non_finite_node():
    def f(u):
        return complex(1.0, math.nan) if abs(u - np.exp(2j * np.pi * 5 / 16)) < 1e-12 else 1.0

    with pytest.raises(NonFiniteSampleError) as err:
        circle_quadrature(f, 16)
    assert err.value.index == 5


# ---------------------------------------------------------------------------
# eigenvalue table
# ---------------------------------------------------------------------------


def test_table_eigenvalues_are_the_library_eigenvalues(capsys):
    code = main(["table", "--n", "3", "--lambda", "0.9+0.4j", "--nu", "2"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert code == 0
    assert len(rows) == 6
    params = LineBundleParams(lam=0.9 + 0.4j, nu=2)
    for row in rows:
        spec = DomainSpec.of(row["kind"], 3)
        for key, fn in (("hua_eigenvalue", hua_eigenvalue), ("casimir_eigenvalue", casimir_eigenvalue)):
            want = fn(spec, params)
            assert complex(row[key]["re"], row[key]["im"]) == want
