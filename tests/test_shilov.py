"""Tests for Haar sampling, the Monte Carlo engine, and boundary integrals."""

import math

import numpy as np
import pytest

from tubekernels.domains import DomainSpec, LineBundleParams
from tubekernels.errors import InvalidArgumentError, NonFiniteSampleError
from tubekernels.hypergeom import hyp2f1_classical
from tubekernels.shilov import (
    BLOCK,
    BoundaryFunction,
    McEstimate,
    circle_quadrature,
    haar_unitary,
    mc_integrate,
    mc_integrate_vector,
    poisson_transform,
)


def _rng(tag=0):
    return np.random.Generator(np.random.Philox(key=np.array([7, tag], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def test_haar_n1_is_uniform_phase():
    rng = _rng(1)
    vals = np.array([haar_unitary(1, rng)[0, 0] for _ in range(4000)])
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-14
    # first two circular moments vanish for the uniform phase
    assert abs(vals.mean()) < 4 / math.sqrt(4000)
    assert abs((vals**2).mean()) < 4 / math.sqrt(4000)


def test_haar_samples_are_unitary():
    rng = _rng(2)
    for n in (1, 2, 3, 5):
        u = haar_unitary(n, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 1e-12


def test_blocked_haar_samples_are_unitary():
    from tubekernels.shilov import _haar_block

    for n in (2, 3):
        us = _haar_block(n, seed=1, block_index=5, count=500)
        defect = np.max(np.abs(np.einsum("bij,bkj->bik", us, us.conj()) - np.eye(n)))
        assert defect <= 1e-12


def test_haar_first_moment_and_entry_variance():
    # E u_11 conj(u_11) = 1/n and E trace(u) = 0, 4-sigma gates
    f = BoundaryFunction(fn=None, tag="|u11|^2", batch=lambda us: np.abs(us[:, 0, 0]) ** 2)
    est = mc_integrate(f, 2, 200_000, seed=5)
    assert abs(est.mean - 0.5) <= 4 * est.stderr
    ftr = BoundaryFunction(fn=None, tag="tr", batch=lambda us: np.trace(us, axis1=1, axis2=2))
    est = mc_integrate(ftr, 2, 100_000, seed=6)
    assert abs(est.mean) <= 4 * est.stderr


def test_haar_left_right_invariance_moments():
    # fixed v: moments of v u and u v agree within the combined 4-sigma band
    rng = _rng(3)
    v = haar_unitary(2, rng)

    def moments(transform):
        def batch(us):
            tus = transform(us)
            return np.abs(tus[:, 0, 1]) ** 2 + tus[:, 0, 0]

        return mc_integrate(BoundaryFunction(fn=None, batch=batch), 2, 150_000, seed=8)

    left = moments(lambda us: np.einsum("ij,bjk->bik", v, us))
    right = moments(lambda us: np.einsum("bij,jk->bik", us, v))
    band = 4 * math.hypot(left.stderr, right.stderr)
    assert abs(left.mean - right.mean) <= band


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


def test_constant_integrand():
    f = BoundaryFunction(fn=lambda u: 1.0, batch=lambda us: np.ones(us.shape[0]))
    est = mc_integrate(f, 2, 1000, seed=1)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.samples == 1000


def test_jordan_second_moment_value():
    # E |det(I - z u*)|^2 at z = diag(0.5, 0) is 1 + 0.25 * E|u_11|^2 = 1.125
    f = BoundaryFunction(
        fn=lambda u: abs(1 - 0.5 * np.conj(u[0, 0])) ** 2,
        batch=lambda us: np.abs(1 - 0.5 * np.conj(us[:, 0, 0])) ** 2,
    )
    est = mc_integrate(f, 2, 300_000, seed=2)
    assert abs(est.mean - 1.125) <= 4 * est.stderr
    assert est.stderr < 2e-3


def test_scalar_and_batch_paths_agree():
    # same samples either way; values agree to rounding (numpy's vectorized
    # complex arithmetic may differ from the scalar path in the last ulp)
    fb = BoundaryFunction(fn=None, batch=lambda us: us[:, 0, 0] * us[:, 1, 1])
    fs = BoundaryFunction(fn=lambda u: u[0, 0] * u[1, 1])
    eb = mc_integrate(fb, 2, 3000, seed=3)
    es = mc_integrate(fs, 2, 3000, seed=3)
    assert eb.mean == pytest.approx(es.mean, abs=1e-14)
    assert eb.stderr == pytest.approx(es.stderr, abs=1e-14)


def test_determinism_across_worker_counts():
    f = BoundaryFunction(fn=None, batch=lambda us: np.abs(1 - 0.5 * np.conj(us[:, 0, 0])) ** 2)
    # span several blocks so the merge order matters
    n_samples = 3 * BLOCK + 17
    e1 = mc_integrate(f, 2, n_samples, seed=9, workers=1)
    e3 = mc_integrate(f, 2, n_samples, seed=9, workers=3)
    e5 = mc_integrate(f, 2, n_samples, seed=9, workers=5)
    assert e1.mean == e3.mean == e5.mean
    assert e1.stderr == e3.stderr == e5.stderr


def test_vector_integrands_share_samples():
    def batch(us):
        a = np.abs(us[:, 0, 0]) ** 2
        return np.stack([a, 2.0 * a], axis=1)

    ests = mc_integrate_vector(batch, 2, 20_000, seed=4)
    assert len(ests) == 2
    assert ests[1].mean == pytest.approx(2.0 * ests[0].mean, rel=1e-15)
    assert ests[1].stderr == pytest.approx(2.0 * ests[0].stderr, rel=1e-15)


def test_component_does_not_depend_on_its_neighbours():
    # K = 1 and K = 3 give component 0 the same bits, over several blocks
    def first(us):
        return us[:, 0, 0] * np.conj(us[:, 1, 1]) + 0.3 * us[:, 0, 1]

    def stacked(us):
        return np.stack([first(us), np.abs(us[:, 1, 0]) ** 2, us[:, 1, 1] ** 3], axis=1)

    for seed in range(4):
        alone = mc_integrate_vector(first, 2, 2 * BLOCK + 101, seed=seed)[0]
        beside = mc_integrate_vector(stacked, 2, 2 * BLOCK + 101, seed=seed)[0]
        assert alone.mean == beside.mean
        assert alone.stderr == beside.stderr


def test_non_finite_sample_reports_index():
    counter = {"i": -1}

    def bad(u):
        counter["i"] += 1
        return math.nan if counter["i"] == 7 else 1.0

    with pytest.raises(NonFiniteSampleError) as err:
        mc_integrate(BoundaryFunction(fn=bad), 2, 64, seed=1)
    assert err.value.index == 7


def test_sample_count_validation():
    f = BoundaryFunction(fn=lambda u: 1.0)
    with pytest.raises(InvalidArgumentError):
        mc_integrate(f, 2, 1, seed=1)


def test_z_score():
    est = McEstimate(mean=1.0 + 0.0j, stderr=0.1, samples=100)
    assert est.z_score(1.2) == pytest.approx(2.0)
    exact = McEstimate(mean=1.0 + 0.0j, stderr=0.0, samples=100)
    assert exact.z_score(1.0) == 0.0


# ---------------------------------------------------------------------------
# Circle quadrature
# ---------------------------------------------------------------------------


def test_quadrature_constant_and_oscillation():
    assert circle_quadrature(lambda u: 1.0, 64) == 1.0
    assert abs(circle_quadrature(lambda u: u**3, 64)) <= 1e-14
    assert abs(circle_quadrature(lambda u: u ** (-2), 64)) <= 1e-14


def test_quadrature_poisson_kernel_value():
    # geometric series: mean of 1/|1 - 0.5 u|^2 = 1/(1 - 0.25)
    val = circle_quadrature(lambda u: 1.0 / abs(1.0 - 0.5 * u) ** 2, 512)
    assert abs(val - 4.0 / 3.0) <= 1e-12


def test_quadrature_node_halving_stability():
    f = lambda u: 1.0 / abs(1.0 - 0.5 * u) ** 2
    v512 = circle_quadrature(f, 512)
    v256 = circle_quadrature(f, 256)
    assert abs(v512 - v256) < 1e-10


def test_quadrature_node_floor():
    with pytest.raises(InvalidArgumentError):
        circle_quadrature(lambda u: 1.0, 4)


# ---------------------------------------------------------------------------
# Poisson transform
# ---------------------------------------------------------------------------


def test_transform_at_origin_reduces_to_plain_average():
    spec = DomainSpec.type_i(2)
    params = LineBundleParams(lam=0.9, nu=1)
    f = BoundaryFunction(fn=None, batch=lambda us: np.abs(us[:, 0, 0]) ** 2)
    est = poisson_transform(spec, params, f, np.zeros((2, 2)), 100_000, seed=12)
    plain = mc_integrate(f, 2, 100_000, seed=12)
    assert est.mean == pytest.approx(plain.mean, rel=1e-13)


def test_transform_disk_matches_classical_series():
    # closed form: (1-x)^((lam+1-nu)/2) 2F1((lam+1-nu)/2, (lam+1+nu)/2; 1; x), x = z^2
    lam, nu, z = 0.8, 1, 0.5
    spec = DomainSpec.disk()
    one = BoundaryFunction(fn=lambda u: 1.0)
    est = poisson_transform(spec, LineBundleParams(lam=lam, nu=nu), one, z, 0, seed=0)
    x = z * z
    s = (lam + 1 - nu) / 2.0
    want = (1 - x) ** s * hyp2f1_classical(s, (lam + 1 + nu) / 2.0, 1.0, x)
    assert est.stderr == 0.0
    assert abs(est.mean - want) <= 1e-10
