"""Each check and formula has one copy: the type-I action, the Pochhammer factor and the
finite-difference step rule; and every argument check is reached, each in the layer that owns it."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from tubekernels import domains
from tubekernels.cli import EXIT_BAD_ARGS, main
from tubekernels.domains import (DomainSpec, KernelPoint, LineBundleParams, cocycle_j, cocycle_residual,
                                 h_covariance_residual, kernel_covariance_residual, moebius_typeI,
                                 poisson_kernel_batch, random_group_element)
from tubekernels.errors import ConvergenceError, InvalidArgumentError, SingularKernelError
from tubekernels.hypergeom import hyp2f1_classical
from tubekernels.partitions import JackParameter, Partition, gen_pochhammer, jack_C_all
from tubekernels.radial import RadialPoint, disk_poisson_value
from tubekernels.schur import SignatureM, phi_lambda_k, phi_m_batch
from tubekernels.shilov import haar_unitary, philox_generator


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_bad_args(capsys, *argv) -> str:
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    return err


def _group_point(n: int = 2, seed: int = 11):
    rng = philox_generator(seed, 5)
    g, g2 = random_group_element(n, rng), random_group_element(n, rng)
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = 0.5 * w / np.linalg.norm(w, 2)
    return g, g2, z, haar_unitary(n, rng)


# ---------------------------------------------------------------------------
# one type-I action: g is checked once per point acted on
# ---------------------------------------------------------------------------


def test_each_residual_checks_g_once_per_action(monkeypatch):
    g, g2, z, u = _group_point()
    spec = DomainSpec.type_i(2)
    calls = []
    blocks = domains._group_blocks

    def spy(m):
        calls.append(m)
        return blocks(m)

    monkeypatch.setattr(domains, "_group_blocks", spy)
    counts = []
    for run in (lambda: cocycle_residual(g, g2, z),
                lambda: h_covariance_residual(spec, g, z, 0.3 * u),
                lambda: kernel_covariance_residual(spec, LineBundleParams(0.9 + 0.2j, 1), g, z, u)):
        calls.clear()
        assert run() < 1e-8
        counts.append(len(calls))
    assert counts == [3, 2, 2]


def test_moebius_and_cocycle_are_the_two_parts_of_one_action_bitwise():
    g, _, z, _ = _group_point(3, seed=4)
    gz, j = domains._act(g, z)
    assert moebius_typeI(g, z).tobytes() == gz.tobytes()
    assert _hex(cocycle_j(g, z)) == _hex(j)


# ---------------------------------------------------------------------------
# one Pochhammer factor: both products keep the bits they had with a copy each
# ---------------------------------------------------------------------------

# (lam, k, t, n) -> hex of (re, im), taken when phi_lambda_k had its own Pochhammer loop
PHI_PINS = [
    ((0.9 + 0.3j, 0, 0.4, 2), ("0x1.19a59ee31b1a2p+0", "0x1.7e786e9021c50p-5")),
    ((0.9, 0, 0.4, 2), ("0x1.1ab96db3fcc42p+0", "0x0.0p+0")),
    ((0.9, 3, 0.4, 2), ("0x1.d7470972d369ap-4", "0x0.0p+0")),
    ((-2.5, 2, 0.3, 1), ("-0x1.0f31aaf966688p-7", "0x0.0p+0")),
    ((0.7 + 0.1j, 5, 0.45, 3), ("0x1.14db59051e84fp-4", "0x1.68043540ddc51p-8")),
    ((-4.0, 4, 0.2, 2), ("0x0.0p+0", "0x0.0p+0")),
    ((1.3 - 0.4j, 12, 0.25, 2), ("0x1.07a5bf4639fefp-22", "-0x1.14991dfd4c626p-23")),
    ((2.0, 1, -0.3, 1), ("-0x1.ceba31e020cefp-2", "0x0.0p+0")),
    ((0.5, 40, 0.6, 3), ("0x1.36e3ebf5de769p-32", "0x0.0p+0")),
    ((complex(-0.0, 0.0), 0, 0.0, 1), ("0x1.0000000000000p+0", "0x0.0p+0")),
    ((0.9 + 0.3j, 170, 0.1, 2), ("0x1.6acd2e3cfe6d7p-563", "0x1.61802485830b5p-563")),
]

# (a, parts, alpha) -> hex, taken when gen_pochhammer wrote the box factor itself
POCH_PINS = [
    ((2.0, (), 1.0), "0x1.0000000000000p+0"),
    ((1.5 + 0.5j, (3,), 1.0), ("0x1.6800000000000p+3", "0x1.1800000000000p+3")),
    ((0.7, (2, 1), 0.5), "-0x1.8c083126e978dp+0"),
    ((-0.0, (1,), 2.0), "0x0.0p+0"),
    ((complex(-2.5, -0.0), (3, 2, 1), 1.0), ("0x1.2750000000000p+6", "-0x0.0p+0")),
    ((3, (4, 2), 0.37), "0x1.15b11640b384bp+7"),
    ((0.3 - 1.1j, (5, 5, 2), 2 / 3), ("-0x1.8b8b72e780376p+10", "-0x1.afd23b328fff2p+12")),
    ((-1.5, (2, 2, 2, 1), 4.0), "-0x1.1b80000000000p+2"),
    ((1e3, (6,), 1.0), "0x1.c2c9d44ba6c2ep+59"),
    ((0.25 + 0.75j, (3, 1), 1.7), ("-0x1.483c3c3c3c3c4p+0", "-0x1.d8f0f0f0f0f10p+0")),
]


def _hex(v):
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex()


@pytest.mark.parametrize("args, pin", PHI_PINS)
def test_phi_lambda_k_is_pinned_bitwise(args, pin):
    assert _hex(phi_lambda_k(*args)) == pin


@pytest.mark.parametrize("args, pin", POCH_PINS)
def test_gen_pochhammer_is_pinned_bitwise(args, pin):
    a, parts, alpha = args
    assert _hex(gen_pochhammer(a, Partition(parts), alpha)) == pin


def test_gen_pochhammer_checks_alpha_even_for_the_empty_partition():
    with pytest.raises(InvalidArgumentError):
        gen_pochhammer(2.0, Partition(()), -1.0)


# ---------------------------------------------------------------------------
# one finite-difference step rule: p +- h must differ from every coordinate p
# ---------------------------------------------------------------------------

ROUNDING_STEPS = [
    (("check-pde", "--r", "1", "--lambda", "0.9", "--t", "0.3", "--fd-step", "1e-20"), (0.3,)),
    (("check-pde", "--r", "2", "--lambda", "0.9", "--t", "0.3,0.7", "--fd-step", "1e-17"), (0.3, 0.7)),
    (("check-casimir-disk", "--lambda", "2", "--z", "0.3,0.1", "--fd-step", "1e-20"), (0.3, 0.1)),
    (("check-x-system", "--r", "1", "--lambda", "0.9", "--x=-0.5", "--fd-step", "1e-20"), (-0.5,)),
]


@pytest.mark.parametrize("argv, centre", ROUNDING_STEPS)
def test_a_step_that_rounds_onto_the_centre_is_a_bad_argument(capsys, argv, centre):
    err = _assert_bad_args(capsys, *argv)
    named = err.split("at least ")[1].split()[0]
    assert named == repr(max(math.ulp(p) for p in centre))
    assert named in ("5.551115123125783e-17", "1.1102230246251565e-16")
    h = float(named)
    assert all(p + h != p and p - h != p for p in centre)


@pytest.mark.parametrize("argv, centre", ROUNDING_STEPS)
def test_a_rerun_at_the_named_step_passes_the_step_rule(capsys, argv, centre):
    err = _assert_bad_args(capsys, *argv)
    named = err.split("at least ")[1].split()[0]
    code, _, err = _run(capsys, *argv[:-1], named)
    assert code != EXIT_BAD_ARGS, err


def test_the_richardson_half_step_goes_through_the_same_rule(capsys):
    # h = 1e-16 moves t = 0.3 (ulp 5.6e-17); h/2 = 5e-17 does not
    err = _assert_bad_args(capsys, "check-pde", "--r", "1", "--lambda", "0.9", "--t", "0.3",
                           "--fd-step", "1e-16", "--richardson")
    assert "got 5e-17" in err


# ---------------------------------------------------------------------------
# rejection branches, each reached once
# ---------------------------------------------------------------------------


def test_schur_signature_of_the_wrong_length_exits_3(capsys):
    err = _assert_bad_args(capsys, "check-schur-det", "--n", "3", "--sig", "1,0", "--lambda", "0.7", "--t", "0.4")
    assert "signature length 2 must equal n=3" in err


def test_suite_entry_that_runs_a_suite_exits_3(capsys, tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": [{"command": "suite", "config": str(path)}]}))
    err = _assert_bad_args(capsys, "suite", "--config", str(path))
    assert "unknown command 'suite'" in err


def test_hua_integral_with_too_few_torus_coordinates_is_rejected_by_the_rank_check(capsys):
    err = _assert_bad_args(capsys, "check-hua-integral", "--domain", "typeI", "--n", "2", "--lambda", "0.9",
                           "--t", "0.3")
    assert "point has rank 1, params have rank 2" in err


@pytest.mark.parametrize("fields, message", [
    (dict(rank=0, multiplicity=2.0, eta=1.0, genus=2.0), "rank must be >= 1"),
    (dict(rank=2, multiplicity=2.0, eta=2.0, genus=5.0), "genus"),
])
def test_domain_spec_built_directly_checks_rank_and_genus(fields, message):
    with pytest.raises(InvalidArgumentError, match=message):
        DomainSpec(kind="typeI", matrix_size=2, **fields)


def test_type_i_of_size_0_is_rejected_by_the_catalog_rank_rule():
    with pytest.raises(InvalidArgumentError, match="rank must be >= 1, got 0"):
        DomainSpec.type_i(0)


def test_kernel_point_checks_the_sizes():
    with pytest.raises(InvalidArgumentError, match="equal size"):
        KernelPoint(np.zeros((2, 2)), np.eye(3))
    with pytest.raises(InvalidArgumentError, match="does not match domain size"):
        KernelPoint(np.zeros((2, 2)), np.eye(2), DomainSpec.type_i(3))


def test_poisson_kernel_batch_checks_the_shape_of_the_stack():
    with pytest.raises(InvalidArgumentError, match="u_batch"):
        poisson_kernel_batch(DomainSpec.type_i(2), LineBundleParams(0.9, 0), np.zeros((2, 2)), np.eye(2))


def test_moebius_rejects_a_group_element_of_odd_size():
    with pytest.raises(InvalidArgumentError, match="2n x 2n"):
        moebius_typeI(np.eye(3), np.zeros((1, 1)))


def test_disk_poisson_value_off_the_disk_is_rejected_by_the_kernel():
    with pytest.raises(SingularKernelError):
        disk_poisson_value(0.9, 1.2)


def test_phi_m_batch_checks_the_shape_of_the_stack():
    with pytest.raises(InvalidArgumentError, match="expected shape"):
        phi_m_batch(SignatureM((1, 0)), np.eye(2))


def test_phi_lambda_k_checks_its_range_of_k():
    with pytest.raises(InvalidArgumentError, match="0..170"):
        phi_lambda_k(0.9, 171, 0.4, 2)


def test_haar_unitary_of_size_0_is_rejected():
    with pytest.raises(InvalidArgumentError, match="n must be >= 1"):
        haar_unitary(0, philox_generator(1, 0))


def test_jack_table_of_negative_degree_is_rejected():
    with pytest.raises(InvalidArgumentError, match="kmax must be nonnegative"):
        jack_C_all(1.0, (0.3, 0.2), -1)


def test_jack_parameter_of_multiplicity_0_is_rejected():
    with pytest.raises(InvalidArgumentError, match="multiplicity must be positive"):
        JackParameter.from_multiplicity(0)


def test_radial_point_rejects_nan():
    with pytest.raises(InvalidArgumentError, match="finite"):
        RadialPoint((math.nan,))


def test_classical_series_that_does_not_reach_its_tail_raises():
    with pytest.raises(ConvergenceError):
        hyp2f1_classical(1, 1, 1, 0.99999)
