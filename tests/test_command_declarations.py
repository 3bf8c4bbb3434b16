"""Each command is declared once, beside its runner; a Monte Carlo sample count past
``shilov.MAX_SAMPLES`` is refused before any block is drawn; and two public error
paths that no other test reaches in-process."""

import numpy as np
import pytest

from tubekernels import cli, shilov
from tubekernels.cli import EXIT_BAD_ARGS, EXIT_NO_CONVERGENCE, main
from tubekernels.domains import DomainSpec, LineBundleParams, poisson_kernel_batch
from tubekernels.errors import NonFiniteResultError, SingularKernelError
from tubekernels.schur import SignatureM, det_formula_rhs, phi_lambda_k

COMMANDS = ["eval-2f1", "eval-spherical", "check-hua-integral", "check-schur-det", "check-pde", "check-x-system",
            "check-casimir-disk", "check-covariance", "table", "suite"]


def test_the_schema_and_the_runners_list_the_same_commands_in_declaration_order():
    assert list(cli._SCHEMA) == COMMANDS
    assert list(cli._RUNNERS) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_each_runner_is_the_module_function_named_after_its_command(command):
    assert cli._RUNNERS[command] is getattr(cli, "run_" + command.replace("-", "_"))


MC_ARGV = {
    "check-hua-integral": ["check-hua-integral", "--domain", "typeI", "--n", "2", "--lambda", "0.7",
                           "--t", "0.2,0.5"],
    "check-schur-det": ["check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "0.5", "--t", "0.4"],
}


@pytest.mark.parametrize("samples", [shilov.MAX_SAMPLES + 1, 10**13])
@pytest.mark.parametrize("command", sorted(MC_ARGV))
def test_too_many_samples_exit_3_before_any_block_is_drawn(command, samples, monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr(shilov, "_haar_block", lambda *args: drawn.append(args))
    code = main(MC_ARGV[command] + ["--samples", str(samples)])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_ARGS
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0] == f"error: need 2 to {shilov.MAX_SAMPLES} samples, got {samples}"
    assert drawn == []


class _FirstBlock(Exception):
    pass


def test_the_largest_sample_count_is_accepted_and_reaches_the_first_block(monkeypatch):
    def first_block(n, seed, block_index, count):
        raise _FirstBlock(block_index, count)

    monkeypatch.setattr(shilov, "_haar_block", first_block)
    with pytest.raises(_FirstBlock) as info:
        shilov.mc_integrate_vector(lambda us: us[:, 0, 0], 2, shilov.MAX_SAMPLES, 1)
    assert info.value.args == (0, shilov.BLOCK)


def test_the_kernel_batch_refuses_a_boundary_point_where_h_vanishes():
    # z = I/2 is interior, and h(I/2, 2I) = det(I - I) = 0; the batch does not check that u is unitary
    spec, params = DomainSpec.type_i(2), LineBundleParams(lam=0.7, nu=1)
    with pytest.raises(SingularKernelError, match=r"^h\(z, u\) = 0"):
        poisson_kernel_batch(spec, params, 0.5 * np.eye(2), (2 * np.eye(2))[None])


def test_a_non_finite_determinant_of_finite_entries_exits_2_before_sampling(monkeypatch, capsys):
    assert all(np.isfinite(phi_lambda_k(-300, k, 2.0, 2)) for k in range(3))  # the entries at sig (1, 0)
    with pytest.raises(NonFiniteResultError, match=r"non-finite at lambda = -300, t = 2\.0$"):
        det_formula_rhs(-300, SignatureM((1, 0)), 2.0)
    drawn = []
    monkeypatch.setattr(shilov, "_haar_block", lambda *args: drawn.append(args))
    code = main(["check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "-300", "--t", "2.0"])
    captured = capsys.readouterr()
    assert code == EXIT_NO_CONVERGENCE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith("non-finite at lambda = (-300+0j), t = 2.0")
    assert drawn == []
