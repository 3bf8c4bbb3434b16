"""Tests for the command-line front end: parsing, reports, exit codes."""

import argparse
import json

import pytest

from tubekernels import cli
from tubekernels.cli import (
    EXIT_BAD_ARGS,
    EXIT_FAIL,
    EXIT_NO_CONVERGENCE,
    EXIT_PASS,
    main,
    render_report,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# eval commands
# ---------------------------------------------------------------------------


def test_eval_2f1_trivial(capsys):
    code, rep = run_json(capsys, "eval-2f1", "--a", "0.5", "--b", "0.5", "--c", "1", "--m", "2", "--x", "0,0")
    assert code == EXIT_PASS
    assert rep["lhs"]["value"] == {"re": 1.0, "im": 0.0}
    assert rep["pass"] is True
    assert rep["command"] == "eval-2f1"


def test_eval_2f1_binomial(capsys):
    code, rep = run_json(
        capsys, "eval-2f1", "--a", "0.7", "--b", "1.3", "--c", "1.3", "--m", "2", "--x", "0.1,0.2",
        "--kmax", "60", "--tol", "1e-14",
    )
    assert code == EXIT_PASS
    want = (0.9 * 0.8) ** (-0.7)
    assert abs(rep["lhs"]["value"]["re"] - want) <= 1e-8 * want


def test_eval_2f1_nonconvergent_exits_2(capsys):
    code, rep = run_json(capsys, "eval-2f1", "--a", "0.5", "--b", "0.9", "--c", "1.4", "--x", "0.99")
    assert code == EXIT_NO_CONVERGENCE
    assert rep["converged"] is False


def test_eval_spherical(capsys):
    code, rep = run_json(
        capsys, "eval-spherical", "--r", "2", "--m", "2", "--lambda", "0.9+0.3j", "--nu", "1", "--t", "0.3,0.6"
    )
    assert code == EXIT_PASS
    code, rep2 = run_json(
        capsys, "eval-spherical", "--r", "2", "--m", "2", "--lambda", "0.9+0.3j", "--nu", "1",
        "--t", "0.3,0.6", "--xform",
    )
    assert code == EXIT_PASS
    assert rep["lhs"]["value"]["re"] == pytest.approx(rep2["lhs"]["value"]["re"], rel=1e-7)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def test_check_hua_integral_disk(capsys):
    code, rep = run_json(
        capsys, "check-hua-integral", "--domain", "disk", "--lambda", "0.8", "--nu", "1", "--t", "0.5"
    )
    assert code == EXIT_PASS
    assert rep["pass"] is True
    assert rep["abs_diff"] <= 1e-8
    assert rep["lhs"]["stderr"] == 0.0


def test_check_hua_integral_at_zero(capsys):
    code, rep = run_json(
        capsys, "check-hua-integral", "--domain", "disk", "--lambda", "0.8", "--nu", "1", "--t", "0"
    )
    assert code == EXIT_PASS
    assert rep["lhs"]["mean"] == {"re": 1.0, "im": 0.0}
    assert rep["rhs"] == {"re": 1.0, "im": 0.0}


def test_check_hua_integral_typeI(capsys):
    code, rep = run_json(
        capsys, "check-hua-integral", "--domain", "typeI", "--n", "2", "--lambda", "0.7", "--nu", "1",
        "--t", "0.2,0.5", "--samples", "100000", "--seed", "33",
    )
    assert code == EXIT_PASS
    assert rep["z_score"] <= 4.0


def test_check_hua_integral_is_reproducible(capsys):
    args = (
        "check-hua-integral", "--domain", "typeI", "--n", "2", "--lambda", "0.7", "--nu", "0",
        "--t", "0.2,0.5", "--samples", "50000", "--seed", "44",
    )
    _, rep1 = run_json(capsys, *args)
    _, rep2 = run_json(capsys, *args, "--workers", "3")
    assert rep1["lhs"]["mean"] == rep2["lhs"]["mean"]


def test_check_schur_det(capsys):
    code, rep = run_json(
        capsys, "check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "0.5", "--t", "0.4",
        "--samples", "150000", "--seed", "7",
    )
    assert code == EXIT_PASS
    assert rep["matching_variant"] == "h_squared"
    assert rep["variants"]["h_squared"]["z_score"] <= 4.0
    assert rep["variants"]["h_single"]["z_score"] > 4.0


def test_check_pde(capsys):
    code, rep = run_json(
        capsys, "check-pde", "--r", "1", "--m", "2", "--lambda", "0.9", "--nu", "0", "--t", "0.6"
    )
    assert code == EXIT_PASS
    assert rep["rel_diff"] <= 1e-5
    code, rep = run_json(
        capsys, "check-pde", "--r", "2", "--m", "2", "--lambda", "0.9", "--nu", "0", "--t", "0.3,0.7",
        "--richardson",
    )
    assert code == EXIT_PASS
    assert 3.5 <= rep["richardson_ratio"] <= 4.5


def test_check_x_system(capsys):
    code, rep = run_json(
        capsys, "check-x-system", "--r", "2", "--m", "2", "--lambda", "0.9", "--nu", "1", "--x=-0.2,-0.5"
    )
    assert code == EXIT_PASS
    assert rep["gated"] is False
    assert rep["lhs"]["max_residual"] <= 1e-5


def test_check_casimir_disk(capsys):
    code, rep = run_json(capsys, "check-casimir-disk", "--lambda", "2", "--z", "0.3,0.1")
    assert code == EXIT_PASS
    assert rep["rel_diff"] <= 1e-5


def test_check_covariance(capsys):
    code, rep = run_json(
        capsys, "check-covariance", "--n", "2", "--lambda", "0.8", "--nu", "2", "--trials", "20"
    )
    assert code == EXIT_PASS
    assert rep["lhs"]["max_kernel_residual"] <= 1e-8
    assert rep["lhs"]["max_cocycle_residual"] <= 1e-10


# ---------------------------------------------------------------------------
# table, suite, formats, errors
# ---------------------------------------------------------------------------


def test_table_typeI3(capsys):
    code, rep = run_json(capsys, "table", "--domain", "typeI", "--n", "3")
    assert code == EXIT_PASS
    row = rep["rows"][0]
    assert (row["rank"], row["multiplicity"], row["eta"], row["genus"]) == (3, 2.0, 3.0, 6.0)


def test_table_all_with_eigenvalues(capsys):
    code, rep = run_json(capsys, "table", "--n", "3", "--lambda", "2", "--nu", "1")
    assert code == EXIT_PASS
    assert len(rep["rows"]) == 6
    disk_row = next(r for r in rep["rows"] if r["kind"] == "disk")
    # (4 - 0) / (4 * 2) = 0.5
    assert disk_row["hua_eigenvalue"]["re"] == pytest.approx(0.5)


def test_suite(tmp_path, capsys):
    config = {
        "experiments": [
            {"command": "check-hua-integral", "domain": "disk", "lambda": 0.8, "nu": 1, "t": [0.5]},
            {"command": "check-casimir-disk", "lambda": 2.0, "z": "0.3,0.1"},
            {"command": "table", "domain": "typeI", "n": 2},
        ]
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    code, rep = run_json(capsys, "suite", "--config", str(path))
    assert code == EXIT_PASS
    assert rep["pass"] is True
    assert rep["n_experiments"] == 3


def test_output_formats(capsys, tmp_path):
    code, out = run_cli(capsys, "table", "--domain", "disk", "--output", "csv")
    assert code == EXIT_PASS
    header, values = out.strip().split("\n")
    assert "rows[0].eta" in header
    code, out = run_cli(capsys, "table", "--domain", "disk", "--output", "text")
    assert "rows[0].genus" in out
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "table", "--domain", "disk", "--out", str(out_path))
    assert json.loads(out_path.read_text())["command"] == "table"


def test_report_provenance(capsys):
    _, rep = run_json(capsys, "check-casimir-disk", "--lambda", "2", "--z", "0.1,0.0", "--seed", "99")
    assert rep["config"]["seed"] == 99
    assert "version" in rep["config"]
    assert "wall_time_s" in rep


def test_invalid_arguments_exit_3(capsys):
    assert main(["eval-2f1", "--a", "nope", "--b", "1", "--c", "1", "--x", "0.1"]) == EXIT_BAD_ARGS
    assert main(["no-such-command"]) == EXIT_BAD_ARGS
    assert main(["check-pde", "--r", "2", "--m", "2", "--lambda", "0.9", "--t", "0.5,0.5"]) == EXIT_BAD_ARGS


def test_pole_parameters_exit_3(capsys):
    assert main(["eval-2f1", "--a", "0.5", "--b", "0.7", "--c", "0", "--x", "0.3,0.1"]) == EXIT_BAD_ARGS


def test_failing_gate_exits_1(capsys):
    code, rep = run_json(
        capsys, "check-casimir-disk", "--lambda", "2", "--z", "0.3,0.1", "--gate", "1e-12"
    )
    assert code == EXIT_FAIL
    assert rep["pass"] is False


def test_render_report_rejects_unknown_format():
    with pytest.raises(Exception):
        render_report({"a": 1}, "yaml")


def test_a_second_main_builds_no_parser(capsys, monkeypatch):
    argv = ["eval-2f1", "--a", "0.5", "--b", "0.5", "--c", "1", "--m", "2", "--x", "0,0"]
    assert main(argv) == EXIT_PASS  # builds the parser unless an earlier call has
    built = []

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        argparse.ArgumentParser.__init__(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    assert main(argv) == EXIT_PASS
    assert main(["eval-2f1", "--a", "nope", "--b", "1", "--c", "1", "--x", "0.1"]) == EXIT_BAD_ARGS
    assert built == []
