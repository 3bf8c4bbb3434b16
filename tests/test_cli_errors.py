"""Bad inputs that used to crash, warn or print non-JSON now exit 3 with one `error:` line."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from tubekernels.cli import EXIT_BAD_ARGS, EXIT_PASS, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_covariance_accepts_a_negative_seed(capsys):
    code, out, err = _run(capsys, "check-covariance", "--n", "2", "--lambda", "0.8", "--trials", "5", "--seed", "-1")
    assert code == EXIT_PASS
    assert err == ""
    rep = json.loads(out)
    assert rep["config"]["seed"] == -1
    assert rep["lhs"]["max_kernel_residual"] <= 1e-8


def test_suite_entry_missing_a_required_key(capsys, tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": [{"command": "check-casimir-disk", "z": "0.3,0.1"}]}))
    code, out, err = _run(capsys, "suite", "--config", str(path))
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.startswith("error:") and "'lambda'" in err


def test_suite_entry_with_an_unreadable_value(capsys, tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": [{"command": "check-casimir-disk", "lambda": 2, "gate": "loose"}]}))
    code, _, err = _run(capsys, "suite", "--config", str(path))
    assert code == EXIT_BAD_ARGS
    assert err.startswith("error:") and "'gate'" in err


def test_suite_config_that_does_not_exist(capsys, tmp_path):
    code, out, err = _run(capsys, "suite", "--config", str(tmp_path / "absent.json"))
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.startswith("error:")


def test_suite_config_that_is_not_json(capsys, tmp_path):
    path = tmp_path / "suite.json"
    path.write_text("{experiments: [")
    code, _, err = _run(capsys, "suite", "--config", str(path))
    assert code == EXIT_BAD_ARGS
    assert err.startswith("error:")


@pytest.mark.parametrize("x", ["nan,0.1,0.1", "0.1,inf,0.1", "-inf,0.2"])
def test_eval_2f1_rejects_non_finite_x_as_a_bad_argument(capsys, x):
    code, out, err = _run(capsys, "eval-2f1", "--a", "1", "--b", "1", "--c", "2", "--m", "2", "--x=" + x)
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_suite_document_that_is_not_an_object(capsys, tmp_path):
    path = tmp_path / "suite.json"
    for doc in ([1, 2], {"experiments": "check-pde"}, {"experiments": None}):
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "suite", "--config", str(path))
        assert code == EXIT_BAD_ARGS
        assert out == ""
        assert err.startswith("error:") and "experiments" in err


def test_suite_experiment_that_is_not_an_object(capsys, tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": ["check-pde"]}))
    code, out, err = _run(capsys, "suite", "--config", str(path))
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.startswith("error:") and "experiment 0" in err


def test_schur_det_at_tanh_squared_one_warns_nothing(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(
            capsys, "check-schur-det", "--t", "30", "--n", "2", "--sig", "1,0", "--lambda", "0.5", "--samples", "1000"
        )
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.startswith("error:") and "Warning" not in err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("eval-spherical", "--r", "2", "--lambda", "0.9", "--t", "nan,0.3"),
        ("check-hua-integral", "--domain", "disk", "--lambda", "0.8", "--t", "nan"),
        ("check-x-system", "--r", "2", "--m", "2", "--lambda", "0.9", "--x=nan,0.1"),
    ],
)
def test_non_finite_t_and_x_are_bad_arguments(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check-casimir-disk", "--lambda", "2", "--z", "nan,0.1"),
        ("check-casimir-disk", "--lambda", "2", "--z", "0.1,inf"),
        ("check-covariance", "--n", "2", "--lambda", "nan", "--trials", "5"),
        ("eval-spherical", "--r", "2", "--lambda", "nan", "--t", "0.2,0.3"),
        ("check-hua-integral", "--domain", "typeI", "--lambda", "inf", "--t", "0.3,0.5"),
        ("check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "0.5+nanj", "--t", "0.4"),
        ("eval-2f1", "--a=-inf", "--b", "1", "--c", "2", "--x", "0.1"),
    ],
)
def test_non_finite_lambda_and_z_are_bad_arguments(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check-pde", "--r", "1", "--lambda", "0.9", "--t", "0.3", "--fd-step", "1e-300"),
        ("check-x-system", "--r", "1", "--lambda", "0.9", "--x=-0.5", "--fd-step", "1e-300"),
        ("check-casimir-disk", "--lambda", "2", "--z", "0.1,0", "--fd-step", "1e-170"),
        ("check-pde", "--r", "1", "--lambda", "0.9", "--t", "0.3", "--fd-step", "2e-154", "--richardson"),
    ],
)
def test_a_step_whose_square_underflows_is_a_bad_argument(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: the finite-difference step must be at least ")
    smallest = float(err.split("at least ")[1].split()[0])
    assert smallest * smallest >= 2.0**-1022  # the step named is accepted


def test_a_reader_that_closes_stdout_early_gets_no_traceback(tmp_path):
    """The report goes to --out first; a closed pipe then drops the rest, and the exit code stands."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command starts
    try:
        proc = subprocess.run([sys.executable, "-m", "tubekernels.cli", "table", "--n", "3", "--out",
                               str(tmp_path / "report.json")], stdout=write, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=300)
    finally:
        os.close(write)
    assert proc.returncode == EXIT_PASS
    assert proc.stderr == ""
    assert json.loads((tmp_path / "report.json").read_text())["rows"]
