"""Inputs that used to end in a traceback now exit 3 with one `error:` line."""

import json

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
