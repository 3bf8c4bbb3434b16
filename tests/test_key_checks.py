"""A sample count, a node count, a rank, the length of a point x, a truncation degree and a gate are checked
when their keys are read: a value past its bound exits 3 with one ``error:`` line before any command runs, so a
suite runs nothing.  Samples and nodes are checked by the library's own functions, which state each bound once."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

import tubekernels.cli as cli
import tubekernels.hypergeom as hypergeom
import tubekernels.partitions as partitions
import tubekernels.shilov as shilov
from tubekernels.errors import InvalidArgumentError

RADIAL = ("eval-spherical", "check-pde", "check-x-system")


def _radial(command, r):
    """A rank-r entry of a radial command: eval-spherical at eight 0.05 took 22.7 s and 136 MB at r = 8."""
    point = ("x", [-0.05 * (i + 1) for i in range(r)]) if command == "check-x-system" else ("t", [0.05] * r)
    return {"r": r, "lambda": 0.8, point[0]: point[1]}


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _argv(command, raw):
    return [command] + [f"--{key}={','.join(map(str, value)) if isinstance(value, list) else value}"
                        for key, value in raw.items()]


@pytest.fixture
def nothing_runs(monkeypatch):
    """Record every runner call and fail any Jack table build."""
    ran = []
    for command in list(cli._RUNNERS):
        if command != "suite":
            monkeypatch.setitem(cli._RUNNERS, command, lambda cfg, command=command: ran.append(command) or ({}, None, 0))
    for owner in (hypergeom, partitions):
        monkeypatch.setattr(owner, "jack_C_all", lambda *a: pytest.fail("a Jack table was built"))
    return ran


def test_samples_and_nodes_are_checked_by_the_library_functions():
    assert cli._KEYS["samples"].check is cli._KEYS["nodes"].check is shilov._check_count
    assert cli._KEYS["r"].bounds == cli._KEYS["n"].bounds == (float("-inf"), cli.MAX_RANK) and cli.MAX_RANK == 8


@pytest.mark.parametrize("command", RADIAL)
def test_a_rank_past_the_bound_exits_3_before_any_jack_table(nothing_runs, command):
    assert _call(_argv(command, _radial(command, 9))) == (cli.EXIT_BAD_ARGS, "", "error: r must be <= 8, got 9\n")
    assert nothing_runs == []


@pytest.mark.parametrize("command", RADIAL)
def test_the_largest_rank_resolves(command):
    assert cli._resolve(command, _radial(command, 8))["r"] == 8


@pytest.mark.parametrize("command", ["eval-2f1", "check-x-system"])
def test_an_x_longer_than_the_largest_rank_exits_3_before_any_jack_table(nothing_runs, command):
    raw = {"a": 0.5, "b": 1, "c": 2} if command == "eval-2f1" else {"r": 8, "lambda": 0.8}
    for entries in (9, 40):  # 12 entries of eval-2f1 used to build a rank-12 table in about 9 s
        argv = _argv(command, {**raw, "x": [-0.05] * entries})
        assert _call(argv) == (cli.EXIT_BAD_ARGS, "", f"error: x must have at most 8 entries, got {entries}\n")
    assert nothing_runs == []
    assert cli._resolve("eval-2f1", {"a": 0.5, "b": 1, "c": 2, "x": [0.1] * 8})["x"] == (0.1,) * 8


@pytest.mark.parametrize("argv,line", [
    (["check-casimir-disk", "--lambda", "2", "--z", "0.3,0.1", "--nodes", "7"],
     f"error: need 8 to {shilov.MAX_NODES} nodes, got 7"),
    (["check-casimir-disk", "--lambda", "2", "--z", "0.3,0.1", "--nodes", str(shilov.MAX_NODES + 1)],
     f"error: need 8 to {shilov.MAX_NODES} nodes, got {shilov.MAX_NODES + 1}"),
    (["check-hua-integral", "--lambda", "0.8", "--t", "0.5", "--samples", "1"],
     f"error: need 2 to {shilov.MAX_SAMPLES} samples, got 1"),
    (["check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "0.5", "--t", "0.4", "--samples", "0"],
     f"error: need 2 to {shilov.MAX_SAMPLES} samples, got 0"),
])
def test_a_count_past_the_library_range_exits_3_before_the_run(nothing_runs, argv, line):
    assert _call(argv) == (cli.EXIT_BAD_ARGS, "", line + "\n")
    assert nothing_runs == []


@pytest.mark.parametrize("entry,message", [
    ({"command": "check-schur-det", "n": 2, "sig": [1, 0], "lambda": 0.5, "t": 0.4, "samples": 1 << 29},
     f"need 2 to {shilov.MAX_SAMPLES} samples, got {1 << 29}"),
    ({"command": "check-casimir-disk", "lambda": 2, "z": "0.3,0.1", "nodes": 1 << 21},
     f"need 8 to {shilov.MAX_NODES} nodes, got {1 << 21}"),
    ({"command": "eval-spherical", **_radial("eval-spherical", 9)}, "r must be <= 8, got 9"),
])
def test_a_suite_whose_second_entry_is_past_a_bound_runs_nothing(nothing_runs, entry, message):
    doc = {"experiments": [{"command": "check-schur-det", "n": 2, "sig": [1, 0], "lambda": 0.5, "t": 0.4,
                            "samples": 400_000}, entry]}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
    try:
        code, out, err = _call(["suite", "--config", fh.name])
    finally:
        os.unlink(fh.name)
    assert (code, out, nothing_runs) == (cli.EXIT_BAD_ARGS, "", [])
    assert err == f"error: suite experiment 1 ({entry['command']}): {message}\n"


@pytest.mark.parametrize("low,high,what", [(2, shilov.MAX_SAMPLES, "samples"), (8, shilov.MAX_NODES, "nodes")])
def test_the_library_check_keeps_each_range(low, high, what):
    for value in (low, high):
        shilov._check_count(what, value)
    for value in (low - 1, high + 1):
        with pytest.raises(InvalidArgumentError, match=f"^need {low} to {high} {what}, got {value}$"):
            shilov._check_count(what, value)


def test_the_degree_is_bounded_by_the_library_maximum():
    assert cli._KEYS["kmax"].bounds == (1, partitions._MAX_WEIGHT) == (1, 200)
    assert cli._resolve("eval-2f1", {"a": 0.5, "b": 0.5, "c": 1.5, "x": [0.3, 0.2], "kmax": 200})["kmax"] == 200


@pytest.mark.parametrize("argv,line", [
    (["eval-2f1", "--a", "0.5", "--b", "0.5", "--c", "1.5", "--x", "0.3,0.2", "--kmax", "5000"],
     "error: kmax must be <= 200, got 5000"),
    (["eval-spherical", "--r", "1", "--lambda", "0.9", "--t", "0.3", "--kmax", "0"], "error: kmax must be >= 1, got 0"),
    (["check-pde", "--r", "2", "--lambda", "0.8", "--t", "0.2,0.4", "--gate", "0"], "error: gate must be > 0, got 0.0"),
    (["check-pde", "--r", "2", "--lambda", "0.8", "--t", "0.2,0.4", "--gate", "-1"], "error: gate must be > 0, got -1.0"),
    (["check-covariance", "--n", "2", "--lambda", "0.8", "--trials", "1", "--kernel-gate", "-1"],
     "error: kernel_gate must be > 0, got -1.0"),
    (["check-covariance", "--n", "2", "--lambda", "0.8", "--trials", "1", "--cocycle-gate", "0"],
     "error: cocycle_gate must be > 0, got 0.0"),
])
def test_a_degree_past_the_maximum_or_a_gate_of_zero_or_less_exits_3_before_the_run(nothing_runs, argv, line):
    assert _call(argv) == (cli.EXIT_BAD_ARGS, "", line + "\n")
    assert nothing_runs == []


def _suite(entries):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"experiments": entries}, fh)
    try:
        return _call(["suite", "--config", fh.name])
    finally:
        os.unlink(fh.name)


def test_a_suite_whose_later_entry_asks_past_the_largest_degree_draws_no_block(monkeypatch):
    drawn = []
    monkeypatch.setattr(shilov, "_haar_block", lambda *args: drawn.append(args))
    code, out, err = _suite([
        {"command": "check-hua-integral", "domain": "typeI", "n": 2, "lambda": 0.7, "t": [0.2, 0.5],
         "samples": 4_000_000},
        {"command": "eval-2f1", "a": 0.5, "b": 0.5, "c": 1.5, "x": [0.3, 0.2], "kmax": 5000},
    ])
    assert (code, out, drawn) == (cli.EXIT_BAD_ARGS, "", [])
    assert err == "error: suite experiment 1 (eval-2f1): kmax must be <= 200, got 5000\n"


def test_a_suite_whose_later_entry_has_a_negative_gate_runs_nothing(nothing_runs):
    code, out, err = _suite([{"command": "table", "n": 2},
                             {"command": "check-casimir-disk", "lambda": 2, "z": "0.3,0.1", "gate": -1e-5}])
    assert (code, out, nothing_runs) == (cli.EXIT_BAD_ARGS, "", [])
    assert err == "error: suite experiment 1 (check-casimir-disk): gate must be > 0, got -1e-05\n"
