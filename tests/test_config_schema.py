"""One config schema: a command line and a suite entry read the same keys, strictly,
and every input ends in a documented exit code with strict JSON or an `error:` line."""

import contextlib
import io
import json
import os
import re
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tubekernels import cli
from tubekernels.cli import EXIT_BAD_ARGS, EXIT_NO_CONVERGENCE, EXIT_PASS, main

ROOT = Path(__file__).resolve().parents[1]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _suite(experiments):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"experiments": experiments}, fh)
    try:
        return _call(["suite", "--config", fh.name])
    finally:
        os.unlink(fh.name)


def _strip(report):
    return {k: v for k, v in report.items() if k != "wall_time_s"}


# One cheap example per command, as flags and as the equivalent suite entry.
PARITY = [
    (["eval-2f1", "--a", "0.7", "--b", "1.3", "--c", "1.3", "--m", "2", "--x", "0.1,0.2"],
     {"a": 0.7, "b": 1.3, "c": 1.3, "m": 2, "x": [0.1, 0.2]}),
    (["eval-spherical", "--r", "2", "--lambda", "0.9", "--t", "0.8,1.2"],
     {"r": 2, "lambda": 0.9, "t": [0.8, 1.2]}),
    (["check-hua-integral", "--domain", "disk", "--lambda", "0.8", "--nu", "1", "--t", "0.5"],
     {"domain": "disk", "lambda": 0.8, "nu": 1, "t": [0.5]}),
    (["check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "0.5", "--t", "0.4", "--samples", "2000",
      "--seed", "3"],
     {"n": 2, "sig": [1, 0], "lambda": 0.5, "t": 0.4, "samples": 2000, "seed": 3}),
    (["check-pde", "--r", "1", "--lambda", "0.9+0.2j", "--t", "0.6", "--richardson"],
     {"r": 1, "lambda": "0.9+0.2j", "t": [0.6], "richardson": True}),
    (["check-x-system", "--r", "1", "--m", "1", "--lambda", "0.9", "--x=-0.3"],
     {"r": 1, "m": 1.0, "lambda": 0.9, "x": [-0.3]}),
    (["check-casimir-disk", "--lambda", "2", "--z", "0.3,0.1", "--fd-step", "0.002"],
     {"lambda": 2, "z": "0.3,0.1", "fd_step": 0.002}),
    (["check-covariance", "--lambda", "0.8", "--nu", "2", "--trials", "3", "--kernel-gate", "1e-7"],
     {"lambda": 0.8, "nu": 2, "trials": 3, "kernel_gate": 1e-7}),
    (["table", "--domain", "typeI", "--n", "3", "--lambda", "2"],
     {"domain": "typeI", "n": 3, "lambda": "2"}),
]


def test_every_command_has_a_parity_example():
    assert {argv[0] for argv, _ in PARITY} == set(cli._SCHEMA) - {"suite"}


@pytest.mark.parametrize("argv,entry", PARITY, ids=[argv[0] for argv, _ in PARITY])
def test_command_line_and_suite_entry_give_the_same_report(argv, entry):
    code, out, err = _call(argv)
    assert err == ""
    suite_code, suite_out, suite_err = _suite([{"command": argv[0], **entry}])
    assert suite_err == ""
    assert suite_code == code
    direct = json.loads(out)
    (via_suite,) = json.loads(suite_out)["experiments"]
    assert _strip(via_suite) == _strip(direct)
    assert set(direct["config"]) == set(cli._SCHEMA[argv[0]]) | {"version"}


def test_eval_spherical_value_no_longer_depends_on_the_front_end():
    code, out, _ = _call(PARITY[1][0])
    assert code == EXIT_PASS
    rep = json.loads(out)
    assert rep["lhs"]["value"]["re"] == 0.4884700119571872
    assert rep["config"]["tol"] == 1e-12
    assert not {"samples", "workers", "fd_step"} & set(rep["config"])


@pytest.mark.parametrize("junk", ["smaples", "nodse"])
def test_a_misspelled_suite_key_exits_3(junk):
    code, out, err = _suite([{"command": "check-casimir-disk", "lambda": 2, junk: 5}])
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.startswith("error:") and repr(junk) in err


def test_a_flag_the_command_does_not_read_exits_3():
    code, out, err = _call(["eval-spherical", "--r", "1", "--lambda", "0.9", "--t", "0.3", "--samples", "9"])
    assert code == EXIT_BAD_ARGS
    assert out == "" and err.startswith("error:")


def test_a_bad_entry_stops_the_suite_before_anything_runs():
    code, out, err = _suite([
        {"command": "eval-2f1", "a": 0.5, "b": 0.9, "c": 1.4, "x": [0.99]},  # would exit 2
        {"command": "table", "nodes": 3},
    ])
    assert code == EXIT_BAD_ARGS
    assert out == "" and "experiment 1" in err and "'nodes'" in err


@pytest.mark.parametrize(
    "entry,key",
    [
        ({"command": "check-covariance", "lambda": 0.8, "n": 2.7, "trials": 3}, "n"),
        ({"command": "check-covariance", "lambda": 0.8, "trials": True}, "trials"),
        ({"command": "check-pde", "r": 1, "lambda": 0.9, "t": [0.6], "richardson": "false"}, "richardson"),
        ({"command": "eval-spherical", "r": 2, "lambda": 0.9, "t": [0.3, 0.6], "xform": "no"}, "xform"),
        ({"command": "eval-spherical", "r": 1, "lambda": 0.9, "t": ["abc"]}, "t"),
        ({"command": "eval-spherical", "r": 1, "lambda": 0.9, "t": [None]}, "t"),
        ({"command": "check-schur-det", "sig": [1.5, 0], "lambda": 0.5, "t": 0.4, "samples": 1000}, "sig"),
        ({"command": "check-casimir-disk", "lambda": True}, "lambda"),
        ({"command": "check-casimir-disk", "lambda": 2, "gate": float("inf")}, "gate"),
        ({"command": "table", "domain": "typeV"}, "domain"),
        ({"command": "check-hua-integral", "domain": "typeII", "lambda": 0.8, "t": [0.5]}, "domain"),
    ],
)
def test_strict_readers_reject_what_they_cannot_read(entry, key):
    code, out, err = _suite([entry])
    assert code == EXIT_BAD_ARGS
    assert out == ""
    assert err.startswith("error:") and repr(key) in err


def test_an_integral_float_reads_as_an_integer():
    code, out, _ = _suite([{"command": "table", "domain": "typeI", "n": 3.0}])
    assert code == EXIT_PASS
    assert json.loads(out)["experiments"][0]["config"]["n"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--domain", "disk", "--lambda", "1e300"),
        ("check-pde", "--r", "1", "--lambda", "1e200", "--t", "0.6"),
    ],
)
def test_overflow_exits_2_with_an_error_line(argv):
    code, out, err = _call(argv)
    assert code == EXIT_NO_CONVERGENCE
    assert out == ""
    assert err.startswith("error: OverflowError:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval-spherical", "--r", "1", "--lambda", "1e300", "--t", "0.3"),
        ("eval-2f1", "--a", "1e200", "--b", "1e200", "--c", "1", "--x", "0.1"),
        ("eval-2f1", "--a", "1e200", "--b", "1e200", "--c", "1", "--x", "0.1", "--output", "csv"),
    ],
)
def test_a_non_finite_result_exits_2_with_no_report(argv):
    code, out, err = _call(argv)
    assert code == EXIT_NO_CONVERGENCE
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err


# ---------------------------------------------------------------------------
# the documented examples parse through the schema
# ---------------------------------------------------------------------------


def _readme_section(title):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse_through_the_schema():
    block = _readme_section("Command line").split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(lines) >= len(cli._SCHEMA)
    seen = set()
    for words in lines:
        assert words[0] == "tubekernels"
        args = vars(cli._build_parser().parse_args(words[1:]))
        command = args.pop("command")
        args.pop("output", None), args.pop("out", None)
        cli._resolve(command, args)
        seen.add(command)
    assert seen == set(cli._SCHEMA)


def test_readme_suite_example_and_shipped_suite_parse_through_the_schema():
    example = _readme_section("Suite configs").split("```json\n", 1)[1].split("```", 1)[0]
    shipped = json.loads((ROOT / "configs" / "acceptance_suite.json").read_text(encoding="utf-8"))
    for doc in (json.loads(example), shipped):
        for exp in doc["experiments"]:
            raw = dict(exp)
            cli._resolve(raw.pop("command"), raw)


def test_every_flag_in_readme_prose_is_a_key():
    flags = set(re.findall(r"`--([a-z][a-z-]*)", (ROOT / "README.md").read_text(encoding="utf-8")))
    keys = {name.replace("_", "-") for schema in cli._SCHEMA.values() for name in schema}
    assert flags <= keys | {"output", "out"}


# ---------------------------------------------------------------------------
# fuzz: any suite entry ends in a documented exit code
# ---------------------------------------------------------------------------

_TEXT = ["0", "1", "2", "-1", "0.3", "0.5,0.2", "1,0", "0.3,0.1", "0.9+0.3j", "1e400", "abc", "", "nan", "inf",
         "-inf", "disk", "typeI", "typeIV", "e7"]
_NUMBERS = st.one_of(
    st.integers(-3, 8),
    st.floats(-4, 4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),  # json writes these as NaN and Infinity
)
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    _NUMBERS,
    st.sampled_from(_TEXT),
    st.text(max_size=4),
    st.lists(st.one_of(st.floats(-0.95, 0.95), _NUMBERS, st.sampled_from(_TEXT)), max_size=4),
    st.dictionaries(st.sampled_from(["re", "im"]), st.floats(-1, 1), max_size=2),
)
# keys that set the cost of a run take small values only (samples <= 1000, trials <= 3)
_SIZES = {
    "samples": st.integers(-1, 1000),
    "trials": st.integers(-1, 3),
    **dict.fromkeys(
        ("kmax", "nodes", "n", "r", "workers"),
        st.one_of(st.none(), st.booleans(), st.integers(-1, 8), st.floats(-1, 8), st.sampled_from(["3", "2.5", "x"])),
    ),
}


@st.composite
def _entries(draw):
    argv, base = draw(st.sampled_from(PARITY))
    command = argv[0]
    keys = sorted(cli._SCHEMA[command]) + ["smaples", "nodse", "command2"]
    # mostly a valid entry with a few keys overwritten, sometimes one built from nothing
    entry = {"command": command, **(base if draw(st.integers(0, 3)) else {})}
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
        entry[key] = draw(_SIZES.get(key, _VALUES))
    for key in ("samples", "trials"):
        if key in cli._SCHEMA[command]:
            entry[key] = draw(_SIZES[key])
    return entry


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_entries(), min_size=1, max_size=2))
def test_fuzzed_suite_entries_end_in_a_documented_exit_code(experiments):
    code, out, err = _suite(experiments)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if out:
        json.loads(out, parse_constant=lambda name: pytest.fail(f"non-strict JSON constant {name}"))
    else:
        assert code in (2, 3) and "error:" in err
