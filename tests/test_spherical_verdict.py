"""A spherical series gives a value only once it has converged, and every way of not
giving one ends in exit 2 with a single `error:` line naming why."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tubekernels import cli
from tubekernels.cli import EXIT_BAD_ARGS, EXIT_NO_CONVERGENCE, main
from tubekernels.errors import ConvergenceError, NonFiniteResultError
from tubekernels.hypergeom import hyp2f1_classical
from tubekernels.radial import RadialPoint, SphericalParams, spherical_F

ROOT = Path(__file__).resolve().parents[1]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _run(argv):
    """The CLI in a fresh interpreter, so NumPy warnings would reach its stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "tubekernels.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# an unconverged series exits 2, naming its degree and last shell
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, degree",
    [
        (("eval-spherical", "--r", "2", "--lambda", "0.9", "--t", "2.9,0.3"), 200),
        (("eval-spherical", "--r", "3", "--lambda", "0.9", "--t", "1.5,0.3,0.1"), 100),
        (("check-hua-integral", "--domain", "disk", "--lambda", "0.8", "--nu", "1", "--t", "2.9"), 200),
        (("check-pde", "--r", "2", "--lambda", "0.9", "--t", "2.9,0.3"), 200),
    ],
)
def test_an_unconverged_spherical_series_exits_2_naming_degree_and_last_shell(argv, degree):
    code, out, err = _call(argv)
    assert code == EXIT_NO_CONVERGENCE
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error:") and f"degree {degree}" in line and "last shell" in line


@pytest.mark.parametrize("x", ["-0.999", "-0.9995"])
def test_an_x_system_stencil_leaving_the_unit_polydisk_is_rejected(x):
    # x - h = -1 once ended in a ZeroDivisionError (exit 2), and x - h < -1 in an unconverged series
    code, out, err = _call(["check-x-system", "--r", "1", "--lambda", "0.9", "--x=" + x, "--fd-step", "0.001"])
    assert code == EXIT_BAD_ARGS
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error:") and "-1 + h" in line


# ---------------------------------------------------------------------------
# the rank-1 series against mpmath
# ---------------------------------------------------------------------------

_LAM, _NU = 0.9, 1


def _reference(t):
    """(1 - x)^((lam+1)/2) * 2F1((lam+1-nu)/2, (lam+1+nu)/2; 1; x) at x = tanh^2 t, to 30 digits."""
    with mpmath.workdps(30):
        x = mpmath.tanh(t) ** 2
        a, b = (_LAM + 1 - _NU) / 2, (_LAM + 1 + _NU) / 2
        return complex((1 - x) ** ((_LAM + 1) / 2) * mpmath.hyp2f1(a, b, 1, x))


@pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
def test_rank1_spherical_function_matches_mpmath(t):
    sp = SphericalParams(lam=_LAM, nu=_NU, multiplicity=2.0, rank=1)
    ref = _reference(t)
    assert abs(spherical_F(sp, RadialPoint((t,))) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("t", [2.0, 2.5, 2.9])
def test_rank1_spherical_function_gives_no_value_past_the_degree_cap(t):
    sp = SphericalParams(lam=_LAM, nu=_NU, multiplicity=2.0, rank=1)
    with pytest.raises(ConvergenceError, match="degree 200"):
        spherical_F(sp, RadialPoint((t,)))


# ---------------------------------------------------------------------------
# extreme inputs: one `error:` line, no NumPy warning ahead of it
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("check-hua-integral", "--domain", "disk", "--lambda", "1419", "--nu", "1", "--t", "0.5"),
        ("check-schur-det", "--n", "2", "--sig", "1,0", "--lambda=-1.13e298", "--t", "0.4", "--samples", "20000"),
        ("check-hua-integral", "--domain", "typeI", "--n", "2", "--lambda", "3000", "--nu", "1", "--t", "0.2,0.5",
         "--samples", "20000", "--workers", "2"),
        # finite samples whose variance overflows, in the pool's threads and in the merge
        ("check-schur-det", "--n", "2", "--sig", "1,0", "--lambda", "700", "--t", "0.4", "--samples", "20000",
         "--workers", "2"),
    ],
)
def test_extreme_inputs_print_one_error_line_and_no_warning(argv):
    code, out, err = _run(argv)
    assert code == EXIT_NO_CONVERGENCE
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error:")


def test_classical_series_stops_at_its_first_non_finite_term():
    s = (-1.13e298 + 2) / 2  # the check-schur-det case above, whose terms overflow at once
    with pytest.raises(NonFiniteResultError, match="term 1 is non-finite"):
        hyp2f1_classical(s, s + 1, 2, 0.144)


def test_eval_2f1_collects_no_shells(monkeypatch):
    original, seen = cli.hyp2f1_multi, []

    def series(params, x, **kwargs):
        seen.append(kwargs)
        return original(params, x, **kwargs)

    monkeypatch.setattr(cli, "hyp2f1_multi", series)
    code, out, _ = _call(["eval-2f1", "--a", "0.7", "--b", "1.3", "--c", "1.3", "--x", "0.1,0.2"])
    assert code == 0 and json.loads(out)["converged"]
    assert seen == [{}]


# ---------------------------------------------------------------------------
# fuzz: any argv of the spherical commands ends in a documented exit code
# ---------------------------------------------------------------------------

_BAD_NUMBER = st.sampled_from(["1e300", "-1e300", "1e-300", "nan", "inf", "abc", ""])


def _pick(draw, good, bad):
    """Mostly a value from ``good``, one time in eight one from ``bad``."""
    return draw(bad) if draw(st.integers(0, 7)) == 0 else draw(good)


def _csv(draw, element, size):
    return ",".join(_pick(draw, element, _BAD_NUMBER) for _ in range(size))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["eval-spherical", "check-pde", "check-x-system", "check-hua-integral"]))
    real = st.floats(-40, 40).map(repr)
    lam = _pick(draw, st.one_of(real, st.builds("{}{:+}j".format, st.floats(-40, 40), st.floats(-40, 40))),
                _BAD_NUMBER)
    nu = _pick(draw, st.integers(-3, 3).map(str), st.sampled_from(["0.5", "40", "-40"]))
    # rank <= 2 keeps every run cheap: at rank >= 3 a far point builds branching tables up to degree 100
    rank = int(_pick(draw, st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1"])))
    size = _pick(draw, st.just(1 if command == "check-hua-integral" else max(rank, 1)), st.integers(0, 3))
    argv = [command, "--lambda=" + lam, "--nu", nu]
    if command == "check-hua-integral":
        argv += ["--domain", "disk", "--t=" + _csv(draw, st.floats(-3.2, 3.2).map(repr), size)]
    else:
        argv += ["--r", str(rank), "--m", _pick(draw, st.sampled_from(["1", "2", "4", "0.5"]), st.just("0"))]
        if command == "check-x-system":
            argv.append("--x=" + _csv(draw, st.floats(-1.2, 0.2).map(repr), size))
        else:
            argv.append("--t=" + _csv(draw, st.floats(-3.2, 3.2).map(repr), size))
    if command in ("check-pde", "check-x-system") and draw(st.booleans()):
        argv.append("--fd-step=" + draw(st.sampled_from(["1e-3", "1e-2", "0.1", "0", "-1e-3", "1e-9"])))
    if command in ("eval-spherical", "check-hua-integral") and draw(st.booleans()):
        argv.append("--kmax=" + draw(st.sampled_from(["1", "5", "40", "200", "201", "0"])))
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_fuzzed_argv_of_the_spherical_commands_ends_in_a_documented_exit_code(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _call(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == err.splitlines()
        assert len(err.splitlines()) == 1
    else:
        assert err == ""
        json.loads(out, parse_constant=lambda name: pytest.fail(f"non-strict JSON constant {name}"))
