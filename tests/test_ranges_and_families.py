"""Inputs outside floating-point range that once ended in a bare Python error, and
the one list of tube-type families that the catalog and the CLI read."""

from __future__ import annotations

import contextlib
import io
import json
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubekernels.cli import _resolve, main
from tubekernels.errors import InvalidArgumentError, NonFiniteResultError
from tubekernels.schur import phi_lambda_k

EVAL = ["eval-2f1", "--a", "0.7", "--b", "1.3", "--c", "1.3"]
SMALLEST_M = re.compile(r"the smallest m it accepts there is (\S+)$")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("flags, smallest", [
    (["--m", "3.7e-27", "--x", "0.1,0.2"], "4.49e-16"),  # g_1 = (1/alpha + 1) - 1 rounds to 0
    (["--m", "1e-3", "--kmax", "200", "--x", "0.1,0.2"], "0.00168"),  # alpha^100 overflows
])
def test_a_rank2_table_out_of_range_exits_3_naming_the_smallest_m(flags, smallest):
    code, out, err = _run(EVAL + flags)
    assert code == 3
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: multiplicity m = ")
    assert SMALLEST_M.search(line).group(1) == smallest


@settings(max_examples=40, deadline=None)
@given(
    log_m=st.floats(-30.0, 30.0),
    kmax=st.integers(1, 200),
    x=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
)
def test_rank2_series_at_any_multiplicity_ends_in_a_documented_exit(log_m, kmax, x):
    flags = ["--kmax", str(kmax), f"--x={x[0]!r},{x[1]!r}"]
    code, _, err = _run(EVAL + ["--m", repr(10.0**log_m)] + flags)
    assert code in (0, 2, 3)
    assert "ZeroDivisionError" not in err and "OverflowError" not in err
    if code == 3:  # the smallest m named is accepted
        smallest = SMALLEST_M.search(err.strip()).group(1)
        code, _, err = _run(EVAL + ["--m", smallest] + flags)
        assert code in (0, 2)
        assert "ZeroDivisionError" not in err and "OverflowError" not in err


def test_phi_lambda_k_raises_instead_of_returning_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResultError, match="the determinant formula is non-finite"):
            phi_lambda_k(-602, 0, 2.0, 2)


def test_table_hua_domains_and_has_kernel_name_the_same_families():
    code, out, _ = _run(["table", "--n", "3"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["kind"] for row in rows] == ["disk", "typeI", "typeII", "typeIII", "typeIV", "e7"]
    accepted = []
    for row in rows:
        try:
            _resolve("check-hua-integral", {"domain": row["kind"], "lambda": 0.7, "t": [0.2]})
        except InvalidArgumentError:
            continue
        accepted.append(row["kind"])
    assert accepted == [row["kind"] for row in rows if row["has_kernel"]] == ["disk", "typeI"]
