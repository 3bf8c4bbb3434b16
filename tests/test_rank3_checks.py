"""Rank >= 3: a Jack parameter outside floating-point range exits 3 naming the
multiplicities accepted, and the radial system is checked at rank 3, e7 included."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubekernels.cli import main
from tubekernels.partitions import _table_args, jack_C_all

EVAL = ["eval-2f1", "--a", "0.7", "--b", "1.3", "--c", "1.3"]
RANGE = re.compile(r"the largest m it accepts there is (\S+) and the smallest m it accepts there is (\S+)$")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("m, flags, rank, degree", [
    ("1e300", ["--x=0.3,0.2,0.1", "--kmax", "10"], 3, 10),  # a branching denominator underflows to 0
    ("1e-300", ["--x=0.3,0.2,0.1", "--kmax", "10"], 3, 10),  # hook products overflow
    ("2e20", ["--x=0.3,-0.2,0.1"], 3, 30),
    ("2e-20", ["--x=0.3,-0.2,0.1"], 3, 30),
    ("1e20", ["--x=0.3,-0.2,0.1,0.2", "--kmax", "20"], 4, 20),
])
def test_a_rank3_table_out_of_range_exits_3_naming_both_ends(m, flags, rank, degree):
    code, out, err = _run(EVAL + ["--m", m] + flags)
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: multiplicity m = {float(m):.3g} is out of floating-point range for a "
                           f"rank-{rank} table to degree {degree}; ")
    largest, smallest = map(float, RANGE.search(line).groups())
    assert not smallest <= float(m) <= largest
    x = tuple(float(v) for v in flags[0].split("=")[1].split(","))
    for named in (smallest, largest):  # each end is accepted, and its table is finite
        code, _, err = _run(EVAL + ["--m", repr(named)] + flags)
        assert code in (0, 2), err
        assert all(math.isfinite(v) for v in jack_C_all(2.0 / named, x, degree).values())


@pytest.mark.parametrize("rank, degree, ms", [(3, 100, (1, 2, 4, 6, 8)), (4, 30, (2,))])
def test_the_multiplicities_in_use_are_accepted(rank, degree, ms):
    for m in ms:
        assert _table_args(2.0 / m, (0.5,) * rank, degree)[0] == 2.0 / m


@settings(max_examples=30, deadline=None)
@given(
    log_m=st.floats(-30.0, 30.0),
    kmax=st.integers(1, 16),
    x=st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=4),
)
def test_rank3_series_at_any_multiplicity_ends_in_a_documented_exit(log_m, kmax, x):
    flags = ["--kmax", str(kmax), "--x=" + ",".join(map(repr, x))]
    code, _, err = _run(EVAL + ["--m", repr(10.0**log_m)] + flags)
    assert code in (0, 2, 3)
    assert "ZeroDivisionError" not in err and "OverflowError" not in err
    if code != 3:  # an accepted multiplicity gives a finite table
        assert all(math.isfinite(v) for v in jack_C_all(2.0 / 10.0**log_m, x, kmax).values())


def _pde(*flags):
    code, out, err = _run(["check-pde", "--lambda", "0.9", "--nu", "1", "--t", "0.2,0.4,0.6", *flags])
    assert code == 0, err
    return json.loads(out)


def test_the_e7_radial_system_passes_with_a_richardson_ratio_near_4():
    report = _pde("--r", "3", "--m", "8", "--richardson")
    assert report["pass"]
    assert 3.5 <= report["richardson_ratio"] <= 4.5


def test_the_rank3_radial_system_passes_at_m_1():
    assert _pde("--r", "3", "--m", "1")["pass"]
