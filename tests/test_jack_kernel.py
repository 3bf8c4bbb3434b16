"""The shell-vectorized rank >= 3 Jack table against a scalar recursion in plain
Python floats, bit for bit; and three inputs that once ended in a bare Python
error or a wrong exit code."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubekernels.cli as cli
import tubekernels.partitions as partitions
from tubekernels.domains import FAMILIES
from tubekernels.partitions import Partition, _c_norm, _column_hooks, _engine, _horizontal_strips, _partition_tuples


def _scalar_beta(kappa, mu, al):
    """The branching coefficient column by column, each product folded from 1.0."""
    kc, mc = Partition(kappa).conjugate(), Partition(mu).conjugate()
    (ku, kl), (mu_u, mu_l) = _column_hooks(kappa, kc, al), _column_hooks(mu, mc, al)
    num = 1.0
    for j in range(len(kc)):
        num *= ku[j] if j < len(mc) and kc[j] == mc[j] else kl[j]
    den = 1.0
    for j in range(len(mc)):
        den *= mu_u[j] if kc[j] == mc[j] else mu_l[j]
    return num / den


def _scalar_table(al, x, kmax):
    """C_kappa(x) by the memoised recursion J(kappa, n), branching on x_n, in Python floats."""
    memo = {}

    def jack(parts, n):
        if not parts:
            return 1.0
        if (parts, n) not in memo:
            if n == 1:
                total = x[0] ** parts[0]
                for j in range(parts[0]):
                    total *= 1.0 + j * al
            else:
                total = 0.0
                for mu in _horizontal_strips(parts, n - 1):
                    skip = sum(parts) - sum(mu)
                    if skip > 0 and x[n - 1] == 0.0:
                        continue
                    sub = jack(mu, n - 1)
                    if sub != 0.0:
                        total += sub * x[n - 1] ** skip * _scalar_beta(parts, mu, al)
            memo[parts, n] = total
        return memo[parts, n]

    return {parts: _c_norm(parts, Partition(parts).conjugate(), al) * jack(parts, len(x))
            for k in range(kmax + 1) for parts in _partition_tuples(k, len(x))}


def _hex(table):
    return [(kappa, value.hex()) for kappa, value in table.items()]


# The largest degree drawn at each rank keeps the scalar reference under a second.
_KMAX = {3: 24, 4: 18, 5: 14, 6: 12}
_coordinate = st.one_of(st.just(0.0), st.floats(-0.95, 0.95, allow_nan=False))


@st.composite
def _tables(draw):
    rank = draw(st.integers(3, 6))
    return (draw(st.floats(0.05, 20.0)), draw(st.tuples(*[_coordinate] * rank)),
            draw(st.integers(0, _KMAX[rank])))


@settings(max_examples=60, deadline=None)
@given(case=_tables())
def test_shell_passes_match_the_scalar_recursion_bitwise(case):
    al, x, kmax = case
    assert _hex(_engine(al).table(x, kmax)) == _hex(_scalar_table(al, x, kmax))


def test_pass_size_does_not_move_a_bit(monkeypatch):
    al, x, kmax = 0.7, (0.4, -0.3, 0.0, 0.2), 14
    want = _hex(_engine(al).table(x, kmax))
    for budget in (1, 1 << 30):  # one partition per pass; one pass per shell
        monkeypatch.setattr(partitions, "_PASS_ELEMENTS", budget)
        assert _hex(_engine(al).table(x, kmax)) == want


@pytest.mark.parametrize("al, x", [
    (1e20, (0.3, -0.2, 0.1)),  # hook products overflow: inf and NaN entries, as in Python floats
    (1e-20, (0.3, -0.2, 0.1)),  # a denominator underflows to 0: ZeroDivisionError, as in Python floats
])
def test_extreme_alpha_gives_what_python_floats_give_without_a_warning(al, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = _hex(_scalar_table(al, x, 30))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="float division by zero"):
                _engine(al).table(x, 30)
            return
        got = _hex(_engine(al).table(x, 30))
    assert got == want
    assert any(value in ("inf", "-inf", "nan") for _, value in got)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("sig, named", [
    ("200,0", "signature part m_1 = 200 is out of range at n = 2; the largest m_1 accepted there is 169"),
    ("0,-200", "signature part m_2 = -200 is out of range at n = 2; the smallest m_2 accepted there is -169"),
])
def test_a_signature_part_past_the_factorial_range_exits_3_before_sampling(monkeypatch, sig, named):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(cli, "mc_integrate_vector", no_sampling)
    code, out, err = _run(["check-schur-det", "--n", "2", "--sig", sig, "--lambda", "0.5", "--t", "0.4"])
    assert (code, out, err) == (3, "", f"error: {named}\n")


def test_the_largest_signature_part_accepted_is_evaluated():
    code, out, _ = _run(["check-schur-det", "--n", "2", "--sig", "169,0", "--lambda", "0.5", "--t", "0.4",
                         "--samples", "2000"])
    assert code in (0, 1)
    assert math.isfinite(json.loads(out)["rhs"]["re"])


def test_table_without_a_domain_lists_the_families_that_exist_at_n():
    code, out, _ = _run(["table"])
    assert code == 0
    assert [row["kind"] for row in json.loads(out)["rows"]] == [kind for kind in FAMILIES if kind != "typeIV"]
    code, out, _ = _run(["table", "--n", "3"])
    assert code == 0
    assert [row["kind"] for row in json.loads(out)["rows"]] == list(FAMILIES)
    assert _run(["table", "--domain", "typeIV", "--n", "2"]) == (3, "", "error: typeIV record requires n >= 3\n")


LARGEST_M = re.compile(r"the largest m it accepts there is (\S+) and")


def test_a_rank2_table_at_too_large_a_multiplicity_exits_3_naming_the_largest_m():
    argv = ["eval-2f1", "--a", "0.7", "--b", "1.3", "--c", "1.3", "--x", "0.1,0.2"]
    code, out, err = _run(argv + ["--m", "1e30"])
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert line.startswith("error: multiplicity m = 1e+30 is out of floating-point range for a rank-2 table "
                           "to degree 30")
    largest = LARGEST_M.search(line).group(1)
    assert largest == "2.14e+11"
    code, out, err = _run(argv + ["--m", largest])
    assert code == 0, err
    assert all(math.isfinite(v) for v in partitions.jack_C_all(2.0 / float(largest), (0.1, 0.2), 30).values())
