"""The per-alpha store of branching coefficients: a table built on a warm engine is
bit for bit the table of a fresh one, each shell's coefficients are computed once
per engine, a zero denominator raises on every call that uses it, and the store
keeps to its budget."""

from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubekernels.partitions as partitions
from tubekernels.partitions import _Engine, _horizontal_strips, _partition_tuples
from tubekernels.radial import RadialPoint, SphericalParams, radial_residual_report


def _hex(table):
    return [(kappa, value.hex()) for kappa, value in table.items()]


def _strips(n, k):
    """The number of strips kappa/mu of the (level n, degree k) shell."""
    return sum(len(list(_horizontal_strips(parts, n - 1))) for parts in _partition_tuples(k, n))


@pytest.fixture
def spy(monkeypatch):
    """Counts, per (level, degree) shell, the strips whose coefficients _Engine._betas computes."""
    calls = collections.Counter()
    kernel = _Engine._betas

    def betas(self, kappa, mu, koff, moff):
        if kappa.shape[1]:
            calls[kappa.shape[0], int(kappa[:, 0].sum())] += kappa.shape[1]
        return kernel(self, kappa, mu, koff, moff)

    monkeypatch.setattr(_Engine, "_betas", betas)
    return calls


# The largest degree drawn at each rank keeps an example near a tenth of a second.
_KMAX = {3: 22, 4: 16, 5: 12}
_coordinate = st.one_of(st.just(0.0), st.floats(-0.95, 0.95, allow_nan=False))


@st.composite
def _point_pairs(draw):
    rank = draw(st.integers(3, 5))
    generic = draw(st.tuples(*[st.floats(-0.95, 0.95, allow_nan=False)] * rank))
    zeros = draw(st.tuples(*[_coordinate] * rank).filter(lambda x: 0.0 in x))
    return draw(st.floats(0.05, 20.0)), zeros, generic, draw(st.integers(0, _KMAX[rank]))


@settings(max_examples=40, deadline=None)
@given(case=_point_pairs())
def test_a_warm_store_gives_the_bits_of_a_fresh_engine(case):
    al, zeros, generic, kmax = case
    for first, second in ((zeros, generic), (generic, zeros)):
        warm = _Engine(al)
        assert _hex(warm.table(first, kmax)) == _hex(_Engine(al).table(first, kmax))
        assert _hex(warm.table(second, kmax)) == _hex(_Engine(al).table(second, kmax))


def test_a_second_table_at_the_same_alpha_computes_no_coefficient(spy):
    engine = _Engine(0.4)
    engine.table((0.5, 0.0, -0.3, 0.1), 14)
    assert spy == {(n, k): _strips(n, k) for n in (2, 3, 4) for k in range(15)}
    spy.clear()
    engine.table((-0.2, 0.7, 0.3, 0.6), 14)
    engine.table((0.1, 0.2, 0.3), 14)  # a lower rank reads the shells of its levels
    assert not spy


def test_a_rank3_radial_report_computes_each_shell_once(spy):
    partitions._engine.cache_clear()
    partitions._jack_table_cached.cache_clear()
    report = radial_residual_report(SphericalParams(rank=3, multiplicity=1.0, lam=0.9, nu=1.0),
                                    RadialPoint((0.2, 0.4, 0.6)))
    assert report.relative <= 1e-5
    assert spy == {(n, k): _strips(n, k) for n, k in spy}
    assert {k for n, k in spy if n == 3} == set(range(max(k for _, k in spy) + 1))


def test_a_zero_denominator_raises_on_every_call_that_uses_it():
    engine = _Engine(1e-20)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            engine.table((0.3, -0.2, 0.1), 30)
    # At x_1 = x_2 = 0 no strip with a zero denominator is used: the shells are
    # stored with their zero mask, and the next point that uses one still raises.
    engine = _Engine(1e-20)
    assert _hex(engine.table((0.0, 0.0, 0.1), 20)) == _hex(_Engine(1e-20).table((0.0, 0.0, 0.1), 20))
    assert any(zero is not None for _, zero in engine.betas.values())
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        _Engine(1e-20).table((0.3, -0.2, 0.1), 20)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            engine.table((0.3, -0.2, 0.1), 20)


def test_the_store_keeps_to_its_budget(monkeypatch):
    want = [_hex(_Engine(0.7).table(x, kmax)) for x, kmax in (((0.4, -0.3, 0.2), 24), ((0.1, 0.5, 0.0, 0.3), 16))]
    monkeypatch.setattr(partitions, "_BETA_STORE", 5000)
    engine = _Engine(0.7)
    for _ in range(2):
        got = [_hex(engine.table(x, kmax)) for x, kmax in (((0.4, -0.3, 0.2), 24), ((0.1, 0.5, 0.0, 0.3), 16))]
        assert got == want
        assert engine.stored == sum(len(beta) for beta, _ in engine.betas.values())
        assert 0 < engine.stored <= 5000


def test_the_pass_size_does_not_move_a_bit_in_a_fresh_engine(monkeypatch):
    al, x, kmax = 0.7, (0.4, -0.3, 0.0, 0.2), 14
    want = _hex(_Engine(al).table(x, kmax))
    for budget in (1, 7, 1 << 30):  # one partition per pass; a few; one pass per shell
        monkeypatch.setattr(partitions, "_PASS_ELEMENTS", budget)
        assert _hex(_Engine(al).table(x, kmax)) == want
