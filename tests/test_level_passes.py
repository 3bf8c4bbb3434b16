"""A level walked in NumPy passes that span shells: warm engines and tables that grow a level
give the bits of a fresh engine at any pass size, a zero denominator in a pass that spans
shells still raises, no pass warns, and no branching-kernel call outgrows the pass budget."""

from __future__ import annotations

import contextlib
import io
import warnings

import pytest

import tubekernels.cli as cli
import tubekernels.partitions as partitions
from tubekernels.partitions import _Engine

BUDGETS = (7, 500, None, 1 << 30)  # None: the default pass size
POINTS = ((0.4, -0.3, 0.2), (0.0, 0.5, -0.6), (0.3, 0.0, -0.2, 0.6), (0.2, -0.1, 0.0, 0.4, -0.3))


def _hex(table):
    return [(kappa, value.hex()) for kappa, value in table.items()]


def _budget(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(partitions, "_PASS_ELEMENTS", budget)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("al", [0.5, 2.5])
def test_warm_engines_and_grown_levels_give_the_bits_of_a_fresh_engine(monkeypatch, al, budget):
    want = {(x, kmax): _hex(_Engine(al).table(x, kmax)) for x in POINTS for kmax in (8, 12, 20)}
    _budget(monkeypatch, budget)
    for x in POINTS:
        grown = _Engine(al)  # degree 12, then 20 at the same alpha, then a prefix of both
        for kmax in (12, 20, 8):
            assert _hex(grown.table(x, kmax)) == want[x, kmax], (x, kmax)
    warm = _Engine(al)  # every level already built at another point and rank
    for x in POINTS:
        warm.table(tuple(0.5 - v for v in x), 20)
    for x in POINTS[::-1]:
        assert _hex(warm.table(x, 20)) == want[x, 20], x


def test_a_level_spans_shells_in_few_passes(monkeypatch):
    monkeypatch.setattr(partitions, "_PLANS", {})
    kap, strips, pairs, degree, first, passes, _, _ = partitions._plan(3, 20)
    assert len(passes) < len(first) - 1  # fewer passes than shells
    assert any(degree[a] != degree[b - 1] for a, b in passes)
    assert [a for a, _ in passes[1:]] == [b for _, b in passes[:-1]] and passes[-1][1] == len(degree)


class _LookedUp(dict):
    """An engine's coefficient store that keeps the key of the last pass looked up."""

    last = None

    def get(self, key, default=None):
        self.last = key
        return super().get(key, default)


@pytest.mark.parametrize("budget", [None, 1 << 30])
def test_a_zero_denominator_in_a_pass_spanning_shells_raises(monkeypatch, budget):
    _budget(monkeypatch, budget)
    stored = _Engine(1e-20)  # every pass stored with its zero mask, from a point that uses none
    stored.table((0.0, 0.0, 0.1), 20)
    assert any(zero is not None for _, zero in stored.passes.values())
    for engine in (_Engine(1e-20), stored):
        engine.passes = _LookedUp(engine.passes)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
                engine.table((0.3, -0.2, 0.1), 20)
            n, a, b = engine.passes.last  # the pass that raised
            degree = partitions._plan(n, 20)[3]
            assert degree[a] < degree[b - 1]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("al", [1e-5, 1.0, 1e5, 1e20])
def test_no_pass_warns(monkeypatch, al, budget):
    _budget(monkeypatch, budget)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine = _Engine(al)
        for x in ((0.6, 0.3, -0.2, 0.0), (0.0, 0.0, 0.7), (0.5, -0.4, 0.3)):
            table = engine.table(x, 14)
            assert table[()] == 1.0


# The distinct ops of one series-r3 benchmark pass (seed 1): rank-3 series at k_max 20 and 30,
# m in {1, 2}, a rank-3 spherical function with and without --xform, and a rank-4 series.
SERIES_R3 = (
    "eval-2f1 --a 0.419632 --b 0.626599+0.231796j --c 0.626599+0.231796j --m 2 --x=0.054323,-0.076413,0.063327 "
    "--kmax 20",
    "eval-2f1 --a 0.416472 --b 2.497886+0.632337j --c 2.497886+0.632337j --m 1 --x=0.105982,0.094014,0.112054 "
    "--kmax 20",
    "eval-2f1 --a 0.884627 --b 1.310418+0.371954j --c 1.310418+0.371954j --m 2 --x=0.178177,0.075030,0.089884",
    "eval-spherical --r 3 --m 2 --lambda 0.966339+0.438975j --nu 0 --t 0.338460,0.197174,0.070825",
    "eval-spherical --r 3 --m 2 --lambda 0.966339+0.438975j --nu 0 --t 0.338460,0.197174,0.070825 --xform",
    "eval-2f1 --a 0.786364 --b 0.701337+0.776574j --c 0.701337+0.776574j --m 1 --x=0.095699,0.120497,-0.225107",
    "eval-2f1 --a 0.542484 --b 2.337748+0.260375j --c 2.337748+0.260375j --m 2 "
    "--x=0.143421,-0.163918,-0.104760,-0.082491",
)


def test_no_branching_kernel_call_outgrows_the_pass_budget_on_a_series_r3_pass(monkeypatch):
    calls = []
    kernel = _Engine._betas

    def betas(self, kappa, mu, koff, moff):
        one_kappa = (kappa == kappa[:, :1]).all()
        calls.append((int(kappa[0].max(initial=0)) * kappa.shape[1], kappa.shape[1], one_kappa))
        return kernel(self, kappa, mu, koff, moff)

    monkeypatch.setattr(_Engine, "_betas", betas)
    partitions._engine.cache_clear()
    partitions._jack_table_cached.cache_clear()
    for argv in SERIES_R3:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv.split()) == 0, argv
    assert len(calls) > 100
    over = [(size, pairs) for size, pairs, one_kappa in calls if size > partitions._PASS_ELEMENTS and not one_kappa]
    assert not over
    assert max(pairs for _, pairs, _ in calls) > 1000  # the passes are not one kappa each
