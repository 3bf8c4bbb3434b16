"""The per-process store of each level pass's strips, as their slots at the level below:
tables that read it at any alpha, point and pass size give the bits of a fresh engine with the
store empty, each pass is decoded once per process, a pass whose coefficients are all stored
decodes no mu rows, and the store keeps to the coefficient budget's count of strips."""

from __future__ import annotations

import collections

import numpy as np
import pytest

import tubekernels.partitions as partitions
from tubekernels.partitions import _Engine

DEFAULT = partitions._PASS_ELEMENTS
BUDGETS = (7, 500, None)  # None: the default pass size
ALPHAS = (0.5, 1.0, 2.0, 4.0)
# ranks 3 to 5, each with an exact zero and mixed signs
POINTS = ((0.4, -0.3, 0.0), (0.0, 0.5, -0.6, 0.3), (0.2, -0.1, 0.0, 0.4, -0.3))
KMAX = {3: 24, 4: 16, 5: 12}


def _hex(table):
    return [(kappa, value.hex()) for kappa, value in table.items()]


def _empty(monkeypatch):
    monkeypatch.setattr(partitions, "_STRIPS", partitions._Strips())


def _budget(monkeypatch, budget):
    monkeypatch.setattr(partitions, "_PASS_ELEMENTS", DEFAULT if budget is None else budget)


def _cases():
    """Each point at half its degree, then at its whole: the first table's last pass is cut short."""
    return [(x, kmax) for x in POINTS for kmax in (KMAX[len(x)] // 2, KMAX[len(x)])]


def _fresh(monkeypatch, alphas):
    """Every case's table from a fresh engine with the store emptied before it."""
    want = {}
    for al in alphas:
        for x, kmax in _cases():
            _empty(monkeypatch)
            want[al, x, kmax] = _hex(_Engine(al).table(x, kmax))
    return want


@pytest.mark.parametrize("budget", BUDGETS)
def test_tables_read_from_a_warm_store_give_the_bits_of_an_empty_one(monkeypatch, budget):
    want = _fresh(monkeypatch, ALPHAS)
    _empty(monkeypatch)
    for warm in [b for b in BUDGETS if b != budget] + [budget]:  # other pass sizes first, then this one
        _budget(monkeypatch, warm)
        engine = _Engine(3.0)
        for x, kmax in _cases():
            engine.table(tuple(0.5 - v for v in x), kmax)
    assert partitions._STRIPS.held > 0
    _budget(monkeypatch, budget)
    for al in ALPHAS:
        engine = _Engine(al)  # no coefficient stored: the strips' mu rows are decoded again
        for x, kmax in _cases():
            assert _hex(engine.table(x, kmax)) == want[al, x, kmax], (al, x, kmax)
        for x, kmax in _cases()[::-1]:  # every coefficient stored
            assert _hex(engine.table(x, kmax)) == want[al, x, kmax], (al, x, kmax)


def test_each_pass_is_decoded_once_per_process_across_alphas(monkeypatch):
    _empty(monkeypatch)
    decoded, walked, cold = collections.Counter(), set(), []
    strip_slots, pass_betas = partitions._strip_slots, _Engine._pass_betas

    def slots_spy(n, plan, a, b, mu):
        decoded[n, a, b] += 1
        return strip_slots(n, plan, a, b, mu)

    def betas_spy(self, n, plan, a, b, args, building):
        walked.add((n, a, b))
        cold.append(args is not None)
        return pass_betas(self, n, plan, a, b, args, building)

    monkeypatch.setattr(partitions, "_strip_slots", slots_spy)
    monkeypatch.setattr(_Engine, "_pass_betas", betas_spy)
    for al in (0.5, 2.0):
        engine = _Engine(al)
        for x, kmax in _cases():
            engine.table(x, kmax)
        cold.clear()
        for x, kmax in _cases():  # a second pass over the same tables finds every coefficient stored
            engine.table(tuple(-v for v in x), kmax)
        assert cold and not any(cold)
    assert decoded.keys() == walked and set(decoded.values()) == {1}
    for (n, _, _), slot in partitions._STRIPS.items():  # compact: no wider than the level below needs
        below = partitions._plan(n, KMAX[3])[7][-1]
        assert slot.dtype.kind == "u" and slot.dtype.itemsize <= np.min_scalar_type(below).itemsize


def test_the_store_keeps_to_the_coefficient_budget(monkeypatch):
    want = _fresh(monkeypatch, (0.5, 2.0))
    _empty(monkeypatch)
    monkeypatch.setattr(partitions, "_BETA_STORE", 5000)
    walked = collections.Counter()
    strip_slots = partitions._strip_slots

    def slots_spy(n, plan, a, b, mu):
        walked[n, a, b] = mu.shape[1]
        return strip_slots(n, plan, a, b, mu)

    monkeypatch.setattr(partitions, "_strip_slots", slots_spy)
    for al in (0.5, 2.0):
        engine = _Engine(al)
        for x, kmax in _cases() + _cases()[::-1]:
            assert _hex(engine.table(x, kmax)) == want[al, x, kmax], (al, x, kmax)
    held = sum(map(len, partitions._STRIPS.values()))
    assert sum(walked.values()) > 5000 >= held == partitions._STRIPS.held > 0


@pytest.mark.parametrize("budget", [None, 1 << 30])
def test_a_zero_denominator_raises_from_a_warm_store(monkeypatch, budget):
    _empty(monkeypatch)
    _budget(monkeypatch, budget)
    _Engine(1.0).table((0.3, -0.2, 0.1), 20)  # every pass decoded at another alpha
    stored = _Engine(1e-20)  # coefficients and their zero masks stored from a point that uses none
    stored.table((0.0, 0.0, 0.1), 20)
    for engine in (_Engine(1e-20), stored):
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
                engine.table((0.3, -0.2, 0.1), 20)
