"""The record a level pass keeps once its strips and coefficients are stored: tables read from it give
the bits of a fresh engine with both stores empty, at any alpha, rank, pass size and store budget; a
warm pass decodes no strip and gathers no coefficient; and only stored passes are kept."""

from __future__ import annotations

import collections

import numpy as np
import pytest

import tubekernels.partitions as partitions
from tubekernels.partitions import _Engine

ALPHAS = (0.5, 1.0, 2.0, 4.0)
# ranks 3 to 5, mixed signs; a zero x_1 makes every sub of degree > 0 zero at level 2, and a zero
# last coordinate leaves only the strips with skip 0
POINTS = ((0.4, -0.3, 0.2), (0.0, 0.5, -0.6), (0.3, -0.2, 0.0), (0.3, 0.0, -0.2, 0.6), (0.2, -0.1, 0.0, 0.4, -0.3))
KMAX = {3: 24, 4: 16, 5: 12}
SMALL = {"_PASS_ELEMENTS": 300, "_BETA_STORE": 4000}


def _hex(table):
    return [(kappa, value.hex()) for kappa, value in table.items()]


def _empty(monkeypatch):
    monkeypatch.setattr(partitions, "_STRIPS", partitions._Strips())


def _small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(partitions, name, value)


def _cases():
    return [(x, kmax) for x in POINTS for kmax in (KMAX[len(x)] // 2, KMAX[len(x)])]


def _fresh(monkeypatch):
    """Every case's table from a fresh engine, with the strip store emptied before each."""
    want = {}
    for al in ALPHAS:
        for x, kmax in _cases():
            _empty(monkeypatch)
            want[al, x, kmax] = _hex(_Engine(al).table(x, kmax))
    return want


@pytest.mark.parametrize("small", [False, True])
def test_tables_read_from_kept_passes_give_the_bits_of_empty_stores(monkeypatch, small):
    if small:
        _small(monkeypatch)
    want = _fresh(monkeypatch)
    _empty(monkeypatch)
    for al in ALPHAS:
        engine = _Engine(al)
        for _ in range(3):  # cold, then read back and kept, then read from the record
            for x, kmax in _cases():
                assert _hex(engine.table(x, kmax)) == want[al, x, kmax], (al, x, kmax)
        assert engine.passes
        for x, kmax in _cases():  # at new points
            shifted = tuple(0.5 - v for v in x)
            assert _hex(engine.table(shifted, kmax)) == _hex(_Engine(al).table(shifted, kmax)), (al, x, kmax)
    assert partitions._STRIPS.records


def test_a_warm_pass_decodes_no_strip_and_gathers_no_coefficient(monkeypatch):
    _empty(monkeypatch)
    engine = _Engine(1.0)
    for x in ((0.3, -0.2, 0.1), (0.2, 0.1, -0.3)):  # cold, then stored passes read back and kept
        engine.table(x, 30)
    calls = collections.Counter()

    def spy(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(partitions, "_strip_slots", spy("_strip_slots", partitions._strip_slots))
    for name in ("_betas", "_pass_betas"):
        monkeypatch.setattr(_Engine, name, spy(name, getattr(_Engine, name)))
    want = _hex(_Engine(1.0).table((0.25, -0.15, 0.05), 30))
    calls.clear()
    assert _hex(engine.table((0.25, -0.15, 0.05), 30)) == want
    assert not calls
    # the kept record: skips as uint8, each coefficient array a view of its shell's where the pass lies in one
    degree = partitions._plan(3, 30)[3]
    for (n, a, b), (slot, skip, inside, beta, zero) in engine.passes.items():
        assert skip.dtype == np.uint8 and len(skip) == len(slot) == len(beta) == inside.sum()
        kept_skip, kept_inside = partitions._STRIPS.records[n, a, b]
        assert kept_skip is skip and kept_inside is inside and slot is partitions._STRIPS[n, a, b]
        if n == 3 and degree[a] == degree[b - 1]:
            assert np.shares_memory(beta, engine.betas[n, degree[a]][0])


def test_only_stored_passes_are_kept(monkeypatch):
    _small(monkeypatch)
    _empty(monkeypatch)
    engines = [_Engine(al) for al in (0.5, 2.0)]
    for engine in engines:
        for _ in range(2):
            for x, kmax in _cases():
                engine.table(x, kmax)
    assert partitions._STRIPS.held <= SMALL["_BETA_STORE"]
    assert partitions._STRIPS.records and partitions._STRIPS.records.keys() <= partitions._STRIPS.keys()
    for engine in engines:
        assert engine.passes and engine.passes.keys() <= partitions._STRIPS.records.keys()
        assert engine.stored <= SMALL["_BETA_STORE"]
        plans = {n: partitions._plan(n, KMAX[3]) for n in range(2, 6)}
        for n, a, b in engine.passes:
            shells = range(plans[n][3][a], plans[n][3][b - 1] + 1)
            assert all((n, k) in engine.betas for k in shells)


def test_a_zero_denominator_raises_from_a_kept_pass(monkeypatch):
    _empty(monkeypatch)
    stored = _Engine(1e-20)  # coefficients and their zero masks stored from points that use none
    for _ in range(2):
        stored.table((0.0, 0.0, 0.1), 20)
    assert any(zero is not None for *_, zero in stored.passes.values())
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
            stored.table((0.3, -0.2, 0.1), 20)
