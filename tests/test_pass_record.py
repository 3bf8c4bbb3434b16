"""The record a level pass keeps, its layout once per process and its coefficients once per engine:
tables read from it give the bits of a fresh engine with both stores empty, at any alpha, rank, pass
size and store budget; a table after one cold table at the same alpha builds no pass; a warm pass
decodes no strip and gathers no coefficient; and both stores keep to their budget."""

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
    monkeypatch.setattr(partitions, "_LAYOUTS", {})
    monkeypatch.setattr(partitions, "_HELD", 0)


def _small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(partitions, name, value)


def _cases():
    return [(x, kmax) for x in POINTS for kmax in (KMAX[len(x)] // 2, KMAX[len(x)])]


def _fresh(monkeypatch):
    """Every case's table from a fresh engine, with the layout store emptied before each."""
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
        for _ in range(3):  # cold, then read from the stores twice
            for x, kmax in _cases():
                assert _hex(engine.table(x, kmax)) == want[al, x, kmax], (al, x, kmax)
        assert engine.passes
        for x, kmax in _cases():  # at new points
            shifted = tuple(0.5 - v for v in x)
            assert _hex(engine.table(shifted, kmax)) == _hex(_Engine(al).table(shifted, kmax)), (al, x, kmax)
    assert partitions._LAYOUTS


def _spy(monkeypatch, calls):
    """Count the calls of the pass builder, the slot decoder and the branching kernel."""
    def counted(name, original):
        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return count

    monkeypatch.setattr(partitions, "_strip_slots", counted("_strip_slots", partitions._strip_slots))
    for name in ("_pass", "_betas"):
        monkeypatch.setattr(_Engine, name, counted(name, getattr(_Engine, name)))


@pytest.mark.parametrize("al", ALPHAS)
def test_a_table_after_one_cold_table_builds_no_pass(monkeypatch, al):
    _empty(monkeypatch)
    engine = _Engine(al)
    for x, kmax in _cases()[1::2]:  # cold tables at ranks 3 to 5
        engine.table(x, kmax)
    want = {(x, kmax): _hex(_Engine(al).table(tuple(0.5 - v for v in x), kmax)) for x, kmax in _cases()[1::2]}
    calls = collections.Counter()
    _spy(monkeypatch, calls)
    for x, kmax in _cases()[-1::-2]:  # new points, the ranks in reverse order
        assert _hex(engine.table(tuple(0.5 - v for v in x), kmax)) == want[x, kmax], (al, x, kmax)
    assert not calls


def test_a_warm_pass_decodes_no_strip_and_gathers_no_coefficient(monkeypatch):
    _empty(monkeypatch)
    engine = _Engine(1.0)
    for x in ((0.3, -0.2, 0.1), (0.2, 0.1, -0.3)):  # cold, then read from the stores
        engine.table(x, 30)
    want = _hex(_Engine(1.0).table((0.25, -0.15, 0.05), 30))
    calls = collections.Counter()
    _spy(monkeypatch, calls)
    assert _hex(engine.table((0.25, -0.15, 0.05), 30)) == want
    assert not calls
    # the kept record: compact slots, skips as uint8, one coefficient per strip
    for (n, a, b), (beta, zero) in engine.passes.items():
        slot, skip, inside = partitions._LAYOUTS[n, a, b]
        assert slot.dtype.kind == "u" and skip.dtype == np.uint8
        assert len(skip) == len(slot) == len(beta) == inside.sum()


def test_only_stored_passes_are_kept(monkeypatch):
    _small(monkeypatch)
    _empty(monkeypatch)
    engines = [_Engine(al) for al in (0.5, 2.0)]
    for engine in engines:
        for _ in range(2):
            for x, kmax in _cases():
                engine.table(x, kmax)
    layouts = partitions._LAYOUTS
    assert 0 < partitions._HELD == sum(len(slot) for slot, _, _ in layouts.values()) <= SMALL["_BETA_STORE"]
    walked = set()  # every pass of the cases' levels, cut short at each degree asked
    for x, kmax in _cases():
        for n in range(2, len(x) + 1):
            first, passes = partitions._plan(n, kmax)[4:6]
            walked |= {(n, a, min(b, first[kmax + 1])) for a, b in passes if a < first[kmax + 1]}
    assert layouts.keys() < walked  # the budget leaves some passes out
    for engine in engines:
        assert 0 < engine.stored == sum(len(beta) for beta, _ in engine.passes.values()) <= SMALL["_BETA_STORE"]
        assert engine.passes.keys() < walked


def test_a_zero_denominator_raises_from_a_kept_pass(monkeypatch):
    _empty(monkeypatch)
    stored = _Engine(1e-20)  # coefficients and their zero masks stored from points that use none
    for _ in range(2):
        stored.table((0.0, 0.0, 0.1), 20)
    assert any(zero is not None for _, zero in stored.passes.values())
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
            stored.table((0.3, -0.2, 0.1), 20)
