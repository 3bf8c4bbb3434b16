"""The x-independent work of a Jack table in whole-shell NumPy passes: the hook products and
C normalizations of every partition against their scalar loops, bit for bit, at any pass
size; each shell enumerated once per process; and no warning from the padded lanes."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import tubekernels.partitions as partitions
from tubekernels.partitions import _conjugate, _Engine, _partition_tuples, _shell

ALPHAS = (0.5, 2 / 3, 1.0, 2.0, 3.0)
KMAX = 40


def _scalar_column_hooks(parts, conj, al):
    """Per-column products of upper and lower hook lengths, one box at a time."""
    ncols = len(conj)
    upper = [1.0] * ncols
    lower = [1.0] * ncols
    for j in range(1, ncols + 1):
        height = conj[j - 1]
        u = 1.0
        lo = 1.0
        for i in range(1, height + 1):
            u *= height - i + al * (parts[i - 1] - j + 1)
            lo *= height - i + 1 + al * (parts[i - 1] - j)
        upper[j - 1] = u
        lower[j - 1] = lo
    return upper, lower


def _scalar_c_norm(parts, conj, al):
    """alpha^|kappa| |kappa|! / (c_kappa c'_kappa), one box at a time, row by row."""
    out = 1.0
    m = 0
    for i, p in enumerate(parts, start=1):
        for j in range(1, p + 1):
            m += 1
            arm = p - j
            leg = conj[j - 1] - i
            out *= al * m / ((leg + al * (arm + 1)) * (leg + 1 + al * arm))
    return out


_ORACLE: dict = {}


def _oracle(parts, al):
    """The interleaved (upper, lower) column products and the C normalization, by the scalar loops."""
    if (parts, al) not in _ORACLE:
        conj = _conjugate(parts)
        upper, lower = _scalar_column_hooks(parts, conj, al)
        _ORACLE[parts, al] = [v for pair in zip(upper, lower) for v in pair], _scalar_c_norm(parts, conj, al)
    return _ORACLE[parts, al]


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("budget", [None, 2000])
@pytest.mark.parametrize("al", ALPHAS)
def test_hook_store_and_c_norms_match_the_scalar_loops_bitwise(monkeypatch, al, budget):
    if budget is not None:
        monkeypatch.setattr(partitions, "_PASS_ELEMENTS", budget)
    passes = []
    hook_pass = partitions._hook_pass
    monkeypatch.setattr(partitions, "_hook_pass", lambda *args: passes.append(1) or hook_pass(*args))
    for rank in (3, 4, 5):
        shells = [parts for k in range(KMAX + 1) for parts in _partition_tuples(k, rank)]
        engine, widths = _Engine(al), [parts[0] if parts else 0 for parts in shells]
        passes.clear()
        offsets = engine._offsets(shells)
        assert len(passes) > (1 if budget is None else 20)
        # a fresh engine lays the partitions out in order after its padding column
        assert offsets.tolist() == (1 + np.cumsum(widths) - widths).tolist()
        want_hooks = np.array([v for parts in shells for v in _oracle(parts, al)[0]])
        want_norms = np.array([_oracle(parts, al)[1] for parts in shells])
        norms = np.array([engine[parts][1] for parts in shells])
        if engine.hooks[2:].tobytes() != want_hooks.tobytes() or norms.tobytes() != want_norms.tobytes():
            bad = next(parts for parts, offset, width in zip(shells, offsets.tolist(), widths)
                       if (_hex(engine.hooks[2 * offset:2 * (offset + width)].tolist()), engine[parts][1].hex())
                       != (_hex(_oracle(parts, al)[0]), _oracle(parts, al)[1].hex()))
            pytest.fail(f"rank {rank}: the pass and the scalar loops differ in the bits at {bad}")


@pytest.mark.parametrize("al", ALPHAS)
def test_one_partition_views_match_the_scalar_loops_bitwise(al):
    for parts in [()] + [parts for k in range(1, 16) for parts in _partition_tuples(k, 5)]:
        conj = _conjugate(parts)
        upper, lower = partitions._column_hooks(parts, conj, al)
        got = _hex(v for pair in zip(upper, lower) for v in pair), partitions._c_norm(parts, conj, al).hex()
        assert got == (_hex(_oracle(parts, al)[0]), _oracle(parts, al)[1].hex()), parts


def test_each_shell_is_enumerated_once_and_keys_the_engine():
    for n in (1, 2, 3, 5):
        for k in range(0, 25):
            assert _shell(k, n) == tuple(_partition_tuples(k, n))
            assert _shell(k, n) is _shell(k, n)
    engine = _Engine(0.9)
    engine.table((0.5, -0.2, 0.1), 20)
    cached = {id(parts) for n in (1, 2, 3) for k in range(21) for parts in _shell(k, n)}
    assert len(engine) == sum(len(_shell(k, 3)) for k in range(21))
    assert all(id(parts) in cached for parts in engine)


@pytest.mark.parametrize("al", [1e-5, 0.5, 1.0, 3.0, 1e5])
def test_a_level_build_warns_about_no_padded_lane(al):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _Engine(al).table((0.6, 0.3, -0.2, 0.0), 18)
    assert table[()] == 1.0
