"""Monte Carlo blocks run in a bounded window: a failing block stops an estimate after at most
two blocks per worker have started, and the window merges every block in block order, so an
estimate keeps the bits of one Chan merge over all blocks at any worker count."""

from __future__ import annotations

import functools

import numpy as np
import pytest

import tubekernels.shilov as shilov


@pytest.mark.parametrize("workers", [1, 3])
def test_a_failing_first_block_stops_an_estimate_at_the_samples_bound(monkeypatch, workers):
    calls, haar_block = [], shilov._haar_block

    def block(n, seed, block_index, count):
        calls.append(block_index)
        if block_index == 0:
            raise RuntimeError("block 0")
        return haar_block(n, seed, block_index, count)

    monkeypatch.setattr(shilov, "_haar_block", block)
    with pytest.raises(RuntimeError, match="^block 0$"):
        shilov.mc_integrate_vector(lambda us: us[:, 0, 0], 2, shilov.MAX_SAMPLES, 1, workers=workers)
    assert 0 in calls and len(calls) <= 2 * workers


def _integrand(us):
    return np.stack([us[:, 0, 0], np.abs(us[:, 0, 1]) ** 2], axis=1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_window_merges_every_block_in_block_order(workers):
    samples, seed = 11 * shilov.BLOCK + 5, 9  # twelve blocks, more than any window here
    stats = [shilov._block_stats(_integrand(shilov._haar_block(2, seed, bi, min(shilov.BLOCK, samples - start))),
                                 start)
             for bi, start in enumerate(range(0, samples, shilov.BLOCK))]
    count, mean, m2 = functools.reduce(shilov._merge, stats)
    stderr = np.sqrt(m2 / (count - 1) / count)
    got = shilov.mc_integrate_vector(_integrand, 2, samples, seed, workers=workers)
    assert [(e.mean, e.stderr, e.samples) for e in got] == [(complex(m), float(s), samples)
                                                           for m, s in zip(mean, stderr)]
