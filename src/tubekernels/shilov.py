"""Haar sampling on U(n) and boundary integration (Monte Carlo + circle quadrature).

Reproducibility contract: sample i is generated from a counter-based stream
keyed by (seed, i // BLOCK) with a fixed internal block length, and block
results are merged in block order.  Each component of an estimate is
therefore a pure function of (seed, samples) - bitwise identical no matter
how many workers run the blocks, and no matter how many other components the
integrand returns beside it, since each block reduces every component over
its own contiguous row.
"""

from __future__ import annotations

import collections
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import DomainSpec, LineBundleParams, _kernel_side, poisson_kernel_batch
from .errors import InvalidArgumentError, NonFiniteSampleError

__all__ = [
    "BLOCK",
    "MAX_NODES",
    "MAX_SAMPLES",
    "MAX_WORKERS",
    "McEstimate",
    "BoundaryFunction",
    "haar_unitary",
    "philox_generator",
    "mc_integrate",
    "mc_integrate_vector",
    "circle_quadrature",
    "poisson_transform",
]

# Fixed algorithmic block length; part of the reproducibility contract,
# never tied to the worker count.
BLOCK = 8192
MAX_NODES = 1 << 20  # the most nodes circle_quadrature builds (16 MiB of complex nodes)
MAX_SAMPLES = 1 << 28  # the most Haar samples an estimate draws: 32768 blocks
MAX_WORKERS = 32  # the most threads an estimate's pool starts; 2 blocks per worker are in flight

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error and sample count.

    stderr combines the sample variances of the real and imaginary parts in
    quadrature: sqrt((var_re + var_im) / samples).
    """

    mean: complex
    stderr: float
    samples: int

    def z_score(self, reference: complex) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.mean == reference else float("inf")
        return abs(self.mean - reference) / self.stderr


@dataclass(frozen=True)
class BoundaryFunction:
    """Scalar integrand on U(n); ``batch`` is an optional vectorized form.

    ``fn`` maps one (n, n) unitary to a complex number; ``batch`` maps a
    (B, n, n) stack to a length-B complex array and must agree with ``fn``.
    """

    fn: Callable[[np.ndarray], complex]
    tag: str = ""
    batch: Callable[[np.ndarray], np.ndarray] | None = None


def philox_generator(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed mod 2^64, stream); any integer seed is valid."""
    return np.random.Generator(np.random.Philox(key=np.array([int(seed) & _MASK64, stream], dtype=np.uint64)))


def _ginibre(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, n, n) complex Ginibre matrices (a + i b)/sqrt(2): the real parts are
    drawn first, each written straight into the complex buffer."""
    z = np.empty((count, n, n), dtype=complex)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(rng.standard_normal((count, n, n)), scale, out=z.real)
    np.multiply(rng.standard_normal((count, n, n)), scale, out=z.imag)
    return z


def _haar_stack(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, n, n) Haar unitaries (Mezzadri 2007).

    Complex Ginibre matrices, QR factorization, then each column rescaled by
    the unit phase of the matching diagonal entry of R.
    """
    q, r = np.linalg.qr(_ginibre(rng, n, count))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed n x n unitary drawn from ``rng``."""
    if n < 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    return _haar_stack(rng, n, 1)[0]


def _haar_block(n: int, seed: int, block_index: int, count: int) -> np.ndarray:
    """Haar samples for one block, from its private counter-based stream."""
    return _haar_stack(philox_generator(seed, block_index), n, count)


def _merge(stats_a, stats_b):
    """Chan merge of (count, mean, m2) accumulators (vector-valued)."""
    na, mean_a, m2a = stats_a
    nb, mean_b, m2b = stats_b
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * (nb / n)
    m2 = m2a + m2b + np.abs(delta) ** 2 * (na * nb / n)
    return n, mean, m2


def _check_finite(vals: np.ndarray, start_index: int) -> None:
    """Raise NonFiniteSampleError naming the first row with a non-finite part."""
    bad = ~(np.isfinite(vals.real) & np.isfinite(vals.imag))
    if np.any(bad):
        rows = bad.reshape(bad.shape[0], -1).any(axis=1)
        raise NonFiniteSampleError(start_index + int(np.argmax(rows)))


def _block_stats(values: np.ndarray, start_index: int):
    vals = np.asarray(values, dtype=complex)
    if vals.ndim == 1:
        vals = vals[:, None]
    _check_finite(vals, start_index)
    # one contiguous row per component, so each row reduces exactly as it would alone
    cols = np.ascontiguousarray(vals.T)
    mean = cols.mean(axis=1)
    m2 = np.sum(np.abs(cols - mean[:, None]) ** 2, axis=1)
    return vals.shape[0], mean, m2


def _check_workers(workers: int) -> None:
    if not 1 <= workers <= MAX_WORKERS:
        raise InvalidArgumentError(f"workers must be >= 1 and <= {MAX_WORKERS}, got {workers}")


def _check_count(what: str, count: int) -> None:
    """Refuse a count of Monte Carlo "samples" or quadrature "nodes" outside the range the library builds."""
    low, high = {"samples": (2, MAX_SAMPLES), "nodes": (8, MAX_NODES)}[what]
    if not low <= count <= high:
        raise InvalidArgumentError(f"need {low} to {high} {what}, got {count}")


def _run_blocks(batch_values, n: int, samples: int, seed: int, workers: int):
    """Evaluate `batch_values(us)` over Haar blocks in a pool of `workers` threads and merge them in block order.
    At most two blocks per worker are submitted ahead of the merge, so a failing block ends the estimate early."""
    _check_count("samples", samples)
    _check_workers(workers)
    nblocks = (samples + BLOCK - 1) // BLOCK

    # NumPy's floating-point warnings are off while blocks are evaluated and merged (errstate is
    # per thread, so each pool thread sets its own): what they flag is a non-finite value, which
    # _check_finite or the report's JSON renderer rejects.
    def one_block(bi: int):
        start = bi * BLOCK
        count = min(BLOCK, samples - start)
        us = _haar_block(n, seed, bi, count)
        with np.errstate(all="ignore"):
            return _block_stats(batch_values(us), start)

    with ThreadPoolExecutor(max_workers=workers) as pool, np.errstate(all="ignore"):
        blocks = iter(range(nblocks))
        window = collections.deque(pool.submit(one_block, bi) for bi in itertools.islice(blocks, 2 * workers))
        stats = None
        while window:
            block = window.popleft().result()
            window.extend(pool.submit(one_block, bi) for bi in itertools.islice(blocks, 1))
            stats = block if stats is None else _merge(stats, block)
        count, mean, m2 = stats
        stderr = np.sqrt(m2 / (count - 1) / count)
    return mean, stderr, count


def _values(f: BoundaryFunction, us: np.ndarray) -> np.ndarray:
    """f on a (B, n, n) stack: its batched form when it has one, else point by point."""
    if f.batch is not None:
        return np.asarray(f.batch(us), dtype=complex)
    return np.array([f.fn(u) for u in us], dtype=complex)


def mc_integrate_vector(
    batch_fn: Callable[[np.ndarray], np.ndarray], n: int, samples: int, seed: int, *, workers: int = 1
) -> list[McEstimate]:
    """Monte Carlo integrals of a vector-valued batched integrand over U(n).

    ``batch_fn`` maps a (B, n, n) stack of unitaries to a (B, K) array (or a
    length-B array, K = 1); all K components share the same Haar samples and
    are averaged with normalized Haar measure.
    """
    mean, stderr, count = _run_blocks(batch_fn, n, samples, seed, workers)
    return [McEstimate(mean=complex(m), stderr=float(s), samples=count) for m, s in zip(mean, stderr)]


def mc_integrate(
    f: BoundaryFunction, n: int, samples: int, seed: int, *, workers: int = 1
) -> McEstimate:
    """Monte Carlo integral of f over U(n): the K = 1 view of :func:`mc_integrate_vector`."""
    return mc_integrate_vector(lambda us: _values(f, us), n, samples, seed, workers=workers)[0]


def circle_quadrature(f: Callable[[complex], complex] | BoundaryFunction, nodes: int) -> complex:
    """Trapezoidal rule on the unit circle with normalized measure, on 8 to ``MAX_NODES`` nodes.

    Equispaced angles make this spectrally accurate for analytic integrands
    (exact for trigonometric polynomials of degree < nodes).  ``f`` is a
    function of one point of the circle, or a BoundaryFunction on U(1), which
    sees the nodes as a (nodes, 1, 1) stack.
    """
    _check_count("nodes", nodes)
    thetas = 2.0 * np.pi * np.arange(nodes) / nodes
    us = np.exp(1j * thetas)
    g = f if isinstance(f, BoundaryFunction) else BoundaryFunction(fn=lambda u: f(u[0, 0]))
    with np.errstate(all="ignore"):  # a value NumPy would warn about is non-finite, and rejected next
        vals = _values(g, us[:, None, None])
    _check_finite(vals, 0)
    return complex(vals.mean())


def poisson_transform(spec: DomainSpec, params: LineBundleParams, f: BoundaryFunction, z, samples: int, seed: int, *,
                      workers: int = 1, nodes: int = 512) -> McEstimate:
    """The Poisson integral of boundary data f at the interior point z.

    The integrand is the batched kernel times f, and the boundary picks the rule: exact circle
    quadrature (stderr 0) on U(1), the disk's and type I_{1,1}'s; Haar Monte Carlo with the module's
    reproducible stream layout on U(n), n > 1, the only rule that reads ``seed``.  A family with no
    kernel realization is refused before any draw.  ``workers`` must be 1 to ``MAX_WORKERS``.
    """
    side = _kernel_side(spec)
    integrand = BoundaryFunction(fn=None, batch=lambda us: poisson_kernel_batch(spec, params, z, us) * _values(f, us))
    if side == 1:
        _check_workers(workers)
        return McEstimate(mean=circle_quadrature(integrand, nodes), stderr=0.0, samples=nodes)
    return mc_integrate_vector(integrand.batch, side, samples, seed, workers=workers)[0]
