"""Partitions, generalized Pochhammer symbols, and Jack polynomials.

The Jack values produced here are in the C normalization, pinned operationally
by the sum rule

    sum_{|kappa| = k} C_kappa(x_1, ..., x_r) = (x_1 + ... + x_r)^k,

which is the property the multivariate hypergeometric series is built on.
Evaluation is recurrence-based: the variable-by-variable branching rule with
hook-product coefficients, applied at a numeric point.  Polynomials are never
expanded symbolically, so degrees of 30+ stay cheap.

One engine (after Koev & Edelman, Math. Comp. 75 (2006)) keeps, per alpha,
what does not depend on x: each partition's column hook products, in one
compact float array, and its C normalization, computed in NumPy passes over
zero-padded box grids; each level's hook offsets and C norms as arrays; and
the branching coefficients of every (level, degree) shell it has built, one
float array per shell, up to 2^21 (16 MiB) per engine.  Engines sit in an
``lru_cache`` bounded to 4 alpha values, so the stored coefficients take
64 MiB at most.  Each shell's partitions, and each level's layout (padded
parts, strip counts, passes), are built once per process; a layout grows
with kmax, so its earlier passes stand.  So are each pass's strips kappa/mu,
decoded to mu's slot at the level below, kept for every alpha and point
while the process holds at most 2^21 of them, the coefficient budget's count
(4 MiB at rank 3, 8 MiB at most); a pass past that decodes them again.  A
stored pass (strips and coefficients stored) that a table reads back keeps,
once per process, its strips' skips (uint8) and its sum grid's mask, and per
engine its coefficients and zero mask as one array each (a view where the
pass lies in one shell), so a table at a new point pays only for its own
gather, products and sums.  Only stored passes are kept, so the two 2^21
counts bound this record as well.  A table builds the J values
one variable at a time, each level from the one before, up to degree kmax,
in NumPy passes of bounded size that may span shells; a pass reads its
coefficients from the store or gathers them from the hook products shell by
shell, and keeps the float operations of the scalar recursion in order, so
the values are those of that recursion bit for bit.  The cost follows
(rank, alpha, kmax) and which shells the process has built at that alpha,
and which passes, not the point.  For one and two variables closed
coefficient formulas (a single monomial, resp. ultraspherical-type
coefficients) build whole tables at once.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "Partition",
    "JackParameter",
    "enumerate_partitions",
    "gen_pochhammer",
    "gen_pochhammer_factor",
    "jack_C",
    "jack_C_all",
]

# Degree bounds keeping every intermediate inside double-precision range:
# the rank <= 2 closed forms divide factors out as they go, the general
# branching path accumulates hook products whose headroom runs out sooner.
_MAX_WEIGHT = 200
_MAX_WEIGHT_GENERAL = 100


def _degree_cap(rank: int) -> int:
    """The largest degree a Jack table of this rank reaches."""
    return _MAX_WEIGHT if rank < 3 else _MAX_WEIGHT_GENERAL


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers, trailing zeros removed."""

    parts: tuple[int, ...]

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise InvalidArgumentError(f"negative part in partition {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InvalidArgumentError(f"parts not weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> tuple[int, ...]:
        return _conjugate(self.parts)


@dataclass(frozen=True)
class JackParameter:
    """Jack parameter alpha > 0; for root multiplicity m use alpha = 2/m."""

    alpha: float

    def __post_init__(self):
        _alpha_value(self.alpha)

    @classmethod
    def from_multiplicity(cls, m: float) -> "JackParameter":
        if not m > 0:
            raise InvalidArgumentError(f"multiplicity must be positive, got {m}")
        return cls(2.0 / m)


def _alpha_value(alpha) -> float:
    if isinstance(alpha, JackParameter):
        return alpha.alpha
    a = float(alpha)
    if not 0 < a < math.inf:
        raise InvalidArgumentError(f"Jack parameter must be positive and finite, got {alpha}")
    return a


def enumerate_partitions(k: int, max_length: int) -> list[Partition]:
    """All partitions of weight exactly ``k`` with at most ``max_length`` parts.

    Ordered reverse-lexicographically, so series partial sums assembled in
    this order are reproducible bit for bit.
    """
    if k < 0:
        raise InvalidArgumentError(f"weight must be nonnegative, got {k}")
    if max_length < 1:
        raise InvalidArgumentError(f"max_length must be >= 1, got {max_length}")
    return [Partition(parts) for parts in _partition_tuples(k, max_length)]


def _partition_tuples(k: int, max_length: int, max_part: int | None = None):
    """Yield weakly decreasing tuples summing to k, reverse-lex order."""
    if k == 0:
        yield ()
        return
    top = k if max_part is None else min(k, max_part)
    for first in range(top, 0, -1):
        if first * max_length < k:
            break
        for rest in _partition_tuples(k - first, max_length - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)  # keyed by degree (at most 200) and length; the tuples are immutable
def _shell(k: int, max_length: int) -> tuple[tuple[int, ...], ...]:
    """``_partition_tuples(k, max_length)``, enumerated once per process from the shells below it."""
    if k == 0:
        return ((),)
    return tuple((first,) + rest for first in range(k, 0, -1) if first * max_length >= k
                 for rest in _shell(k - first, max_length - 1) if not rest or rest[0] <= first)


def gen_pochhammer_factor(a, row: int, col: int, alpha) -> complex:
    """The single-box factor ``a - (row - 1)/alpha + col - 1`` (1-based box)."""
    al = _alpha_value(alpha)
    return a - (row - 1) / al + (col - 1)


def gen_pochhammer(a, kappa: Partition, alpha):
    """Generalized Pochhammer symbol (a)_kappa for Jack parameter alpha.

    (a)_kappa = prod_i prod_{j=1..kappa_i} (a - (i-1)/alpha + j - 1); the empty
    partition gives 1.  Total function: no poles, zeros allowed.
    """
    al = _alpha_value(alpha)
    return math.prod((gen_pochhammer_factor(a, i, j, al) for i, part in enumerate(kappa.parts, 1)
                      for j in range(1, part + 1)), start=1.0)


# ---------------------------------------------------------------------------
# Hook products and the branching rule
# ---------------------------------------------------------------------------


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    out = [0] * parts[0]
    for p in parts:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def _hook_pass(parts: np.ndarray, conj: np.ndarray, al: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column hook products and C normalizations of P partitions in one NumPy pass.

    parts holds the parts as rows (rows x P) and conj the conjugates (width x P),
    both zero padded.  Box (i, j), 1-based, has the upper and lower hooks
    leg + al*(arm + 1) and leg + 1 + al*arm, leg = conj_j - i, arm = parts_i - j.
    Each column's two products fold its boxes top down, and the C normalization
    folds al*m / (upper*lower) over the boxes row by row, m counting them, each
    from 1.0; a lane past the partition gives an exact 1.0 factor.  Returns the
    upper and lower products of every column, partition by partition, and the
    P normalizations.
    """
    i, j = np.arange(1, len(parts) + 1)[:, None, None], np.arange(1, len(conj) + 1)[:, None]
    leg, arm = conj - i, parts[:, None] - j  # rows x width x P
    inside, columns = arm >= 0, (conj > 0).T
    with np.errstate(all="ignore"):  # the padded lanes, and overflow where Python floats give inf silently
        upper, lower = leg + al * (arm + 1), leg + 1 + al * arm
        norm = al * ((np.cumsum(parts, axis=0) - parts)[:, None] + j) / (upper * lower)
        upper, lower, norm = (np.where(inside, v, 1.0) for v in (upper, lower, norm))
        return (np.multiply.reduce(upper, axis=0).T[columns], np.multiply.reduce(lower, axis=0).T[columns],
                np.multiply.reduce(norm.reshape(-1, parts.shape[1]), axis=0))


def _column_hooks(parts: tuple[int, ...], conj: tuple[int, ...], al: float) -> tuple[list[float], list[float]]:
    """Per-column products of upper and lower hook lengths: a one-partition ``_hook_pass``."""
    upper, lower, _ = _hook_pass(np.array([parts or (0,)]).T, np.array([conj], np.int64).T, al)
    return upper.tolist(), lower.tolist()


def _horizontal_strips(parts: tuple[int, ...], max_length: int):
    """All mu with kappa/mu a horizontal strip (kappa_{i+1} <= mu_i <= kappa_i)
    and at most max_length parts, each row counting down from kappa_i."""
    rows = [range(p, lo - 1, -1) for p, lo in zip(parts, parts[1:] + (0,))]
    for i in range(max_length, len(parts)):
        rows[i] = (0,) if 0 in rows[i] else ()
    for mu in itertools.product(*rows):
        while mu and mu[-1] == 0:
            mu = mu[:-1]
        yield mu


def _c_norm(parts: tuple[int, ...], conj: tuple[int, ...], al: float) -> float:
    """Factor turning J into C, alpha^|kappa| |kappa|! / (c_kappa c'_kappa): a one-partition
    ``_hook_pass``, fused as a per-box product so no intermediate outgrows double precision."""
    return float(_hook_pass(np.array([parts or (0,)]).T, np.array([conj], np.int64).T, al)[2][0])


# Elements of one NumPy pass (strips x widest kappa of the branching kernel, kappas x (most strips + 1)
# of the sum grid, rows x columns x partitions of the hook pass); bounds its scratch arrays.
_PASS_ELEMENTS = 1 << 15
# Branching coefficients one engine stores (8 bytes each, 16 MiB); shells past it are computed and dropped.
_BETA_STORE = 1 << 21
_PLANS = {}  # (level n, pass size) -> _plan(n, kmax) for the largest kmax asked


class _Strips(dict):
    """(level n, first kappa, end kappa) of a pass -> its strips' slots at level n - 1, while
    ``held``, the strips kept, stays within ``_BETA_STORE``.  ``records`` keeps, for a stored pass
    that a table has read back, its strips' skips |kappa| - |mu| (uint8) and its sum grid's mask."""

    held = 0

    def __init__(self):
        super().__init__()
        self.records = {}


_STRIPS = _Strips()


def _partition_counts(max_length: int, kmax: int) -> np.ndarray:
    """counts[l, d, p]: the number of partitions of d into at most l parts, each at most p."""
    counts = np.zeros((max_length + 1, kmax + 1, kmax + 1), np.int64)
    counts[:, 0, :] = 1
    for length in range(1, max_length + 1):
        for p in range(1, kmax + 1):  # parts below p, then those with a largest part p
            counts[length, :, p] = counts[length, :, p - 1]
            counts[length, p:, p] += counts[length - 1, :kmax + 1 - p, p]
    return counts


def _passes(width: list[int], strips: list[int], budget: int):
    """Consecutive runs [a, b) of items whose widest x strips and count x (most strips + 1) both
    fit budget; an item past it alone is a run."""
    a = wide = total = most = 0
    for b, (w, s) in enumerate(zip(width, strips)):
        wide, total, most = w if w > wide else wide, total + s, s if s > most else most
        if (wide * total > budget or (b + 1 - a) * (most + 1) > budget) and b > a:
            yield a, b
            a, wide, total, most = b, w, s, s
    yield a, len(width)


def _plan(n: int, kmax: int) -> tuple:
    """Level n's kappas to degree kmax at least, degree by degree in reverse-lex order: their parts as
    zero-padded rows (n x P), strip counts, first strips (then the total), degrees, each shell's first
    kappa (then P), passes, and ``_partition_counts(n - 1, kmax)`` with the slot where each degree starts
    at level n - 1.  Laid out once per process and pass size, and grown when kmax outgrows it: the new
    shells' columns are appended and ``_passes`` resumes at the last pass, so every earlier pass stands."""
    plan = _PLANS.get((n, _PASS_ELEMENTS))
    done = -1 if plan is None else len(plan[4]) - 2
    if kmax > done:
        kap, strips, _, degree, first, passes = plan[:6] if plan else (
            np.zeros((n, 0), np.int64), np.zeros(0, np.int64), None, np.zeros(0, np.int64), [0], [])
        sizes = [len(_shell(k, n)) for k in range(done + 1, kmax + 1)]
        new = np.array([parts + (0,) * (n - len(parts)) for k in range(done + 1, kmax + 1) for parts in _shell(k, n)])
        kap = np.concatenate((kap, new.T), axis=1)
        strips = np.concatenate((strips, np.prod(new.T[:-1] - new.T[1:] + 1, axis=0)))
        a = passes[-1][0] if passes else 0
        passes = passes[:-1] + [(a + s, a + e) for s, e in _passes(np.maximum(kap[0, a:], 1).tolist(),
                                                                    strips[a:].tolist(), _PASS_ELEMENTS)]
        counts = _partition_counts(n - 1, kmax)
        plan = _PLANS[n, _PASS_ELEMENTS] = (
            kap, strips, np.concatenate(([0], np.cumsum(strips))),
            np.concatenate((degree, np.repeat(np.arange(done + 1, kmax + 1), sizes))),
            first + list(itertools.accumulate(sizes, initial=first[-1]))[1:], passes, counts,
            np.cumsum([0, *counts[n - 1].diagonal()]))
    return plan


def _strip_slots(n: int, plan: tuple, a: int, b: int, mu: np.ndarray) -> np.ndarray:
    """The slot at level n - 1 of each strip kappa/mu of level n's kappas [a, b), mu holding its rows, kept in
    ``_STRIPS`` as the smallest unsigned type that holds level n - 1's size, if the store has room for them.  The
    slot of mu: the partitions of lower degree, then those of its degree before it in reverse-lex order, counted
    part by part."""
    counts, starts = plan[6], plan[7]
    deg = mu.sum(0)
    slot, rem, top = starts[deg], deg, deg
    for i in range(n - 1):
        slot = slot + counts[n - 1 - i, rem, top] - counts[n - 1 - i, rem, mu[i]]
        rem, top = rem - mu[i], mu[i]
    if _STRIPS.held + len(slot) <= _BETA_STORE:  # past the budget, decoded again by every table
        slot = _STRIPS[n, a, b] = slot.astype(np.min_scalar_type(starts[-1]))
        _STRIPS.held += len(slot)
    return slot


class _Engine(dict):
    """The branching rule for one alpha.  Maps each kappa that ``_offsets`` has
    stored to the offset of its column hook products in one compact store and
    its C normalization; ``table`` evaluates at a point.  The branching
    coefficients of a (level, degree) shell are computed for all its strips
    the first time a table reaches it and stored while the engine holds at
    most ``_BETA_STORE`` of them; later tables read them.  A pass whose strips
    (``_STRIPS``) and coefficients were both stored when a table read it is
    kept in ``passes``: its slots, skips and sum-grid mask, shared with every
    engine, and its coefficients and zero mask.  Both stores' counts bound
    what is kept, and a kept pass decodes nothing and gathers no coefficient."""

    def __init__(self, al: float):
        self.al = al
        # Column j of the partition at offset o keeps its upper and lower hook
        # products at 2 (o + j) and 2 (o + j) + 1.  Offset 0 is a padding
        # column of exact 1.0 factors.
        self.hooks = np.ones(2)
        # (level n, degree k) -> the branching coefficients of every strip of the shell, in the order
        # _level walks them, and a mask of the zero denominators among them (None where there is none);
        # self.stored counts the coefficients held.  Level n -> the degree reached, and the hook
        # offsets and C norms of the level's kappas to it.
        self.betas, self.stored, self.levels = {}, 0, {}
        # (level n, first kappa, end kappa) of a pass whose strips and coefficients were stored when a table
        # read it -> its slots, skips, sum-grid mask, coefficients (a view where the pass lies in one shell)
        # and zero mask, as _level reads them.
        self.passes = {}

    def _offsets(self, partitions: list[tuple[int, ...]]) -> np.ndarray:
        """The hook offsets of the partitions, storing those not seen yet in one growth of the
        store, from ``_hook_pass`` over runs of them whose padded box grid fits one pass."""
        new = [parts for parts in partitions if parts not in self]
        if new:
            rows = max(1, *map(len, new))
            kap = np.array([parts + (0,) * (rows - len(parts)) for parts in new]).T
            width, start = kap[0], len(self.hooks)
            hooks, norms = np.empty(start + 2 * int(width.sum())), np.empty(len(new))
            hooks[:start] = self.hooks
            for a, b in _passes((rows * np.maximum(width, 1)).tolist(), [1] * len(new), _PASS_ELEMENTS):
                conj = (kap[:, None, a:b] > np.arange(width[a:b].max())[:, None]).sum(0)
                upper, lower, norms[a:b] = _hook_pass(kap[:, a:b], conj, self.al)
                hooks[start:start + 2 * len(upper):2], hooks[start + 1:start + 2 * len(upper):2] = upper, lower
                start += 2 * len(upper)
            self.update(zip(new, zip((len(self.hooks) // 2 + np.cumsum(width) - width).tolist(), norms.tolist())))
            self.hooks = hooks
        return np.array([self[parts][0] for parts in partitions], np.int64)

    def _betas(self, kappa: np.ndarray, mu: np.ndarray, koff: np.ndarray,
               moff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Branching coefficients for J-normalized Jack of P horizontal strips kappa/mu,
        and where their denominator is zero.

        kappa and mu hold the parts as rows (n x P, zero padded), koff and moff
        the hook offsets.  Column j uses lower hooks where it loses a box
        (mu_i <= j < kappa_i for some row i), upper ones elsewhere.  The
        numerator runs over kappa's columns and the denominator over mu's, each
        folded left to right from 1.0 as math.prod does, and padded past its
        last column with exact 1.0 factors.  A quotient over a zero denominator
        is inf or NaN; a caller that uses it raises ZeroDivisionError, as float
        division does.
        """
        width, pairs = int(kappa[0].max(initial=0)), np.arange(kappa.shape[1])
        low = np.zeros((width + 1, len(pairs)), np.int8)
        for k_row, mu_row in zip(kappa, mu):  # +1 where a row's lost boxes start, -1 past them
            low.reshape(-1)[mu_row * len(pairs) + pairs] += 1
            low.reshape(-1)[k_row * len(pairs) + pairs] -= 1
        for j in range(1, width):  # summed down each column, a row at a time
            low[j] += low[j - 1]
        j = np.arange(width)[:, None]  # width x P gathers, each folded down its columns
        with np.errstate(all="ignore"):
            num = np.multiply.reduce(self.hooks[np.where(kappa[0] > j, 2 * (koff + j) + low[:width], 0)], axis=0)
            den = np.multiply.reduce(self.hooks[np.where(mu[0] > j, 2 * (moff + j) + low[:width], 0)], axis=0)
            return num / den, den == 0.0

    def _beta(self, kappa: tuple[int, ...], mu: tuple[int, ...]) -> float:
        """The branching coefficient of one strip kappa/mu: a one-pair call of ``_betas``."""
        rows = np.zeros((2, max(len(kappa), 1), 1), np.int64)
        rows[0, :len(kappa), 0], rows[1, :len(mu), 0] = kappa, mu
        beta, zero = self._betas(rows[0], rows[1], self._offsets([kappa]), self._offsets([mu]))
        if zero[0]:
            raise ZeroDivisionError("float division by zero")
        return float(beta[0])

    def _level_arrays(self, n: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """The hook offsets and C norms of level n's kappas, to degree kmax at least: grown once per
        engine as kmax grows, so a lower kmax reads a prefix."""
        done, offs, norms = self.levels.get(n, (-1, np.zeros(0, np.int64), np.zeros(0)))
        if kmax > done:
            new = [parts for k in range(done + 1, kmax + 1) for parts in _shell(k, n)]
            offs, norms = np.append(offs, self._offsets(new)), np.append(norms, [self[p][1] for p in new])
            self.levels[n] = kmax, offs, norms
        return offs, norms

    def table(self, x: tuple[float, ...], kmax: int) -> dict[tuple[int, ...], float]:
        """C_kappa(x) for every |kappa| <= kmax, with J built one variable at a time: level 1
        is J_(k)(x_1) = x_1^k prod_j (1 + j alpha), level n branches level n - 1 on x_n.

        A level is an array over its partitions, degree by degree in reverse-lex order,
        summed in NumPy passes over the strips kappa/mu of runs of its kappas; a run may
        span shells.  Every entry keeps the float operations, in order, of total = 0.0;
        total += (sub * x_n**skip) * beta over the strips in ``_horizontal_strips`` order:
        a strip skipped there (skip > 0 with x_n = 0, or sub = 0) adds +0.0 here, which
        leaves the total unchanged.  C is the C norm times J, one IEEE multiply each."""
        factors = [1.0 + j * self.al for j in range(kmax)]
        below = np.array([math.prod(factors[:k], start=x[0] ** k) for k in range(kmax + 1)])
        for n in range(2, len(x) + 1):
            below = self._level(n, x[n - 1], kmax, below)
        with np.errstate(all="ignore"):  # inf and NaN entries, silent as in Python floats
            values = (self._level_arrays(len(x), kmax)[1][:len(below)] * below).tolist()
        return dict(zip(itertools.chain.from_iterable(_shell(k, len(x)) for k in range(kmax + 1)), values))

    def _level(self, n: int, xn: float, kmax: int, below: np.ndarray) -> np.ndarray:
        """J at level n to degree kmax, walked in the passes of its ``_plan``, from level n - 1's
        values by slot.  A pass kept in ``passes`` reads its strips' slots, skips and sum-grid mask
        and its coefficients from there; any other pass gathers them in ``_pass``."""
        plan, building = _plan(n, kmax), {}
        first, passes = plan[4:6]
        powers = np.array([xn**s for s in range(kmax + 1)])
        level = np.empty(first[kmax + 1])
        for a, b in passes:
            if a >= len(level):
                break
            b = min(b, len(level))
            slot, skip, inside, beta, zero = self.passes.get((n, a, b)) or self._pass(n, plan, a, b, kmax, building)
            sub = below[slot]
            keep = (sub != 0.0) if xn != 0.0 else (sub != 0.0) & (skip == 0)
            if zero is not None and zero[keep].any():
                raise ZeroDivisionError("float division by zero")
            grid = np.zeros((b - a, inside.shape[1] + 1))  # led by +0.0
            with np.errstate(all="ignore"):
                grid[:, 1:][inside] = np.where(keep, (sub * powers[skip]) * beta, 0.0)
                level[a:b] = np.add.accumulate(grid, axis=1, out=grid)[:, -1]
        return level

    def _pass(self, n, plan, a, b, kmax, building) -> tuple:
        """The strips of level n's kappas [a, b): their slots at level n - 1, skips |kappa| - |mu|, the mask
        of the sum grid they fill (a row per kappa, its strips in order), their coefficients and where their
        denominator is zero.  The slots come from ``_STRIPS`` or are decoded there once per process
        (``_strip_slots``); mu's rows are decoded only for those, and for ``_betas`` when a shell of the pass
        has no stored coefficients.  A skip is the kappa's degree less that of its slot.  A pass whose slots
        and coefficients were all stored already is kept in ``passes``, its skips and mask in
        ``_STRIPS.records``, so later tables at any alpha read them."""
        kap, strips, _, degree, _, _, _, starts = plan
        key = n, a, b
        slot, record = _STRIPS.get(key), _STRIPS.records.get(key)
        cold = any((n, k) not in self.betas for k in range(degree[a], degree[b - 1] + 1))
        skip, inside = record or (None, np.arange(strips[a:b].max()) < strips[a:b, None])
        if slot is None or cold:
            q, index = np.nonzero(inside)  # each strip's kappa, then its index
            q += a
            kq, mu, digits = kap[:, q], np.zeros((n, len(q)), np.int64), index
            for i in range(n - 2, -1, -1):  # the last row fastest, each counting down
                digits, d = np.divmod(digits, kq[i] - kq[i + 1] + 1)
                mu[i] = kq[i] - d
        stored = slot is not None and not cold
        slot = _strip_slots(n, plan, a, b, mu) if slot is None else slot
        if skip is None:
            skip = np.repeat(degree[a:b], strips[a:b]) - (np.searchsorted(starts, slot, "right") - 1)
        args = None
        if cold:
            boff, loff = self._level_arrays(n - 1, kmax)[0], self._level_arrays(n, kmax)[0]
            args = kq, mu, loff[q], boff[slot]
        beta, zero = self._pass_betas(n, plan, a, b, args, building)
        if stored:
            if record is None:
                record = _STRIPS.records[key] = skip.astype(np.min_scalar_type(len(plan[4]) - 2)), inside
            self.passes[key] = slot, *record, beta, zero
        return slot, skip, inside, beta, zero

    def _pass_betas(self, n, plan, a, b, args, building) -> tuple[np.ndarray, np.ndarray | None]:
        """The branching coefficients of the strips of kappas [a, b) of level n, and where their denominator
        is zero (None where no shell of the pass has one).  A shell's are sliced from the store, or computed by
        ``_betas`` on its part of args and, if the store had room as it began, stored once complete; args is
        None when every shell of the pass is stored."""
        betas, zeros, (pairs, degree, first) = [], [], plan[2:5]
        for k in range(degree[a], degree[b - 1] + 1):
            s0, s1, base, end = max(a, first[k]), min(b, first[k + 1]), pairs[first[k]], pairs[first[k + 1]]
            lo, hi = pairs[s0] - base, pairs[s1] - base
            beta, zero = self.betas.get((n, k), (None, None))
            if beta is not None:
                betas.append(beta[lo:hi]), zeros.append(None if zero is None else zero[lo:hi])
                continue
            beta, zero = self._betas(*(v[..., pairs[s0] - pairs[a]:pairs[s1] - pairs[a]] for v in args))
            if lo == 0 and self.stored + end - base <= _BETA_STORE:  # past the budget, dropped
                building[k] = np.empty(end - base), np.empty(end - base, bool)
            if k in building:
                building[k][0][lo:hi], building[k][1][lo:hi] = beta, zero
                if hi == end - base:  # a mask is kept only where a denominator is zero
                    full, mask = building.pop(k)
                    self.betas[n, k], self.stored = (full, mask if mask.any() else None), self.stored + end - base
            betas.append(beta), zeros.append(zero)
        zero = None if all(z is None for z in zeros) else np.concatenate(
            [np.zeros(len(v), bool) if z is None else z for v, z in zip(betas, zeros)])
        return (betas[0] if len(betas) == 1 else np.concatenate(betas)), zero


# Bounded: an engine grows with the partitions reached, so keep few alphas.
_engine = lru_cache(maxsize=4)(_Engine)


def _finite_point(x) -> tuple[float, ...]:
    """x as a tuple of floats; NaN or inf in it is a bad argument."""
    xs = tuple(float(v) for v in x)
    if not all(math.isfinite(v) for v in xs):
        raise InvalidArgumentError(f"x must be finite, got {xs}")
    return xs


def jack_C(kappa: Partition, alpha, x) -> float:
    """C-normalized Jack polynomial at a real point x of length r: the kappa
    entry of the table ``jack_C_all(alpha, x, |kappa|)``, so the two agree bit
    for bit.

    Vanishes identically when kappa has more parts than x has entries.  The
    degree is capped as the tables are: 200 at rank <= 2, 100 at rank >= 3.
    NaN or inf in x is rejected.
    """
    return jack_C_all(alpha, x, kappa.weight).get(kappa.parts, 0.0)


# ---------------------------------------------------------------------------
# Whole-table evaluation for the series engine
# ---------------------------------------------------------------------------


def _rank2_table(al: float, x1: float, x2: float, kmax: int) -> dict[tuple[int, ...], float]:
    """C_kappa values for all kappa with |kappa| <= kmax in two variables.

    Uses the ultraspherical-type coefficients of the one-row polynomial,
    P_(d)(x, y) = sum_i g_i g_{d-i} x^(d-i) y^i / g_d with g_i = (1/al)_i / i!,
    and the column-strip identity P_(k1,k2) = (x y)^k2 P_(k1-k2).
    """
    beta = 1.0 / al
    g = list(itertools.accumulate(range(1, kmax + 1), lambda v, i: v * (beta + i - 1) / i, initial=1.0))
    xp, yp = (list(itertools.accumulate([v] * kmax, operator.mul, initial=1.0)) for v in (x1, x2))
    p_one_row = [0.0] * (kmax + 1)
    for d in range(kmax + 1):
        s = 0.0
        for i in range(d + 1):
            s += g[i] * g[d - i] * xp[d - i] * yp[i]
        p_one_row[d] = s / g[d]
    table: dict[tuple[int, ...], float] = {(): 1.0}
    for k2 in range(kmax // 2 + 1):
        e2 = (x1 * x2) ** k2
        for k1 in range(max(k2, 1), kmax - k2 + 1):
            k = k1 + k2
            # norm = al^|kappa| |kappa|! / c'_kappa, reduced to safe factors
            a_prod = 1.0
            for j in range(1, k2 + 1):
                a_prod *= al * (k1 - j + 1) + 1.0
            norm = al**k2 * math.comb(k, k2) / a_prod
            for j in range(k2):
                norm *= k1 - j
            key = (k1, k2) if k2 else (k1,)
            table[key] = norm * e2 * p_one_row[k1 - k2]
    return table


def jack_C_all(alpha, x, kmax: int):
    """Read-only table of C_kappa(x) for every |kappa| <= kmax, length <= len(x).

    Keys are part tuples (trailing zeros stripped).  Fast closed forms cover
    one and two variables; higher ranks ask the engine for every kappa.
    Tables are cached per (alpha, x, kmax); the returned mapping must not be
    mutated (it is a shared read-only view).
    """
    al, xs = _table_args(alpha, x, kmax)
    return _jack_table_cached(al, xs, kmax)


def _table_args(alpha, x, kmax: int) -> tuple[float, tuple[float, ...]]:
    """Validated (alpha, x) for a table up to degree kmax; x must be finite."""
    al = _alpha_value(alpha)
    xs = _finite_point(x)
    if kmax < 0:
        raise InvalidArgumentError(f"kmax must be nonnegative, got {kmax}")
    if kmax > _MAX_WEIGHT:
        raise InvalidArgumentError(f"kmax {kmax} exceeds supported maximum {_MAX_WEIGHT}")
    if kmax > _degree_cap(len(xs)):
        raise InvalidArgumentError(f"kmax {kmax} exceeds the branching-path maximum {_MAX_WEIGHT_GENERAL} "
                                   f"for rank {len(xs)}")
    if len(xs) >= 2:
        m_min, m_max = _rank2_m_range(kmax) if len(xs) == 2 else _branching_m_range(len(xs), kmax)
        if al > 2.0 / m_min or al < 2.0 / m_max:
            raise InvalidArgumentError(f"multiplicity m = {2.0 / al:.3g} is out of floating-point range for a "
                                       f"rank-{len(xs)} table to degree {kmax}; the largest m it accepts there "
                                       f"is {m_max:g} and the smallest m it accepts there is {m_min:g}")
    return al, xs


@lru_cache(maxsize=None)  # keyed by a degree of at most 200, so computed once per process and degree
def _rank2_m_range(kmax: int) -> tuple[float, float]:
    """The multiplicities m = 2 / alpha a rank-2 table to degree kmax accepts, with 1 % headroom, 3 digits.

    Small m: g_1 = (1/alpha + 1) - 1 must not round to 0, nor alpha^(kmax // 2)
    overflow.  Large m: the kmax + 1 products g_i g_(d-i), each at most
    (1/alpha + d)^d / (floor(d/2)! ceil(d/2)!), must sum to a float.
    """
    m_min = float(f"{2.0 / 2.0 ** min(52, 1023 / max(kmax // 2, 1)) * 1.01:.3g}")
    k = max(kmax, 1)
    log_top = (math.log(sys.float_info.max) + math.lgamma(k // 2 + 1) + math.lgamma(k - k // 2 + 1)
               - math.log(k + 1)) / k
    m_max = float(f"{2.0 * (math.exp(log_top) - k) / 1.01:.3g}")
    return m_min, m_max


@lru_cache(maxsize=None)  # keyed by rank and a degree of at most 100: once per process, rank and degree
def _branching_m_range(rank: int, kmax: int) -> tuple[float, float]:
    """The multiplicities m = 2 / alpha a rank >= 3 table to degree kmax accepts, with 1 % headroom, 3 digits.

    Every hook product, column fold and J value at a point with |x_i| <= 1 stays a normal float.
    Small m (alpha >= 1): a hook is at most alpha times its hook length, so a fold is at
    most alpha^k k!, and |J_kappa(x)| <= J_(k)(1, ..., 1) = prod_(j < k) (rank + alpha j);
    both are at most alpha^k Gamma(rank + k) / Gamma(rank).  Large m (alpha < 1): a fold
    over c columns of a partition with at most rank rows is at least alpha^c times the
    factorials of its row differences, so at least alpha^c Gamma(c / rank + 1)^rank.
    """
    k = max(kmax, 1)
    log_al_max = (math.log(sys.float_info.max) - math.lgamma(rank + k) + math.lgamma(rank)) / k
    log_al_min = max((math.log(sys.float_info.min) - rank * math.lgamma(c / rank + 1)) / c for c in range(1, k + 1))
    return float(f"{2.0 / math.exp(log_al_max) * 1.01:.3g}"), float(f"{2.0 / math.exp(log_al_min) / 1.01:.3g}")


@lru_cache(maxsize=48)
def _jack_table_cached(al: float, xs: tuple[float, ...], kmax: int):
    r = len(xs)
    if r == 0:
        return MappingProxyType({(): 1.0})
    if r == 1:  # x_1^k by repeated multiplication
        return MappingProxyType(dict(zip([(k,) if k else () for k in range(kmax + 1)],
                                         itertools.accumulate([xs[0]] * kmax, operator.mul, initial=1.0))))
    if r == 2:
        return MappingProxyType(_rank2_table(al, xs[0], xs[1], kmax))
    return MappingProxyType(_engine(al).table(xs, kmax))
