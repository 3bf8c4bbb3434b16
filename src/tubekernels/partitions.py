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
compact float array, and its C normalization, computed for all of a level's
new partitions in NumPy passes over their zero-padded box grid; and the
branching coefficients of every (level, degree) shell it has built, one float
array per shell, up to 2^21 coefficients (16 MiB) per engine.  Engines sit in
an ``lru_cache`` bounded to 4 alpha values, so the stored coefficients take
64 MiB at most.  Each shell's partitions are enumerated once per process.
A table builds the J values one variable at a time, each level from the one
before, up to degree kmax.  Every branching term of a (level, degree) shell
is computed in NumPy passes of bounded size, its coefficient read from the
store or gathered from the hook products column by column, and every pass
keeps the float operations of the scalar recursion in the same order, so the
values are those of that recursion bit for bit.  The cost follows (rank,
alpha, kmax) and which shells the process has built at that alpha, not the
point.  For one and two variables closed coefficient formulas (a single
monomial, resp. ultraspherical-type coefficients) build whole tables at once.
"""

from __future__ import annotations

import itertools
import math
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

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


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
    out: list[Partition] = []
    for parts in _partition_tuples(k, max_length):
        out.append(Partition(parts))
    return out


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
    """``_partition_tuples(k, max_length)``, enumerated once per process."""
    return tuple(_partition_tuples(k, max_length))


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


# Elements of one NumPy pass (pairs x columns of the branching kernel, rows x columns x
# partitions of the hook pass); bounds its scratch arrays.
_PASS_ELEMENTS = 1 << 15
# Branching coefficients one engine stores (8 bytes each, 16 MiB); shells past it are computed and dropped.
_BETA_STORE = 1 << 21


def _partition_counts(max_length: int, kmax: int) -> np.ndarray:
    """counts[l, d, p]: the number of partitions of d into at most l parts, each at most p."""
    counts = np.zeros((max_length + 1, kmax + 1, kmax + 1), np.int64)
    counts[:, 0, :] = 1
    for length in range(1, max_length + 1):
        for p in range(1, kmax + 1):  # parts below p, then those with a largest part p
            counts[length, :, p] = counts[length, :, p - 1]
            counts[length, p:, p] += counts[length - 1, :kmax + 1 - p, p]
    return counts


def _passes(weights: np.ndarray, budget: int):
    """Consecutive runs [a, b) of items whose weights sum to at most budget, one item at least."""
    ends = np.cumsum(weights)
    a = 0
    while a < len(weights):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - weights[a] + budget, "right")))
        yield a, b
        a = b


class _Engine(dict):
    """The branching rule for one alpha.  Maps each kappa that ``_offsets`` has
    stored to the offset of its column hook products in one compact store and
    its C normalization; ``table`` evaluates at a point.  The branching
    coefficients of a (level, degree) shell are computed for all its strips
    the first time a table reaches it and stored while the engine holds at
    most ``_BETA_STORE`` of them; later tables read them."""

    def __init__(self, al: float):
        self.al = al
        # Column j of the partition at offset o keeps its upper and lower hook
        # products at 2 (o + j) and 2 (o + j) + 1.  Offset 0 is a padding
        # column of exact 1.0 factors.
        self.hooks = np.ones(2)
        # (level n, degree k) -> the branching coefficients of every strip of the
        # shell, in the order _level walks them, and a mask of the zero
        # denominators among them (None where there is none); self.stored counts
        # the coefficients held.
        self.betas, self.stored = {}, 0

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
            for a, b in _passes(np.full(len(new), rows * max(int(width.max()), 1)), _PASS_ELEMENTS):
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
            low[mu_row, pairs] += 1
            low[k_row, pairs] -= 1
        np.cumsum(low, axis=0, out=low)
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

    def table(self, x: tuple[float, ...], kmax: int) -> dict[tuple[int, ...], float]:
        """C_kappa(x) for every |kappa| <= kmax, with J built one variable at a time: level 1
        is J_(k)(x_1) = x_1^k prod_j (1 + j alpha), level n branches level n - 1 on x_n.

        A level is an array over its partitions, degree by degree in reverse-lex
        order.  Each degree shell of a level is summed in NumPy passes over all
        its strips kappa/mu.  Every entry keeps the float operations, in order,
        of total = 0.0; total += (sub * x_n**skip) * beta over the strips in
        ``_horizontal_strips`` order: a strip skipped there (skip > 0 with
        x_n = 0, or sub = 0) adds +0.0 here, which leaves the total unchanged.
        """
        below = []
        for k in range(kmax + 1):
            v = x[0] ** k
            for j in range(k):
                v *= 1.0 + j * self.al
            below.append(v)
        shells = [_shell(k, 1) for k in range(kmax + 1)]
        below, boff = np.array(below), self._offsets([parts for shell in shells for parts in shell])
        counts = _partition_counts(len(x) - 1, kmax)
        for n in range(2, len(x) + 1):
            shells = [_shell(k, n) for k in range(kmax + 1)]
            below, boff = self._level(n, x[n - 1], shells, below, boff, counts)
        return {parts: self[parts][1] * jack
                for parts, jack in zip(itertools.chain.from_iterable(shells), below.tolist())}

    def _level(self, n, xn, shells, below, boff, counts) -> tuple[np.ndarray, np.ndarray]:
        """J at level n, shell by shell, and its hook offsets, from level n - 1's values and
        hook offsets by slot.  The slot of mu there: the partitions of lower degree, then
        those of its degree before it in reverse-lex order, counted part by part.

        The branching coefficients of a shell are read from the store, or computed for
        every strip and stored if the store has room for them."""
        starts = np.concatenate(([0], np.cumsum(counts[n - 1].diagonal())))
        loff = self._offsets([parts for shell in shells for parts in shell])
        powers = np.array([xn**s for s in range(len(shells))])
        level = np.empty(len(loff))
        first = 0
        for k, shell in enumerate(shells):
            kap = np.array([parts + (0,) * (n - len(parts)) for parts in shell]).T
            strips = np.prod(kap[:-1] - kap[1:] + 1, axis=0)
            pairs = np.concatenate(([0], np.cumsum(strips)))  # each kappa's first strip in the shell
            stored = self.betas.get((n, k))
            fill = stored is None and self.stored + pairs[-1] <= _BETA_STORE  # past the budget, dropped
            if fill:
                betas, zeros = np.empty(pairs[-1]), np.zeros(pairs[-1], bool)
            for a, b in _passes(strips * np.maximum(kap[0], 1), _PASS_ELEMENTS):
                q = np.repeat(np.arange(a, b), strips[a:b])  # each strip's kappa, then its index
                index = np.arange(len(q)) - (pairs[a:b] - pairs[a])[q - a]
                kq, mu, digits = kap[:, q], np.zeros((n, len(q)), np.int64), index
                for i in range(n - 2, -1, -1):  # the last row fastest, each counting down
                    digits, d = np.divmod(digits, kq[i] - kq[i + 1] + 1)
                    mu[i] = kq[i] - d
                deg = mu.sum(0)
                slot, rem, top = starts[deg], deg, deg
                for i in range(n - 1):
                    slot = slot + counts[n - 1 - i, rem, top] - counts[n - 1 - i, rem, mu[i]]
                    rem, top = rem - mu[i], mu[i]
                lo, hi = pairs[a], pairs[b]
                if stored is None:
                    beta, zero = self._betas(kq, mu, loff[first + q], boff[slot])
                    if fill:
                        betas[lo:hi], zeros[lo:hi] = beta, zero
                else:
                    beta, zero = stored[0][lo:hi], None if stored[1] is None else stored[1][lo:hi]
                skip, sub = k - deg, below[slot]
                keep = (sub != 0.0) & ((skip == 0) | (xn != 0.0))
                if zero is not None and zero[keep].any():
                    raise ZeroDivisionError("float division by zero")
                grid = np.zeros((b - a, int(strips[a:b].max()) + 1))  # a row per kappa, led by +0.0
                with np.errstate(all="ignore"):
                    grid[q[keep] - a, index[keep] + 1] = (sub[keep] * powers[skip[keep]]) * beta[keep]
                    level[first + a:first + b] = np.add.accumulate(grid, axis=1, out=grid)[:, -1]
            if fill:  # a mask is kept only where a denominator is zero
                self.betas[n, k] = betas, zeros if zeros.any() else None
                self.stored += pairs[-1]
            first += len(shell)
        return level, loff


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
    g = [1.0] * (kmax + 1)
    for i in range(1, kmax + 1):
        g[i] = g[i - 1] * (beta + i - 1) / i
    xp = [1.0] * (kmax + 1)
    yp = [1.0] * (kmax + 1)
    for i in range(1, kmax + 1):
        xp[i] = xp[i - 1] * x1
        yp[i] = yp[i - 1] * x2
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
    if r == 1:
        table = {(): 1.0}
        v = 1.0
        for k in range(1, kmax + 1):
            v *= xs[0]
            table[(k,)] = v
        return MappingProxyType(table)
    if r == 2:
        return MappingProxyType(_rank2_table(al, xs[0], xs[1], kmax))
    return MappingProxyType(_engine(al).table(xs, kmax))
