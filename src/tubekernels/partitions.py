"""Partitions, generalized Pochhammer symbols, and Jack polynomials.

The Jack values produced here are in the C normalization, pinned operationally
by the sum rule

    sum_{|kappa| = k} C_kappa(x_1, ..., x_r) = (x_1 + ... + x_r)^k,

which is the property the multivariate hypergeometric series is built on.
Evaluation is recurrence-based: the variable-by-variable branching rule with
hook-product coefficients, applied at a numeric point.  Polynomials are never
expanded symbolically, so degrees of 30+ stay cheap.

One engine (after Koev & Edelman, Math. Comp. 75 (2006)) keeps, per alpha,
what does not depend on x: each partition's column hook products and C
normalization, in an ``lru_cache`` bounded to 4 alpha values.  A table builds
the J values one variable at a time, each level from the one before, and
covers every degree up to the requested kmax, so its cost follows (rank,
alpha, kmax) and not the point.  For one and two variables there are closed
coefficient formulas (a single monomial, resp. ultraspherical-type
coefficients) that build whole tables at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

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
    out = 1.0
    for i, part in enumerate(kappa.parts):
        base = a - i / al
        for j in range(part):
            out = out * (base + j)
    return out


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


def _column_hooks(parts: tuple[int, ...], conj: tuple[int, ...], al: float) -> tuple[list[float], list[float]]:
    """Per-column products of upper and lower hook lengths.

    upper(i,j) = kappa'_j - i + al*(kappa_i - j + 1)
    lower(i,j) = kappa'_j - i + 1 + al*(kappa_i - j)
    """
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
    """Factor turning J into C: alpha^|kappa| |kappa|! / (c_kappa c'_kappa).

    Fused as a per-box product (one factor alpha*m per box against that box's
    two hooks) so no intermediate outgrows double precision.
    """
    out = 1.0
    m = 0
    for i, p in enumerate(parts, start=1):
        for j in range(1, p + 1):
            m += 1
            arm = p - j
            leg = conj[j - 1] - i
            out *= al * m / ((leg + al * (arm + 1)) * (leg + 1 + al * arm))
    return out


class _Engine(dict):
    """The branching rule for one alpha.  Maps kappa, on first use, to its
    upper and lower column hook products and C normalization; ``table``
    evaluates at a point."""

    def __init__(self, al: float):
        self.al = al
        self.products: dict[float, float] = {}

    def __missing__(self, parts: tuple[int, ...]) -> tuple:
        conj = _conjugate(parts)
        # Hook products are positive and repeat across partitions (about 800
        # distinct values among 4000 partitions at k <= 40); one shared float
        # per value keeps the engine small.
        upper, lower = ([self.products.setdefault(v, v) for v in hooks]
                        for hooks in _column_hooks(parts, conj, self.al))
        shape = self[parts] = (upper, lower, _c_norm(parts, conj, self.al))
        return shape

    def _beta(self, kappa: tuple[int, ...], mu: tuple[int, ...]) -> float:
        """Branching coefficient for J-normalized Jack, kappa/mu a horizontal strip.

        Columns j with mu_i <= j < kappa_i for some row i (those losing a box)
        use lower hooks, others upper ones; numerator over kappa's columns,
        denominator over mu's, each multiplied left to right.
        """
        ku, kl, _ = self[kappa]
        mu_u, mu_l, _ = self[mu]
        num, den = [], []
        done = 0  # columns placed so far; the last row's strip lies leftmost
        for i in range(len(kappa) - 1, -1, -1):
            lo = mu[i] if i < len(mu) else 0
            hi = kappa[i]
            num += ku[done:lo] + kl[lo:hi]
            den += mu_u[done:lo] + mu_l[lo:hi]
            done = hi
        return math.prod(num, start=1.0) / math.prod(den, start=1.0)

    def table(self, x: tuple[float, ...], kmax: int) -> dict[tuple[int, ...], float]:
        """C_kappa(x) for every |kappa| <= kmax, with J built one variable at a time: level 1
        is J_(k)(x_1) = x_1^k prod_j (1 + j alpha), level n branches level n - 1 on x_n."""
        level = {}
        for k in range(kmax + 1):
            v = x[0] ** k
            for j in range(k):
                v *= 1.0 + j * self.al
            level[(k,) if k else ()] = v
        for n in range(2, len(x) + 1):
            xn, below, level = x[n - 1], level, {}
            for k in range(kmax + 1):
                for parts in _partition_tuples(k, n):
                    total = 0.0
                    for mu in _horizontal_strips(parts, n - 1):
                        skip = k - sum(mu)
                        if skip > 0 and xn == 0.0:
                            continue
                        sub = below[mu]
                        if sub != 0.0:
                            total += sub * xn**skip * self._beta(parts, mu)
                    level[parts] = total
        return {parts: self[parts][2] * jack for parts, jack in level.items()}


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
    if len(xs) == 2:  # g_1 = (1/alpha + 1) - 1 must not round to 0, nor alpha^(kmax // 2) overflow
        m_min = float(f"{2.0 / 2.0 ** min(52, 1023 / max(kmax // 2, 1)) * 1.01:.3g}")  # 1 % headroom, 3 digits
        if al > 2.0 / m_min:
            raise InvalidArgumentError(f"multiplicity m = {2.0 / al:.3g} is out of floating-point range for a "
                                       f"rank-2 table to degree {kmax}; the smallest m it accepts there is {m_min:g}")
    return al, xs


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
