"""Truncated multivariate and classical Gauss hypergeometric series.

The multivariate series with root multiplicity m (Jack parameter
alpha = 2/m) is

    2F1^(m)(a, b; c; x) = sum_kappa (a)_kappa (b)_kappa / ((c)_kappa |kappa|!)
                          * C_kappa^(alpha)(x),

summed degree shell by degree shell, reverse-lexicographically inside a
shell, so partial sums are reproducible bit for bit.  The third parameter
c is the denominator parameter throughout.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

from .errors import ConvergenceError, DomainError, InvalidArgumentError, NonFiniteResultError, ParameterError
from .partitions import _finite_point, _shell, jack_C_all

__all__ = [
    "HyperParams",
    "SeriesResult",
    "hyp2f1_multi",
    "hyp2f1_classical",
    "euler_transform_check",
]

_POLE_TOL = 1e-12
_CLASSICAL_TOL, _CLASSICAL_TERMS = 1e-14, 200000  # tail tolerance and term cap of hyp2f1_classical


@dataclass(frozen=True)
class HyperParams:
    """Parameters (a, b; c), root multiplicity m, and truncation controls."""

    a: complex
    b: complex
    c: complex
    multiplicity_m: float = 2.0
    k_max: int = 30
    tol: float = 1e-12

    def __post_init__(self):
        if not self.multiplicity_m > 0:
            raise InvalidArgumentError(f"multiplicity must be positive, got {self.multiplicity_m}")
        if self.k_max < 1:
            raise InvalidArgumentError(f"k_max must be >= 1, got {self.k_max}")
        if not self.tol > 0:
            raise InvalidArgumentError(f"tol must be positive, got {self.tol}")

    @property
    def alpha(self) -> float:
        return 2.0 / self.multiplicity_m


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus how the truncation went.

    ``converged`` is true iff the magnitude of the last degree shell is at
    most tol * max(1, |value|).
    """

    value: complex
    last_shell: float
    truncation_degree: int
    converged: bool
    shells: tuple[float, ...] | None = None


def hyp2f1_multi(params: HyperParams, x, *, early_stop: bool = True, collect_shells: bool = False) -> SeriesResult:
    """Evaluate 2F1^(m)(a, b; c; x_1..x_r), truncated at degree <= k_max.

    Stops early once two consecutive degree shells fall below
    tol * max(1, |value|) (a single small shell can be accidental
    cancellation when some x_i < 0).  With ``early_stop=False`` the series
    always runs to k_max, which keeps the truncation degree identical
    across nearby points (needed by finite-difference consumers).

    Pole handling: a zero of (c)_kappa is an error only when the affected
    term actually contributes, i.e. the numerator has not already terminated
    and C_kappa(x) != 0.  This keeps terminating series and zero arguments
    usable while rejecting every genuine division by zero.  x must be finite.
    """
    xs = _finite_point(x)
    r = len(xs)
    if r == 0:
        raise InvalidArgumentError("x must have at least one entry")
    if max(abs(v) for v in xs) >= 1.0:
        raise DomainError(f"series requires max|x_i| < 1, got {xs}")
    a, b, c = complex(params.a), complex(params.b), complex(params.c)
    alpha = params.alpha
    k_max = params.k_max

    jack = jack_C_all(alpha, xs, k_max)

    # ratio[kappa] = (a)_k (b)_k / ((c)_k |kappa|!), grown one box at a time;
    # None marks a chain whose (c)_kappa hit a zero factor
    ratios: dict[tuple[int, ...], complex | None] = {(): 1.0 + 0.0j}
    value = 1.0 + 0.0j
    shells = [1.0]
    small_run = 0
    for k in range(1, k_max + 1):
        shell = 0.0 + 0.0j
        new_ratios: dict[tuple[int, ...], complex | None] = {}
        for parts in _shell(k, r):
            ell = len(parts)
            j_new = parts[-1]
            parent = parts[:-1] if j_new == 1 else parts[:-1] + (j_new - 1,)
            delta = (j_new - 1) - (ell - 1) / alpha
            den = c + delta
            parent_ratio = ratios[parent]
            cval = jack.get(parts, 0.0)
            if parent_ratio == 0.0:
                # numerator terminated strictly earlier; every continuation is 0
                new_ratios[parts] = 0.0 + 0.0j
                continue
            if parent_ratio is None or abs(den) < _POLE_TOL:
                if cval != 0.0:
                    raise ParameterError(
                        f"denominator parameter c={c} is a pole: (c)_kappa = 0 for kappa={parts}"
                    )
                new_ratios[parts] = None
                continue
            ratio = parent_ratio * ((a + delta) * (b + delta)) / (den * k)
            new_ratios[parts] = ratio
            if cval != 0.0:
                shell += ratio * cval
        ratios = new_ratios
        value += shell
        last_shell = abs(shell)
        if collect_shells:
            shells.append(last_shell)
        converged = last_shell <= params.tol * max(1.0, abs(value))
        small_run = small_run + 1 if converged else 0
        if early_stop and small_run >= 2:
            break
    return SeriesResult(
        value=value,
        last_shell=last_shell,
        truncation_degree=k,
        converged=converged,
        shells=tuple(shells) if collect_shells else None,
    )


def hyp2f1_classical(a, b, c, x) -> complex:
    """Classical Gauss series 2F1(a, b; c; x), |x| < 1, adaptive truncation.

    Truncates once two consecutive terms drop below 1e-14 * max(1, |sum|),
    and raises ConvergenceError if that has not happened within 200000 terms;
    terminating series (a or b a nonpositive integer) stop exactly.  A
    nonpositive-integer c reached before termination is a parameter error, and
    the first non-finite term ends the sum with NonFiniteResultError.
    """
    x = float(x)
    if abs(x) >= 1.0:
        raise DomainError(f"classical series requires |x| < 1, got {x}")
    a, b, c = complex(a), complex(b), complex(c)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small_run = 0
    for k in range(_CLASSICAL_TERMS):
        den = c + k
        if abs(den) < _POLE_TOL:
            raise ParameterError(f"c={c} is a nonpositive integer reached at term {k}")
        term = term * (a + k) * (b + k) / (den * (k + 1)) * x
        if not cmath.isfinite(term):
            raise NonFiniteResultError(f"classical series term {k + 1} is non-finite ({term})")
        if term == 0.0:
            return total
        total += term
        if abs(term) <= _CLASSICAL_TOL * max(1.0, abs(total)):
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
    raise ConvergenceError(f"classical series did not reach tail {_CLASSICAL_TOL} in {_CLASSICAL_TERMS} terms")


def euler_transform_check(params: HyperParams, x) -> float:
    """Relative residual of the Euler-type transformation.

    Compares 2F1^(m)(a, b; c; x) against
    prod_j (1 - x_j)^(-a) * 2F1^(m)(a, c - b; c; x_j/(x_j - 1)),
    both sides evaluated by the truncated series at the same k_max, so the
    residual includes whatever truncation tails remain.  The transformed
    arguments must stay inside the unit polydisk (so x_j < 1/2 when x_j > 0);
    outside that, the right-hand series raises a domain error.
    """
    xs = tuple(float(v) for v in x)
    lhs_res = hyp2f1_multi(params, xs)
    y = tuple(v / (v - 1.0) for v in xs)
    rhs_res = hyp2f1_multi(replace(params, b=params.c - params.b), y)
    log_pref = -params.a * sum(cmath.log(1.0 - v) for v in xs)
    rhs = cmath.exp(log_pref) * rhs_res.value
    lhs = lhs_res.value
    return abs(lhs - rhs) / max(1.0, abs(lhs))
