"""Exception types shared across the library.

Every error raised on purpose derives from one of these, so callers (and the
CLI exit-code mapping) can distinguish bad input from numerical trouble.
"""

from __future__ import annotations


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition (shape, sign, ordering)."""


class ParameterError(ValueError):
    """A function parameter hits a pole or otherwise makes the series undefined."""


class DomainError(ValueError):
    """An evaluation point lies outside the convergence/validity domain."""


class ConvergenceError(RuntimeError):
    """A truncated series failed to reach its tail tolerance."""


class SingularKernelError(ArithmeticError):
    """The Poisson kernel is evaluated at a boundary degeneracy h(z, u) = 0."""


class SingularActionError(ArithmeticError):
    """The fractional-linear action is undefined (Cz + D not invertible)."""


class GeometryError(ValueError):
    """A finite-difference stencil sits too close to the singular set."""


class NonFiniteResultError(ArithmeticError):
    """A result to be reported is NaN or inf, so there is no answer to give."""


class NonFiniteSampleError(RuntimeError):
    """A Monte Carlo integrand returned a non-finite value.

    The offending sample index is stored in ``index``.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"integrand returned a non-finite value at sample {index}")
