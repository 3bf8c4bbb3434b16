"""Numerical kernels and identity checks on tube-type bounded symmetric domains.

Modules
-------
partitions   partitions, generalized Pochhammer symbols, Jack polynomials
hypergeom    multivariate and classical Gauss hypergeometric series
domains      domain invariants, Jordan polynomial, Poisson kernels, group action
shilov       Haar sampling on U(n), Monte Carlo / quadrature boundary integrals
schur        Schur characters, Weyl dimensions, the determinant-side formulas
radial       closed-form spherical functions and radial-system residuals
cli          command-line front end (``tubekernels ...``)

The package re-exports the ``__all__`` of each of the first six modules, and
its own ``__all__`` is ``__version__`` followed by those lists.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import partitions, hypergeom, domains, shilov, schur, radial
from .partitions import *  # noqa: F401,F403
from .hypergeom import *  # noqa: F401,F403
from .domains import *  # noqa: F401,F403
from .shilov import *  # noqa: F401,F403
from .schur import *  # noqa: F401,F403
from .radial import *  # noqa: F401,F403

__all__ = ["__version__"] + [name for module in (partitions, hypergeom, domains, shilov, schur, radial)
                             for name in module.__all__]
