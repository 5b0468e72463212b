"""Fault-tolerant fusion of interval sensor readings across multiple agents.

The package models a swarm of abstract sensors that report integer-lattice
intervals around a hidden target.  Up to a known number of them are faulty
and report arbitrary well-formed intervals instead.  Several fusion rules
are provided, from the classical midpoint-of-overlap estimators to a
weighted rule that matches the exact Bayes posterior mean, plus a linear
estimator family whose coefficients trade per-agent accuracy against
cross-agent consensus, and the Monte Carlo machinery to measure all of
them under common random numbers.
"""

from . import fusion, metrics, optimal, oracle, scenario
from .fusion import *  # noqa: F403
from .metrics import *  # noqa: F403
from .optimal import *  # noqa: F403
from .oracle import *  # noqa: F403
from .scenario import *  # noqa: F403

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [name for module in (fusion, metrics, optimal, oracle, scenario) for name in module.__all__]
