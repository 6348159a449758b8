"""Black-box optimizers used by the calibration framework.

The paper evaluates four calibration approaches -- brute-force search, random
sampling, Bayesian optimisation and CMA-ES -- and finds that, within the
evaluation budget they allow per site, random search achieves the lowest
average error.  All four are implemented here from scratch (numpy only)
behind one interface: ``optimizer.minimize(objective, bounds, budget)``.
"""

from repro.calibration.search.base import OptimizationResult, Optimizer, get_optimizer
from repro.calibration.search.bayesian import BayesianOptimizer
from repro.calibration.search.brute_force import BruteForceOptimizer
from repro.calibration.search.cmaes import CMAESOptimizer
from repro.calibration.search.random_search import RandomSearchOptimizer

__all__ = [
    "Optimizer",
    "OptimizationResult",
    "get_optimizer",
    "BruteForceOptimizer",
    "RandomSearchOptimizer",
    "BayesianOptimizer",
    "CMAESOptimizer",
]
