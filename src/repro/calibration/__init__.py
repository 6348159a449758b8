"""Calibration framework: making simulated job times match ground truth.

The paper calibrates CGSim against historical PanDA job records: for every
site, the dominant parameter (per-core processing speed) is tuned so that the
simulated execution time matches the recorded one, with the relative mean
absolute error (MAE) of job walltime as the objective.  Four optimisation
methods are compared (brute force, random search, Bayesian optimisation and
CMA-ES), and the calibration improves the geometric-mean relative MAE across
50 sites from 76% to 17%.

This package reproduces that machinery:

* :mod:`~repro.calibration.objective` -- error metrics
  (:func:`relative_mae`, per-category walltime errors, geometric means).
* :mod:`~repro.calibration.search` -- the four optimizers, implemented from
  scratch on numpy and the standard library.
* :class:`~repro.calibration.calibrator.SiteCalibrator` /
  :class:`~repro.calibration.calibrator.GridCalibrator` -- the site-specific
  calibration loops replaying historical jobs against candidate parameters.
* :mod:`~repro.calibration.sensitivity` -- one-at-a-time parameter
  sensitivity analysis (identifying core speed as the dominant parameter).
* :mod:`~repro.calibration.queue_model` -- the queue-time extension fitted
  after walltime calibration.
"""

from repro.calibration.calibrator import (
    CalibrationReport,
    GridCalibrator,
    SiteCalibrationResult,
    SiteCalibrator,
)
from repro.calibration.objective import (
    geometric_mean,
    relative_errors,
    relative_mae,
    walltime_error_by_category,
)
from repro.calibration.queue_model import QueueTimeModel
from repro.calibration.search import (
    BayesianOptimizer,
    BruteForceOptimizer,
    CMAESOptimizer,
    OptimizationResult,
    RandomSearchOptimizer,
    get_optimizer,
)
from repro.calibration.sensitivity import SensitivityAnalysis, SensitivityResult

__all__ = [
    "relative_mae",
    "relative_errors",
    "walltime_error_by_category",
    "geometric_mean",
    "SiteCalibrator",
    "GridCalibrator",
    "SiteCalibrationResult",
    "CalibrationReport",
    "BruteForceOptimizer",
    "RandomSearchOptimizer",
    "BayesianOptimizer",
    "CMAESOptimizer",
    "OptimizationResult",
    "get_optimizer",
    "SensitivityAnalysis",
    "SensitivityResult",
    "QueueTimeModel",
]
