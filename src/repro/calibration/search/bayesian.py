"""Bayesian optimisation with a Gaussian-process surrogate.

A compact, dependency-free BO implementation: a Gaussian process with a
squared-exponential kernel models the objective over the (normalised) search
box, and the next evaluation point maximises the Expected Improvement
acquisition function over a random candidate set.  This is the textbook BO
recipe the paper refers to; it needs numpy and the standard library only.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.calibration.search.base import Optimizer, OptimizationResult, register_optimizer
from repro.utils.rng import spawn_rng

__all__ = ["BayesianOptimizer"]


def _sq_exp_kernel(a: np.ndarray, b: np.ndarray, length_scale: float, variance: float) -> np.ndarray:
    """Squared-exponential covariance between two point sets (normalised space)."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return variance * np.exp(-0.5 * d2 / length_scale**2)


@register_optimizer("bayesian")
class BayesianOptimizer(Optimizer):
    """Gaussian-process Bayesian optimisation with Expected Improvement.

    Parameters
    ----------
    seed:
        Randomness seed (initial design + candidate sets).
    initial_points:
        Number of uniform random evaluations before the GP loop starts.
    candidates:
        Number of random candidates scored by the acquisition per iteration.
    length_scale / variance / noise:
        GP hyper-parameters in the unit-box normalised space.
    """

    def __init__(
        self,
        seed: int = 0,
        initial_points: int = 5,
        candidates: int = 256,
        length_scale: float = 0.2,
        variance: float = 1.0,
        noise: float = 1e-6,
    ) -> None:
        super().__init__(seed=seed)
        self.initial_points = int(initial_points)
        self.candidates = int(candidates)
        self.length_scale = float(length_scale)
        self.variance = float(variance)
        self.noise = float(noise)

    # -- GP machinery -------------------------------------------------------------
    def _posterior(
        self, X: np.ndarray, y: np.ndarray, candidates: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """GP posterior mean and standard deviation at ``candidates``."""
        y_mean = float(np.mean(y))
        y_std = float(np.std(y)) or 1.0
        y_norm = (y - y_mean) / y_std
        K = _sq_exp_kernel(X, X, self.length_scale, self.variance)
        K[np.diag_indices_from(K)] += self.noise
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            K[np.diag_indices_from(K)] += 1e-6
            L = np.linalg.cholesky(K)

        def solve(b: np.ndarray) -> np.ndarray:
            """``K^-1 b`` through the two triangular factors ``K = L L^T``."""
            return np.linalg.solve(L.T, np.linalg.solve(L, b))

        k_star = _sq_exp_kernel(X, candidates, self.length_scale, self.variance)
        alpha = solve(y_norm)
        mean = k_star.T @ alpha
        v = solve(k_star)
        var = self.variance - np.sum(k_star * v, axis=0)
        var = np.maximum(var, 1e-12)
        return mean * y_std + y_mean, np.sqrt(var) * y_std

    @staticmethod
    def _expected_improvement(mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        """EI for minimisation."""
        improvement = best - mean
        z = improvement / std
        cdf = np.array([0.5 * math.erfc(-value / math.sqrt(2.0)) for value in z])
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return improvement * cdf + std * pdf

    # -- main loop ------------------------------------------------------------------
    def minimize(self, objective, bounds, budget: int) -> OptimizationResult:
        box = self._validate(bounds, budget)
        dims = box.shape[0]
        span = box[:, 1] - box[:, 0]
        rng = spawn_rng(self.seed, "calibration-bayesian")

        def denorm(u: np.ndarray) -> np.ndarray:
            return box[:, 0] + u * span

        history: List[Tuple[np.ndarray, float]] = []
        X_unit: List[np.ndarray] = []
        y: List[float] = []

        n_init = min(max(1, self.initial_points), budget)
        for _ in range(n_init):
            u = rng.uniform(size=dims)
            x = denorm(u)
            value = float(objective(x))
            X_unit.append(u)
            y.append(value)
            history.append((x, value))

        while len(history) < budget:
            X = np.vstack(X_unit)
            y_arr = np.asarray(y)
            candidates = rng.uniform(size=(self.candidates, dims))
            mean, std = self._posterior(X, y_arr, candidates)
            ei = self._expected_improvement(mean, std, float(np.min(y_arr)))
            u = candidates[int(np.argmax(ei))]
            x = denorm(u)
            value = float(objective(x))
            X_unit.append(u)
            y.append(value)
            history.append((x, value))

        return self._finalize(history)
