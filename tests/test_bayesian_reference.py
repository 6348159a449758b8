"""The numpy Gaussian process agrees with the scipy recipe it replaced.

:class:`~repro.calibration.search.bayesian.BayesianOptimizer` factors its
kernel with ``np.linalg.cholesky`` and evaluates the normal CDF with
``math.erfc``.  :class:`ScipyReference` is the same optimizer with the
``scipy.linalg.cho_factor``/``cho_solve`` posterior and ``scipy.stats.norm``
acquisition, so the two can be compared on the same problems.  scipy is
only a test reference: the module is skipped without it.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("scipy")

from scipy.linalg import cho_factor, cho_solve  # noqa: E402
from scipy.stats import norm  # noqa: E402

from repro.calibration.search.bayesian import BayesianOptimizer, _sq_exp_kernel  # noqa: E402


class ScipyReference(BayesianOptimizer):
    """The optimizer with its GP posterior and EI computed through scipy."""

    def _posterior(self, X, y, candidates):
        y_mean = float(np.mean(y))
        y_std = float(np.std(y)) or 1.0
        y_norm = (y - y_mean) / y_std
        K = _sq_exp_kernel(X, X, self.length_scale, self.variance)
        K[np.diag_indices_from(K)] += self.noise
        try:
            factor = cho_factor(K, lower=True)
        except np.linalg.LinAlgError:
            K[np.diag_indices_from(K)] += 1e-6
            factor = cho_factor(K, lower=True)
        k_star = _sq_exp_kernel(X, candidates, self.length_scale, self.variance)
        mean = k_star.T @ cho_solve(factor, y_norm)
        var = self.variance - np.sum(k_star * cho_solve(factor, k_star), axis=0)
        var = np.maximum(var, 1e-12)
        return mean * y_std + y_mean, np.sqrt(var) * y_std

    @staticmethod
    def _expected_improvement(mean, std, best):
        improvement = best - mean
        z = improvement / std
        return improvement * norm.cdf(z) + std * norm.pdf(z)


def _problem(seed: int):
    """A seeded GP problem: observations, candidates and hyper-parameters."""
    rng = np.random.default_rng(seed)
    dims = int(rng.integers(1, 5))
    points = int(rng.integers(2, 30))
    X = rng.uniform(size=(points, dims))
    y = rng.normal(size=points) * rng.uniform(0.1, 100.0) + rng.uniform(-50.0, 50.0)
    candidates = rng.uniform(size=(256, dims))
    length_scale = float(rng.uniform(0.05, 0.5))
    return X, y, candidates, length_scale


def _assert_close(actual, desired, seed: int) -> None:
    """Norm-wise relative error within 1e-6.

    A posterior mean that crosses zero has entries near 0, where any
    rounding difference is a large elementwise relative error, so the error
    is measured against the largest entry.
    """
    error = float(np.max(np.abs(actual - desired)))
    assert error <= 1e-6 * float(np.max(np.abs(desired))), f"seed {seed}: {error}"


def test_posterior_and_ei_argmax_match_scipy_on_seeded_problems():
    for seed in range(240):
        X, y, candidates, length_scale = _problem(seed)
        ours = BayesianOptimizer(length_scale=length_scale)
        reference = ScipyReference(length_scale=length_scale)
        mean, std = ours._posterior(X, y, candidates)
        ref_mean, ref_std = reference._posterior(X, y, candidates)
        _assert_close(mean, ref_mean, seed)
        _assert_close(std, ref_std, seed)
        best = float(np.min(y))
        ei = ours._expected_improvement(mean, std, best)
        ref_ei = reference._expected_improvement(ref_mean, ref_std, best)
        assert int(np.argmax(ei)) == int(np.argmax(ref_ei)), f"seed {seed}"


def test_ei_matches_scipy_normal_distribution():
    mean = np.linspace(-3.0, 3.0, 61)
    std = np.full_like(mean, 0.7)
    np.testing.assert_allclose(
        BayesianOptimizer._expected_improvement(mean, std, 0.25),
        ScipyReference._expected_improvement(mean, std, 0.25),
        rtol=1e-12,
        atol=1e-300,
    )


def sphere(x: np.ndarray) -> float:
    return float(np.sum((x - 0.3) ** 2))


@pytest.mark.parametrize(
    "seed, bounds, budget",
    [
        (1, [(-1.0, 1.0), (-1.0, 1.0)], 20),
        (2, [(-1.0, 1.0)], 40),
        (3, [(-1.0, 1.0), (-1.0, 1.0)], 30),
    ],
)
def test_minimize_history_matches_scipy_reference(seed, bounds, budget):
    """The seeds and problems ``test_calibration_objective_optimizers`` runs."""
    ours = BayesianOptimizer(seed=seed).minimize(sphere, bounds, budget)
    reference = ScipyReference(seed=seed).minimize(sphere, bounds, budget)
    assert len(ours.history) == len(reference.history) == budget
    for (x, value), (ref_x, ref_value) in zip(ours.history, reference.history):
        assert np.array_equal(x, ref_x)
        assert value == ref_value
