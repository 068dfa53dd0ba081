"""Textbook noise-model formulas, one residual at a time.

The package applies noise models only in batches, as square-root
information rows scaling the residuals (``factors.robust_whiten``). These
are the full-matrix forms, written independently of it so the tests can
check the batched path against them: the covariance is the matrix
``diag(variances)`` and whitening multiplies by the inverse of its
Cholesky factor.
"""

from __future__ import annotations

import numpy as np

from objslam.factors import NoiseModel


def sqrt_information(noise: NoiseModel) -> np.ndarray:
    """L^-1 (d, d) for the covariance L L^T = diag(variances)."""
    return np.linalg.inv(np.linalg.cholesky(np.diag(noise.variances)))


def whiten(noise: NoiseModel, r: np.ndarray) -> np.ndarray:
    """Square-root information times a residual (d,) or a Jacobian (d, n)."""
    return sqrt_information(noise) @ r


def cost(noise: NoiseModel, r: np.ndarray) -> float:
    """Squared Mahalanobis norm, Huber-robustified past the whitened threshold."""
    e2 = float(np.dot(whiten(noise, r), whiten(noise, r)))
    delta = noise.threshold
    e = np.sqrt(e2)
    if e <= delta:
        return e2
    return 2.0 * delta * e - delta * delta


def sqrt_weight(noise: NoiseModel, r: np.ndarray) -> float:
    """Square root of the IRLS weight of the Huber cost at this residual."""
    delta = noise.threshold
    e = float(np.linalg.norm(whiten(noise, r)))
    if e <= delta:
        return 1.0
    return float(np.sqrt(delta / e))
