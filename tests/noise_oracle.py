"""Scalar noise-model formulas, one residual at a time.

The package applies noise models only in batches (``factors.robust_whiten``).
These are the textbook per-residual forms, written independently of it so
the tests can check the batched path against them.
"""

from __future__ import annotations

import numpy as np

from objslam.factors import NoiseModel


def whiten(noise: NoiseModel, r: np.ndarray) -> np.ndarray:
    """Square-root information times the residual."""
    return noise.sqrt_information @ r


def cost(noise: NoiseModel, r: np.ndarray) -> float:
    """Squared Mahalanobis norm, Huber-robustified past the whitened threshold."""
    e2 = float(np.dot(whiten(noise, r), whiten(noise, r)))
    delta = noise.whitened_huber_threshold()
    if delta is None:
        return e2
    e = np.sqrt(e2)
    if e <= delta:
        return e2
    return 2.0 * delta * e - delta * delta


def sqrt_weight(noise: NoiseModel, r: np.ndarray) -> float:
    """Square root of the IRLS weight of the Huber cost at this residual."""
    delta = noise.whitened_huber_threshold()
    if delta is None:
        return 1.0
    e = float(np.linalg.norm(whiten(noise, r)))
    if e <= delta:
        return 1.0
    return float(np.sqrt(delta / e))
