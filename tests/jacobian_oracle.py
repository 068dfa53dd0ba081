"""Reference Jacobians for the tests.

Every factor kind in the package has a closed-form Jacobian; no finite
difference runs outside the tests. :func:`numeric_jacobian` differences any
residual function one tangent direction at a time through each variable's
own retraction, so the tests can check every factor's Jacobian against it.
:func:`bbox_jacobians_reference` is the bounding-box closed form written
over the full (k, 15, 3, 3) dual-conic derivative, which the package's
``factors.bbox_jacobians`` must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from objslam.factors import bbox_residuals
from objslam.geometry import Pose, Quadric, camera_dual_conic, skew

DEFAULT_JACOBIAN_STEP = 1e-6

Variable = Pose | Quadric


class NonFiniteResidual(ValueError):
    """A residual evaluation produced NaN/inf or was skipped mid-differencing."""


def numeric_jacobian(
    residual_fn,
    variables: list[Variable] | tuple[Variable, ...],
    step: float = DEFAULT_JACOBIAN_STEP,
) -> list[np.ndarray]:
    """Central-difference Jacobian blocks of a residual function.

    ``residual_fn`` is called with the (perturbed) variables in order and
    must return a fixed-length vector. Perturbations are applied through each
    variable's manifold retraction. Raises NonFiniteResidual when any
    evaluation is skipped or non-finite.
    """

    def evaluate(vars_: list[Variable]) -> np.ndarray:
        r = residual_fn(*vars_)
        if r is None:
            raise NonFiniteResidual("residual skipped during differencing")
        r = np.asarray(r, dtype=np.float64)
        if not np.all(np.isfinite(r)):
            raise NonFiniteResidual("residual is non-finite")
        return r

    variables = list(variables)
    r0 = evaluate(variables)
    blocks: list[np.ndarray] = []
    for vi, var in enumerate(variables):
        dim = 6 if isinstance(var, Pose) else 9
        J = np.empty((r0.shape[0], dim))
        for k in range(dim):
            delta = np.zeros(dim)
            delta[k] = step
            plus = list(variables)
            plus[vi] = var.retract(delta)
            minus = list(variables)
            minus[vi] = var.retract(-delta)
            J[:, k] = (evaluate(plus) - evaluate(minus)) / (2.0 * step)
        blocks.append(J)
    return blocks


# Cross-product matrices of the unit axes.
_AXES = skew(np.eye(3))


def bbox_jacobians_reference(c, x, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residuals, Jacobians and validity of ``factors.bbox_jacobians``
    with every derivative of the camera-frame dual conic built from a conic
    of its own: dG = X + X^T along each of the 15 tangent directions,
    X (m, 15, 3, 3) as that function's docstring lists them, pushed through
    the envelope with the factor axis first."""
    K, _, keep = c
    r, valid, _ = bbox_residuals(c, x, q)
    J = np.zeros((len(r), 4, 15))
    if not valid.any():
        return r, J, valid
    R_wc, t_wc, R_q, t_q, s = (a[valid] for a in (*x, *q))
    A, cen, G = camera_dual_conic(R_wc, t_wc, R_q, t_q, s)
    a, s2 = np.swapaxes(A, 1, 2), s * s
    X = np.empty((len(G), 15, 3, 3))
    X[:, 0:3] = -_AXES @ G[:, None]
    # R_cw e_i is row i of R_wc.
    X[:, 3:6] = R_wc[:, :, :, None] * cen[:, None, None, :]
    j, k = [1, 2, 0], [2, 0, 1]
    X[:, 6:9] = (s2[:, j] - s2[:, k])[:, :, None, None] * a[:, k, :, None] * a[:, j, None, :]
    X[:, 9:12] = -X[:, 3:6]
    X[:, 12:15] = s[:, :, None, None] * a[:, :, :, None] * a[:, :, None, :]
    # Per column u, v: the envelope's numerator G02, G12, its diagonal term
    # G00, G11 and the shared denominator G22 (m, 2 or 1), and their
    # derivatives (m, 15, 2 or 1).
    num, diag, den = G[:, [0, 1], 2], G[:, [0, 1], [0, 1]], G[:, 2, 2, None]
    d_num = X[:, :, [0, 1], 2] + X[:, :, 2, [0, 1]]
    d_diag = 2.0 * X[:, :, [0, 1], [0, 1]]
    d_den = 2.0 * X[:, :, 2, 2, None]
    root = np.sqrt(num * num - diag * den)
    d_root = (
        2.0 * num[:, None] * d_num - diag[:, None] * d_den - den[:, None] * d_diag
    ) / (2.0 * root[:, None])
    # The sides are center -+ half: center num / den, half root / |den|.
    center, half = num / den, root / np.abs(den)
    d_center = (d_num - center[:, None] * d_den) / den[:, None]
    d_half = (d_root - (np.sign(den) * half)[:, None] * d_den) / np.abs(den)[:, None]
    d_box = np.concatenate([d_center - d_half, d_center + d_half], axis=2)
    focal = np.array([K.fx, K.fy, K.fx, K.fy])
    J[valid] = np.where(keep[valid, :, None], -focal[:, None] * np.swapaxes(d_box, 1, 2), 0.0)
    return r, J, valid
