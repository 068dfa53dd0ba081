"""Finite-difference Jacobians through each variable's own retraction.

Every factor kind in the package has a closed-form Jacobian; no finite
difference runs outside the tests. This generic path differences any
residual function one tangent direction at a time, so the tests can check
every factor's Jacobian against it.
"""

from __future__ import annotations

import numpy as np

from objslam.geometry import Pose, Quadric

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
