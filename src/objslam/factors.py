"""Factor types and residuals for the object-level factor graph.

Residual conventions:

- Odometry: split log of the body-frame error pose
  ``between(compose(x_i, u), x_{i+1})`` as a 6-vector (rotation log first,
  then translation).
- Bounding box: measured minus predicted box as (xmin, ymin, xmax, ymax).
  Observations whose projection is behind the camera or has a degenerate
  envelope are skipped, signalled by returning None. When the measured box
  touches the image border the corresponding residual components are zeroed
  so truncated detections do not drag the landmark toward the border.
- Size prior: ascending-sorted semi-axes minus the prior target.
- Orientation prior: SO(3) log of R_target^T R(theta).
- Centroid prior: centroid minus the single-shot measured centroid.

Jacobians are with respect to the right-perturbation retractions of
``Pose``/``Quadric`` (rotation ``R exp(d)``, translation, centroid and
semi-axes additive in the world frame). Odometry and the three unary priors
have closed forms built from the inverse right Jacobian of SO(3) (Sola et
al., "A micro Lie theory for state estimation in robotics", 2018). The
bounding-box Jacobian is a central difference over the 15 tangent
directions of its pose and quadric, evaluated for many observations at once
by :func:`bbox_jacobians`: 31 projections per observation in one
``project_bbox_batch`` call. :func:`numeric_jacobian` is the independent
finite-difference oracle the tests compare every factor against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    Pose,
    Quadric,
    project_bbox_batch,
    skew,
    so3_exp,
    so3_jr_inv,
    so3_log,
)

DEFAULT_JACOBIAN_STEP = 1e-6
# Pixel-noise default for detector boxes; the robust width below cuts the
# influence of outlier boxes at two standard deviations.
DEFAULT_BBOX_SIGMA = 10.0

Variable = Pose | Quadric
VariableKey = tuple[str, int]


class NonFiniteResidual(ValueError):
    """A residual evaluation produced NaN/inf or was skipped mid-differencing."""


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian noise with optional Huber robustification.

    ``huber_width`` is expressed in residual units and requires an isotropic
    diagonal covariance so the whitened threshold is well defined.
    """

    covariance: np.ndarray
    huber_width: float | None = None
    sqrt_information: np.ndarray = field(init=False, repr=False, compare=False)
    _threshold: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cov = np.array(self.covariance, dtype=np.float64)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got {cov.shape}")
        if np.abs(cov - cov.T).max() > 1e-12 * max(1.0, np.abs(cov).max()):
            raise ValueError("covariance must be symmetric")
        try:
            L = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc
        if self.huber_width is not None:
            diag = np.diag(cov)
            if self.huber_width <= 0.0:
                raise ValueError("huber width must be positive")
            if np.abs(cov - np.diag(diag)).max() > 1e-12 or np.ptp(diag) > 1e-12:
                raise ValueError("huber width requires isotropic diagonal covariance")
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        sqrt_info = np.linalg.inv(L).copy()
        sqrt_info.setflags(write=False)
        object.__setattr__(self, "sqrt_information", sqrt_info)
        threshold = None
        if self.huber_width is not None:
            threshold = self.huber_width / float(np.sqrt(cov[0, 0]))
        object.__setattr__(self, "_threshold", threshold)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    @staticmethod
    def isotropic(dim: int, sigma: float, huber_width: float | None = None) -> "NoiseModel":
        return NoiseModel(np.eye(dim) * sigma * sigma, huber_width)

    @staticmethod
    def diagonal(variances: np.ndarray, huber_width: float | None = None) -> "NoiseModel":
        return NoiseModel(np.diag(np.asarray(variances, dtype=np.float64)), huber_width)

    def whiten(self, r: np.ndarray) -> np.ndarray:
        return self.sqrt_information @ r

    def whitened_huber_threshold(self) -> float | None:
        return self._threshold

    def cost(self, r: np.ndarray) -> float:
        """Robustified squared Mahalanobis cost of a residual."""
        e2 = float(np.dot(self.whiten(r), self.whiten(r)))
        delta = self.whitened_huber_threshold()
        if delta is None:
            return e2
        e = np.sqrt(e2)
        if e <= delta:
            return e2
        return 2.0 * delta * e - delta * delta

    def robust_sqrt_weight(self, r: np.ndarray) -> float:
        """Square root of the IRLS weight for the current residual."""
        delta = self.whitened_huber_threshold()
        if delta is None:
            return 1.0
        e = float(np.linalg.norm(self.whiten(r)))
        if e <= delta:
            return 1.0
        return float(np.sqrt(delta / e))


def robust_whiten(
    noises: Sequence[NoiseModel], r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :meth:`NoiseModel.whiten`, ``cost`` and ``robust_sqrt_weight``.

    ``r`` stacks m residuals of one dimension, one noise model each. Returns
    the whitened residuals (m, d), robustified costs (m,) and square-root
    IRLS weights (m,). Models without a Huber width keep the quadratic cost
    and unit weight.
    """
    e = (np.array([nm.sqrt_information for nm in noises]) @ r[:, :, None])[:, :, 0]
    e2 = np.einsum("ij,ij->i", e, e)
    norm = np.sqrt(e2)
    thresholds = [nm.whitened_huber_threshold() for nm in noises]
    delta = np.array([0.0 if t is None else t for t in thresholds])
    clipped = np.array([t is not None for t in thresholds], dtype=bool) & (norm > delta)
    cost = np.where(clipped, 2.0 * delta * norm - delta * delta, e2)
    weight = np.ones(len(e2))
    weight[clipped] = np.sqrt(delta[clipped] / norm[clipped])
    return e, cost, weight


def variable_dim(var: Variable) -> int:
    if isinstance(var, Pose):
        return 6
    if isinstance(var, Quadric):
        return 9
    raise TypeError(f"unsupported variable type {type(var)!r}")


def retract_variable(var: Variable, delta: np.ndarray) -> Variable:
    return var.retract(delta)


def odometry_residual(x_i: Pose, x_j: Pose, u: Pose) -> np.ndarray:
    """6-vector error between the odometry prediction and the next pose."""
    R_p = x_i.rotation @ u.rotation
    t_p = x_i.rotation @ u.translation + x_i.translation
    return np.concatenate([so3_log(R_p.T @ x_j.rotation), R_p.T @ (x_j.translation - t_p)])


def _border_mask(
    measurement: BoundingBox2D, image_size: tuple[float, float] | None, tol: float = 1e-6
) -> np.ndarray:
    """Per-component validity mask: False where the box touches the border."""
    if image_size is None:
        return np.ones(4, dtype=bool)
    w, h = image_size
    return np.array(
        [
            measurement.xmin > tol,
            measurement.ymin > tol,
            measurement.xmax < w - tol,
            measurement.ymax < h - tol,
        ]
    )


class BBoxRows(NamedTuple):
    """Stacked inputs of m bounding-box observations under one camera."""

    R_wc: np.ndarray  # (m, 3, 3) world-from-camera rotations
    t_wc: np.ndarray  # (m, 3) camera positions
    R_q: np.ndarray  # (m, 3, 3) quadric rotations
    t_q: np.ndarray  # (m, 3) centroids
    s: np.ndarray  # (m, 3) semi-axes
    measured: np.ndarray  # (m, 4) measured boxes
    keep: np.ndarray  # (m, 4) False where the measured box touches the border

    @staticmethod
    def single(x: Pose, q: Quadric, measured: np.ndarray, keep: np.ndarray) -> "BBoxRows":
        return BBoxRows(
            x.rotation[None], x.translation[None], q.rotation_matrix()[None],
            q.t[None], q.s[None], measured[None], keep[None],
        )


def bbox_residuals(K: CameraIntrinsics, rows: BBoxRows) -> tuple[np.ndarray, np.ndarray]:
    """Measured minus predicted boxes (m, 4) and the projection validity (m,)
    in one projection. Rows of invalid projections hold NaN."""
    boxes, valid = project_bbox_batch(
        rows.R_wc, rows.t_wc, K, rows.R_q, rows.t_q, rows.s
    )
    return np.where(rows.keep, rows.measured - boxes, 0.0), valid


def bbox_jacobians(
    K: CameraIntrinsics, rows: BBoxRows, step: float = DEFAULT_JACOBIAN_STEP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals (m, 4), Jacobians (m, 4, 15) and validity (m,) by central
    differences, all 31 projections per observation in one call.

    Jacobian columns are the pose tangent (rotation, translation) then the
    quadric tangent (rotation, centroid, semi-axes). An observation is valid
    only when all 31 of its projections are.
    """
    m = len(rows.s)
    E = np.stack([so3_exp(step * axis) for axis in np.eye(3)])
    turns = np.stack([E[0], E[0].T, E[1], E[1].T, E[2], E[2].T])
    shifts = np.kron(np.eye(3), [[step], [-step]])

    # Row layout per observation: 0 is the unperturbed center; then (+,-)
    # pairs for pose rotation, pose translation, quadric rotation, centroid,
    # semi-axes.
    R_wc, t_wc, R_q, t_q, s = (np.repeat(a[:, None], 31, axis=1) for a in rows[:5])
    R_wc[:, 1:7] = rows.R_wc[:, None] @ turns
    t_wc[:, 7:13] += shifts
    R_q[:, 13:19] = rows.R_q[:, None] @ turns
    t_q[:, 19:25] += shifts
    s[:, 25:31] += shifts

    boxes, valid = project_bbox_batch(
        R_wc.reshape(-1, 3, 3), t_wc.reshape(-1, 3), K,
        R_q.reshape(-1, 3, 3), t_q.reshape(-1, 3), s.reshape(-1, 3),
    )
    r = np.where(
        rows.keep[:, None], rows.measured[:, None] - boxes.reshape(m, 31, 4), 0.0
    )
    J = np.swapaxes(r[:, 1::2] - r[:, 2::2], 1, 2) / (2.0 * step)
    return r[:, 0], J, valid.reshape(m, 31).all(axis=1)


def bbox_residual(
    x: Pose,
    q: Quadric,
    measurement: BoundingBox2D,
    K: CameraIntrinsics,
    image_size: tuple[float, float] | None = None,
) -> np.ndarray | None:
    """Measured minus predicted box, or None when the projection is invalid."""
    rows = BBoxRows.single(
        x, q, measurement.as_array(), _border_mask(measurement, image_size)
    )
    r, valid = bbox_residuals(K, rows)
    return r[0] if valid[0] else None


def size_prior_residual(q: Quadric, target: np.ndarray) -> np.ndarray:
    """Ascending-sorted semi-axes minus the ascending prior target."""
    return np.sort(q.s) - np.asarray(target, dtype=np.float64)


def orientation_prior_residual(q: Quadric, R_target: np.ndarray) -> np.ndarray:
    """Rotation log of the deviation from the prior rotation."""
    return so3_log(np.asarray(R_target).T @ q.rotation_matrix())


def centroid_residual(q: Quadric, target: np.ndarray) -> np.ndarray:
    return q.t - np.asarray(target, dtype=np.float64)


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
        dim = variable_dim(var)
        J = np.empty((r0.shape[0], dim))
        for k in range(dim):
            delta = np.zeros(dim)
            delta[k] = step
            plus = list(variables)
            plus[vi] = retract_variable(var, delta)
            minus = list(variables)
            minus[vi] = retract_variable(var, -delta)
            J[:, k] = (evaluate(plus) - evaluate(minus)) / (2.0 * step)
        blocks.append(J)
    return blocks


class Factor:
    """Base interface: residual and Jacobians at given variable values."""

    kind: str = "factor"
    noise: NoiseModel

    def variable_keys(self) -> tuple[VariableKey, ...]:
        raise NotImplementedError

    def residual_at(self, *variables: Variable) -> np.ndarray | None:
        raise NotImplementedError

    def jacobian_at(
        self, *variables: Variable, step: float = DEFAULT_JACOBIAN_STEP
    ) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """(residual, Jacobian blocks) or None when the factor is skipped.

        ``step`` is the central-difference step of factors differentiated
        numerically; closed-form factors ignore it.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class OdometryFactor(Factor):
    pose_i: int
    pose_j: int
    measurement: Pose
    noise: NoiseModel

    kind = "odometry"

    def variable_keys(self) -> tuple[VariableKey, ...]:
        return (("pose", self.pose_i), ("pose", self.pose_j))

    def residual_at(self, x_i: Pose, x_j: Pose) -> np.ndarray:
        return odometry_residual(x_i, x_j, self.measurement)

    def jacobian_at(
        self, x_i: Pose, x_j: Pose, step: float = DEFAULT_JACOBIAN_STEP
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Closed form. With the prediction p = x_i u, the error rotation
        R_e = R_p^T R_j and d = R_i^T (t_j - t_i): the rotation rows are
        -Jr^-1 R_j^T R_i and Jr^-1; the translation rows, for world-frame
        translation updates, are R_u^T [d]x and -R_p^T for x_i, R_p^T for x_j."""
        r = self.residual_at(x_i, x_j)
        R_i, R_j = x_i.rotation, x_j.rotation
        R_u = self.measurement.rotation
        R_p = R_i @ R_u
        Jr_inv = so3_jr_inv(r[:3])
        d = R_i.T @ (x_j.translation - x_i.translation)
        J_i = np.zeros((6, 6))
        J_i[:3, :3] = -Jr_inv @ (R_j.T @ R_i)
        J_i[3:, :3] = R_u.T @ skew(d)
        J_i[3:, 3:] = -R_p.T
        J_j = np.zeros((6, 6))
        J_j[:3, :3] = Jr_inv
        J_j[3:, 3:] = R_p.T
        return r, [J_i, J_j]


@dataclass(frozen=True)
class BBoxFactor(Factor):
    pose_id: int
    quadric_id: int
    measurement: BoundingBox2D
    K: CameraIntrinsics
    noise: NoiseModel
    image_size: tuple[float, float] | None = None

    # Residual inputs of bbox_residuals, fixed at construction.
    measured: np.ndarray = field(init=False, repr=False, compare=False)
    keep: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "bbox"

    def __post_init__(self) -> None:
        measured = self.measurement.as_array()
        keep = _border_mask(self.measurement, self.image_size)
        measured.setflags(write=False)
        keep.setflags(write=False)
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "keep", keep)

    def variable_keys(self) -> tuple[VariableKey, ...]:
        return (("pose", self.pose_id), ("quadric", self.quadric_id))

    def residual_at(self, x: Pose, q: Quadric) -> np.ndarray | None:
        return bbox_residual(x, q, self.measurement, self.K, self.image_size)

    def jacobian_at(
        self, x: Pose, q: Quadric, step: float = DEFAULT_JACOBIAN_STEP
    ) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """:func:`bbox_jacobians` for this one observation."""
        rows = BBoxRows.single(x, q, self.measured, self.keep)
        r, J, valid = bbox_jacobians(self.K, rows, step)
        if not valid[0]:
            return None
        return r[0], [J[0, :, :6], J[0, :, 6:]]


@dataclass(frozen=True)
class SizePriorFactor(Factor):
    quadric_id: int
    target: np.ndarray
    noise: NoiseModel

    kind = "size_prior"

    def __post_init__(self) -> None:
        target = np.array(self.target, dtype=np.float64).reshape(3)
        if np.any(target <= 0.0) or np.any(np.diff(target) < 0.0):
            raise ValueError(f"size target must be positive and ascending, got {target}")
        target.setflags(write=False)
        object.__setattr__(self, "target", target)

    def variable_keys(self) -> tuple[VariableKey, ...]:
        return (("quadric", self.quadric_id),)

    def residual_at(self, q: Quadric) -> np.ndarray:
        return size_prior_residual(q, self.target)

    def jacobian_at(
        self, q: Quadric, step: float = DEFAULT_JACOBIAN_STEP
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Closed form: the sort permutation on the semi-axis columns."""
        order = np.argsort(q.s, kind="stable")
        J = np.zeros((3, 9))
        J[np.arange(3), 6 + order] = 1.0
        return self.residual_at(q), [J]


@dataclass(frozen=True)
class OrientationPriorFactor(Factor):
    quadric_id: int
    target_rotation: np.ndarray
    noise: NoiseModel

    kind = "orientation_prior"

    def __post_init__(self) -> None:
        R = np.array(self.target_rotation, dtype=np.float64)
        if R.shape != (3, 3) or np.abs(R.T @ R - np.eye(3)).max() > 1e-8:
            raise ValueError("orientation target must be a rotation matrix")
        R.setflags(write=False)
        object.__setattr__(self, "target_rotation", R)

    def variable_keys(self) -> tuple[VariableKey, ...]:
        return (("quadric", self.quadric_id),)

    def residual_at(self, q: Quadric) -> np.ndarray:
        return orientation_prior_residual(q, self.target_rotation)

    def jacobian_at(
        self, q: Quadric, step: float = DEFAULT_JACOBIAN_STEP
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Closed form: Jr^-1 of the residual on the rotation columns."""
        r = self.residual_at(q)
        J = np.zeros((3, 9))
        J[:, :3] = so3_jr_inv(r)
        return r, [J]


@dataclass(frozen=True)
class CentroidPriorFactor(Factor):
    quadric_id: int
    target: np.ndarray
    noise: NoiseModel

    kind = "centroid"

    def __post_init__(self) -> None:
        target = np.array(self.target, dtype=np.float64).reshape(3)
        target.setflags(write=False)
        object.__setattr__(self, "target", target)

    def variable_keys(self) -> tuple[VariableKey, ...]:
        return (("quadric", self.quadric_id),)

    def residual_at(self, q: Quadric) -> np.ndarray:
        return centroid_residual(q, self.target)

    def jacobian_at(
        self, q: Quadric, step: float = DEFAULT_JACOBIAN_STEP
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Closed form: [0 I 0]."""
        J = np.zeros((3, 9))
        J[:, 3:6] = np.eye(3)
        return self.residual_at(q), [J]
