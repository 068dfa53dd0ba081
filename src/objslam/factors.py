"""Factor kinds: batched residuals and Jacobians for the factor graph.

Residual conventions:

- Odometry: split log of the body-frame error pose
  ``between(compose(x_i, u), x_{i+1})`` as a 6-vector (rotation log first,
  then translation).
- Bounding box: measured minus predicted box as (xmin, ymin, xmax, ymax).
  Observations whose ellipsoid is behind the camera or reaches across its
  plane, or whose envelope is degenerate, are flagged invalid and skipped.
  When the measured box touches the image border the corresponding residual
  components are zeroed so truncated detections do not drag the landmark
  toward the border.
- Size prior: ascending-sorted semi-axes minus the prior target.
- Orientation prior: the tilt (R[2, 0], R[2, 1]) of the quadric's rotation
  R, zero when its local z is vertical (up or down) at any heading.
- Centroid prior: centroid minus the single-shot measured centroid.

A ``Factor`` is k factors of one kind, stacked: their variable ids, their
constant inputs and their noise rows. It is the one factor record, from
``optimizer.add_keyframe`` to the solver. A kind is a subclass that names its
variable slots and two batched functions, one per pass. Both take the
constant inputs of k factors and the stacked rows of their variables,
(R (k, 3, 3), t (k, 3)) for a pose and (R, t, s (k, 3)) for a quadric.

- The scoring pass, ``<kind>_residuals``, returns a ``Scored``: the
  residuals (k, d), the validity (k,) and what the derivative needs that
  scoring computed anyway. For bounding boxes that is the projection's
  camera-frame axes A, centroids c and dual conics G; for odometry it is
  the transposed predicted rotation R_p^T; the priors keep nothing.
- The derivative pass, ``<kind>_jacobians``, takes that ``Scored`` after
  the constant inputs and returns the Jacobians (k, d, 6 per pose + 9 per
  quadric), zero in invalid rows. It never projects again.

So a point can be scored without derivatives and linearized later from
what its scoring kept, and a box is linearized exactly when it is scored.
``residual_at`` and ``jacobian_at`` are one-row calls.

Jacobians are with respect to ``geometry.retract`` (rotation ``R exp(d)``,
translation, centroid and semi-axes additive in the world frame), and all
are closed form: odometry's through the inverse right Jacobian of SO(3) (Sola
et al., "A micro Lie theory for state estimation in robotics", 2018); the
bounding box's as the 15 tangent derivatives of the camera-frame dual conic,
pushed through the envelope by the chain rule. Central differences live only
in the tests.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from .geometry import (
    Pose,
    Quadric,
    project_bbox_batch,
    skew,
    so3_jr_inv,
    so3_log,
)

VariableKey = tuple[str, int]


# Noise models and factors hold arrays, so they compare and hash by identity
# (eq=False): a field-wise == over arrays would raise.
@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Diagonal Gaussian noise with an optional Huber threshold.

    ``variances`` (d,) are the residual components' variances, so the
    square-root information is the vector ``1 / sqrt(variances)`` and
    whitening scales each component. ``huber`` is the threshold on the
    whitened residual norm, in standard deviations; ``threshold`` holds it,
    inf for a model without one.
    """

    variances: np.ndarray
    huber: InitVar[float | None] = None
    threshold: float = field(init=False)
    sqrt_information: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, huber: float | None) -> None:
        v = np.array(self.variances, dtype=np.float64)
        if v.ndim != 1 or not np.all(np.isfinite(v) & (v > 0.0)):
            raise ValueError(f"variances must be a vector of finite positive values, got {v}")
        if huber is not None and not huber > 0.0:
            raise ValueError(f"huber threshold must be positive, got {huber}")
        sqrt_info = 1.0 / np.sqrt(v)
        v.setflags(write=False)
        sqrt_info.setflags(write=False)
        object.__setattr__(self, "variances", v)
        object.__setattr__(self, "threshold", np.inf if huber is None else float(huber))
        object.__setattr__(self, "sqrt_information", sqrt_info)

    @staticmethod
    def isotropic(dim: int, sigma: float, huber: float | None = None) -> "NoiseModel":
        return NoiseModel(np.full(dim, sigma * sigma), huber)


def stack_noises(noises: Sequence[NoiseModel]) -> tuple[np.ndarray, np.ndarray]:
    """The square-root information rows (k, d) and whitened Huber thresholds
    (k,) of k noise models of one dimension: the constants
    :func:`robust_whiten` applies."""
    return (
        np.array([nm.sqrt_information for nm in noises]),
        np.array([nm.threshold for nm in noises]),
    )


def robust_whiten(
    S: np.ndarray, delta: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whitened residuals, robust costs and IRLS weights: the one place a
    noise model is applied.

    ``r`` stacks m residuals of one dimension; ``S`` and ``delta`` are their
    noise models' :func:`stack_noises`. Returns the whitened residuals
    e = S r (m, d), row by row, the Huber costs (m,): |e|^2 up to the
    whitened threshold delta and 2 delta |e| - delta^2 past it, and the
    square roots of the IRLS weights (m,): 1 up to delta and
    sqrt(delta / |e|) past it. Models without a Huber threshold (delta inf)
    keep the quadratic cost and unit weight.
    """
    e = S * r
    cost = np.einsum("ij,ij->i", e, e)
    norm = np.sqrt(cost)
    clipped = norm > delta
    d, n = delta[clipped], norm[clipped]
    cost[clipped] = 2.0 * d * n - d * d
    weight = np.ones(len(cost))
    weight[clipped] = np.sqrt(d / n)
    return e, cost, weight


# Tangent dimension of each variable kind.
TANGENT_DIM = {"pose": 6, "quadric": 9}


class Scored(NamedTuple):
    """A scoring pass over k factors of one kind: the residuals (k, d), the
    validity (k,) and ``lin``, the kind's own tuple of what its derivative
    pass reads besides the residuals and the values."""

    r: np.ndarray
    valid: np.ndarray
    lin: tuple


def _transpose(R: np.ndarray) -> np.ndarray:
    return np.swapaxes(R, -1, -2)


def _times(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for stacks of matrices (k, 3, 3) and vectors (k, 3)."""
    return (A @ v[:, :, None])[:, :, 0]


def border_mask(
    boxes: np.ndarray, image_size: tuple[float, float] | None, tol: float = 1e-6
) -> np.ndarray:
    """Per-component validity (k, 4) of measured boxes (k, 4): False where a
    box touches the border of an image of ``image_size``."""
    if image_size is None:
        return np.ones(boxes.shape, dtype=bool)
    w, h = image_size
    return np.concatenate([boxes[:, :2] > tol, boxes[:, 2:] < [w - tol, h - tol]], axis=1)


def odometry_residuals(c, x_i, x_j) -> Scored:
    """The split log of the error pose. With the prediction p = x_i u, the
    error rotation is R_p^T R_j and the translation R_p^T (t_j - t_p); R_p^T
    is kept for the derivative."""
    R_u, t_u = c
    (R_i, t_i), (R_j, t_j) = x_i, x_j
    R_pT = _transpose(R_i @ R_u)
    t_p = _times(R_i, t_u) + t_i
    r = np.concatenate([so3_log(R_pT @ R_j), _times(R_pT, t_j - t_p)], axis=1)
    return Scored(r, np.ones(len(r), dtype=bool), (R_pT,))


def odometry_jacobians(c, scored: Scored, x_i, x_j) -> np.ndarray:
    """Closed form. With R_e = R_p^T R_j and d = R_i^T (t_j - t_i): the
    rotation rows are -Jr^-1 R_j^T R_i and Jr^-1; the translation rows, for
    world-frame translation updates, are R_u^T [d]x and -R_p^T for x_i,
    R_p^T for x_j."""
    R_u, _ = c
    (R_i, t_i), (R_j, t_j) = x_i, x_j
    (R_pT,) = scored.lin
    Jr_inv = so3_jr_inv(scored.r[:, :3])
    J = np.zeros((len(R_pT), 6, 12))
    J[:, :3, :3] = -Jr_inv @ (_transpose(R_j) @ R_i)
    J[:, 3:, :3] = _transpose(R_u) @ skew(_times(_transpose(R_i), t_j - t_i))
    J[:, 3:, 3:6] = -R_pT
    J[:, :3, 6:9] = Jr_inv
    J[:, 3:, 9:] = R_pT
    return J


def bbox_residuals(c, x, q) -> Scored:
    """Measured minus predicted boxes (k, 4) and the projection validity (k,)
    in one projection. Rows of invalid projections hold NaN. The
    projection's camera-frame axes, centroids and dual conics are kept."""
    K, measured, keep = c
    boxes, valid, conic = project_bbox_batch(*x, K, *q)
    return Scored(np.where(keep, measured - boxes, 0.0), valid, conic)


def bbox_jacobians(c, scored: Scored, x, q) -> np.ndarray:
    """Closed form, from the conic :func:`bbox_residuals` kept. Jacobian
    columns are the pose tangent (rotation, translation) then the quadric
    tangent (rotation, centroid, semi-axes).

    Along each tangent direction the camera-frame dual conic G = A S^2 A^T -
    c c^T of ``geometry.camera_dual_conic`` (S = diag(s)) moves by
    dG = X + X^T, with e the direction's unit axis, [e] its cross-product
    matrix and a_k the k-th column of A:

    - pose rotation ``-[e] G``, pose translation ``(R_cw e) c^T``;
    - quadric rotation about e_i ``(s_j^2 - s_k^2) a_k a_j^T``, (i, j, k)
      cyclic, so that dG = A ([e] S^2 - S^2 [e]) A^T;
    - centroid ``-(R_cw e) c^T``, semi-axis k ``s_k a_k a_k^T``.

    The chain rule takes dG through the box sides of
    ``geometry.project_bbox_batch``, center -+ half read from G, so only the
    seven entries of X it reads are formed, for all 15 directions at once.
    The arithmetic runs over the factor axis: G, A, R_wc, c and s are copied
    factor-last, every array is (entries or sides, 15, m), and the last axis
    is the long one. Invalid rows and components the border mask drops have
    zero rows.
    """
    K, _, keep = c
    valid = scored.valid
    J = np.zeros((len(valid), 4, 15))
    if not valid.any():
        return J
    R_wc, s = x[0][valid], q[2][valid]
    A, cen, G = (a[valid] for a in scored.lin)
    # Factor-last copies: G[i, j], A[i, k] and R_cw[i, j] = R_wc[j, i] (3, 3, m).
    G, A, R_cw = (np.ascontiguousarray(M.transpose(axes)) for M, axes in (
        (G, (1, 2, 0)), (A, (1, 2, 0)), (R_wc, (2, 1, 0))
    ))
    cen, s = np.ascontiguousarray(cen.T), np.ascontiguousarray(s.T)
    # X (7, 15, m) at the entries (row, col) in this order: the numerators'
    # X02, X12 and X20, X21, the diagonal terms' X00, X11, the denominator's X22.
    row, col = np.array([0, 1, 2, 2, 0, 1, 2]), np.array([2, 2, 0, 1, 0, 1, 2])
    entry = np.arange(7)
    X = np.empty((7, 15, len(cen[0])))
    # -[e_i] G: row r is G's row r + 1 along e_{r+2}, minus row r + 2 along
    # e_{r+1}, and zero along e_r (indices mod 3).
    X[:, 0:3] = 0.0
    X[entry, (row + 2) % 3] = G[(row + 1) % 3, col]
    X[entry, (row + 1) % 3] = -G[(row + 2) % 3, col]
    # R_cw e_i is column i of R_cw.
    X[:, 3:6] = R_cw[row] * cen[col, None]
    # a_k[row] and a_k[col] (7, 3, m).
    a_row, a_col = A[row], A[col]
    s2, j, k = s * s, [1, 2, 0], [2, 0, 1]
    X[:, 6:9] = (s2[j] - s2[k]) * a_row[:, k] * a_col[:, j]
    X[:, 9:12] = -X[:, 3:6]
    X[:, 12:15] = s * a_row * a_col
    # Per column u, v: the envelope's numerator G02, G12, its diagonal term
    # G00, G11 (2, m) and the shared denominator G22 (m,), and their
    # derivatives (2 or 1, 15, m).
    num, diag, den = G[[0, 1], 2], G[[0, 1], [0, 1]], G[2, 2]
    d_num = X[0:2] + X[2:4]
    d_diag = 2.0 * X[4:6]
    d_den = 2.0 * X[6]
    root = np.sqrt(num * num - diag * den)
    d_root = (
        2.0 * num[:, None] * d_num - diag[:, None] * d_den - den * d_diag
    ) / (2.0 * root[:, None])
    # The sides are center -+ half: center num / den, half root / -den, as
    # den < 0 on every valid row.
    center, half = num / den, root / -den
    d_center = (d_num - center[:, None] * d_den) / den
    d_half = (d_root + half[:, None] * d_den) / -den
    d_box = np.concatenate([d_center - d_half, d_center + d_half])
    focal = np.array([K.fx, K.fy, K.fx, K.fy])
    J[valid] = np.where(
        keep[valid].T[:, None], -focal[:, None, None] * d_box, 0.0
    ).transpose(2, 0, 1)
    return J


def size_prior_residuals(c, q) -> Scored:
    """Ascending-sorted semi-axes minus the target."""
    r = np.sort(q[2], axis=1) - c[0]
    return Scored(r, np.ones(len(r), dtype=bool), ())


def size_prior_jacobians(c, scored: Scored, q) -> np.ndarray:
    """Closed form: the sort permutation on the semi-axis columns."""
    J = np.zeros((len(q[2]), 3, 9))
    J[np.arange(len(J))[:, None], np.arange(3), 6 + np.argsort(q[2], axis=1, kind="stable")] = 1.0
    return J


def orientation_prior_residuals(c, q) -> Scored:
    """The tilt: the world-z components (R[2, 0], R[2, 1]) of the local x and
    y axes. For a small tilt phi, R[2] = (-phi_y, phi_x, 1) to first order."""
    r = q[0][:, 2, :2]
    return Scored(r, np.ones(len(r), dtype=bool), ())


def orientation_prior_jacobians(c, scored: Scored, q) -> np.ndarray:
    """Closed form: R exp(d) moves the row z = R[2] by z [d]x = ([z]x d)^T, so
    the rotation columns are the first two rows of [z]x."""
    J = np.zeros((len(scored.r), 2, 9))
    J[:, :, :3] = skew(q[0][:, 2])[:, :2]
    return J


def centroid_residuals(c, q) -> Scored:
    """Centroid minus the target."""
    r = q[1] - c[0]
    return Scored(r, np.ones(len(r), dtype=bool), ())


def centroid_jacobians(c, scored: Scored, q) -> np.ndarray:
    """Closed form: [0 I 0]."""
    J = np.zeros((len(q[1]), 3, 9))
    J[:, :, 3:6] = np.eye(3)
    return J


def _row(v: Pose | Quadric) -> tuple[np.ndarray, ...]:
    """A pose or quadric as one row of stacked variables."""
    if isinstance(v, Pose):
        return v.rotation[None], v.translation[None]
    return v.rotation[None], v.t[None], v.s[None]


@dataclass(frozen=True, eq=False)
class Factor:
    """k factors of one kind, stacked: the graph's one factor record.

    ``ids`` (slots, k) are the variable ids of each slot, whose kinds the
    class's ``variables`` name; ``inputs`` the kind's constant inputs, each
    array stacked along its first axis and anything else (the camera) shared
    by all k; ``sqrt_info`` (k, d) and ``huber`` (k,) the noise models'
    :func:`stack_noises`. A kind is a subclass that sets ``kind``,
    ``variables`` and its two batched passes over those inputs:
    ``residuals``, the scoring pass, and ``jacobians``, the derivative pass
    from that pass's ``Scored``. ``residual_at`` and ``jacobian_at`` are
    calls of a one-row factor.
    """

    ids: np.ndarray
    inputs: tuple
    sqrt_info: np.ndarray
    huber: np.ndarray

    kind: ClassVar[str] = "factor"
    variables: ClassVar[tuple[str, ...]] = ()
    residuals: ClassVar[Callable[..., Scored]]
    jacobians: ClassVar[Callable[..., np.ndarray]]

    @property
    def key(self) -> tuple:
        """What factors share to join one batch: the kind and the shared
        inputs. One projection takes one camera, so bbox factors batch per K."""
        return (type(self), *(a for a in self.inputs if not isinstance(a, np.ndarray)))

    def joined(self, more: Sequence["Factor"]) -> "Factor":
        """A new factor: this one's rows, then those of ``more``, of the
        same key."""
        every = [self, *more]
        return type(self)(
            np.concatenate([f.ids for f in every], axis=1),
            tuple(
                np.concatenate(column) if isinstance(column[0], np.ndarray) else column[0]
                for column in zip(*(f.inputs for f in every))
            ),
            np.concatenate([f.sqrt_info for f in every]),
            np.concatenate([f.huber for f in every]),
        )

    def residual_at(self, *variables: Pose | Quadric) -> np.ndarray | None:
        """This factor's residual, or None when it is skipped."""
        r, valid, _ = self.residuals(self.inputs, *map(_row, variables))
        return r[0] if valid[0] else None

    def jacobian_at(self, *variables: Pose | Quadric) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """(residual, Jacobian blocks, one per variable) or None when the
        factor is skipped."""
        rows = [_row(v) for v in variables]
        scored = self.residuals(self.inputs, *rows)
        if not scored.valid[0]:
            return None
        J = self.jacobians(self.inputs, scored, *rows)
        dims = [TANGENT_DIM[kind] for kind in self.variables]
        return scored.r[0], np.split(J[0], np.cumsum(dims)[:-1], axis=1)


class OdometryFactor(Factor):
    """Inputs: the measured relative rotations and translations."""

    kind = "odometry"
    variables = ("pose", "pose")
    residuals = staticmethod(odometry_residuals)
    jacobians = staticmethod(odometry_jacobians)


class BBoxFactor(Factor):
    """Inputs: the camera, the measured boxes (k, 4) and their
    :func:`border_mask`."""

    kind = "bbox"
    variables = ("pose", "quadric")
    residuals = staticmethod(bbox_residuals)
    jacobians = staticmethod(bbox_jacobians)


# Size and centroid priors take their targets (k, 3); orientation takes none.
class SizePriorFactor(Factor):
    kind = "size_prior"
    variables = ("quadric",)
    residuals = staticmethod(size_prior_residuals)
    jacobians = staticmethod(size_prior_jacobians)


class OrientationPriorFactor(Factor):
    kind = "orientation_prior"
    variables = ("quadric",)
    residuals = staticmethod(orientation_prior_residuals)
    jacobians = staticmethod(orientation_prior_jacobians)


class CentroidPriorFactor(Factor):
    kind = "centroid"
    variables = ("quadric",)
    residuals = staticmethod(centroid_residuals)
    jacobians = staticmethod(centroid_jacobians)
