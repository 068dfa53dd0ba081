"""Scalar quadric-to-box projection, one pose and one quadric at a time.

The package projects only through ``objslam.geometry.project_bbox_batch``.
This path computes the same dual conic and envelope with separate code and
raises on an invalid projection instead of flagging it, so the tests use it
as an independent oracle for the batch and as a plain way to render the box
a quadric should produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from objslam.geometry import (
    _EPS,
    BoundingBox2D,
    CameraIntrinsics,
    Pose,
    Quadric,
    _freeze,
)


class BehindCamera(ValueError):
    """Quadric centroid has non-positive depth in the camera frame."""


class DegenerateConic(ValueError):
    """Projected dual conic has no real axis-aligned tangent lines."""


@dataclass(frozen=True)
class DualConic:
    """Symmetric 3x3 dual conic (envelope of tangent lines)."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        M = np.array(self.matrix, dtype=np.float64)
        if M.shape != (3, 3):
            raise ValueError(f"dual conic must be 3x3, got {M.shape}")
        if np.abs(M - M.T).max() > 1e-9 * max(1.0, np.abs(M).max()):
            raise ValueError("dual conic must be symmetric")
        object.__setattr__(self, "matrix", _freeze(0.5 * (M + M.T)))


def quadric_to_dual(q: Quadric) -> np.ndarray:
    """4x4 dual-quadric matrix Z diag(s^2, -1) Z^T of an ellipsoid."""
    R = q.rotation
    Z = np.eye(4)
    Z[:3, :3] = R
    Z[:3, 3] = q.t
    D = np.diag(np.concatenate([q.s * q.s, [-1.0]]))
    return Z @ D @ Z.T


def projection_matrix(x: Pose, K: CameraIntrinsics) -> np.ndarray:
    """3x4 camera projection K [R_cw | t_cw] for a world-from-camera pose."""
    R_cw = x.rotation.T
    t_cw = -R_cw @ x.translation
    P = np.empty((3, 4))
    P[:, :3] = R_cw
    P[:, 3] = t_cw
    return K.matrix() @ P


def project_quadric(x: Pose, K: CameraIntrinsics, q: Quadric) -> DualConic:
    """Project an ellipsoid to its image dual conic.

    Raises BehindCamera when the centroid depth in the camera frame is
    non-positive.
    """
    depth = float(x.rotation.T[2] @ (q.t - x.translation))
    if depth <= 0.0:
        raise BehindCamera(f"quadric centroid depth {depth:.4f} <= 0")
    P = projection_matrix(x, K)
    C = P @ quadric_to_dual(q) @ P.T
    return DualConic(0.5 * (C + C.T))


def conic_to_bbox(conic: DualConic) -> BoundingBox2D:
    """Axis-aligned envelope of a dual conic.

    The tangency conditions give the extremal image coordinates
    u = (C13 +- sqrt(C13^2 - C11 C33)) / C33 and the analogous v from C23,
    C22. Raises DegenerateConic when no real envelope exists.
    """
    C = conic.matrix
    scale = np.abs(C).max()
    if scale < _EPS or abs(C[2, 2]) < _EPS * scale:
        raise DegenerateConic("conic has vanishing homogeneous component")
    disc_u = C[0, 2] ** 2 - C[0, 0] * C[2, 2]
    disc_v = C[1, 2] ** 2 - C[1, 1] * C[2, 2]
    if disc_u <= 0.0 or disc_v <= 0.0:
        raise DegenerateConic("conic envelope has no real extremal tangents")
    ru, rv = np.sqrt(disc_u), np.sqrt(disc_v)
    u1 = (C[0, 2] - ru) / C[2, 2]
    u2 = (C[0, 2] + ru) / C[2, 2]
    v1 = (C[1, 2] - rv) / C[2, 2]
    v2 = (C[1, 2] + rv) / C[2, 2]
    return BoundingBox2D(min(u1, u2), min(v1, v2), max(u1, u2), max(v1, v2))


def predict_bbox(x: Pose, K: CameraIntrinsics, q: Quadric) -> BoundingBox2D:
    """Predicted bounding box of a quadric: projection then envelope."""
    return conic_to_bbox(project_quadric(x, K, q))
