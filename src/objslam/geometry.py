"""Rigid-body and projective geometry for ellipsoid landmarks.

Conventions used throughout the package:

- A ``Pose`` is a world-from-body transform: ``p_world = R @ p_body + t``.
- Quadric rotations are stored as intrinsic X-Y-Z Euler angles
  ``theta = (tx, ty, tz)`` with ``R = Rx(tx) @ Ry(ty) @ Rz(tz)``; all
  incremental updates go through the SO(3) exp/log maps so the Euler storage
  is an I/O detail, never an update parameterization.
- An ellipsoid landmark is represented by its dual quadric
  ``Q* = Z diag(sx^2, sy^2, sz^2, -1) Z^T`` where ``Z`` is the homogeneous
  pose built from ``R(theta)`` and the centroid ``t``.
- Projection of a dual quadric under ``P = K [R_cw | t_cw]`` yields a dual
  conic ``C* = P Q* P^T`` whose axis-aligned envelope is the predicted
  bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_EPS = 1e-12


class BehindCamera(ValueError):
    """Quadric centroid has non-positive depth in the camera frame."""


class DegenerateConic(ValueError):
    """Projected dual conic has no real axis-aligned tangent lines."""


class NonPositiveDepth(ValueError):
    """Back-projection requested with depth <= 0."""


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues map from a rotation vector to a 3x3 rotation matrix."""
    w = np.asarray(w, dtype=np.float64)
    angle = float(np.linalg.norm(w))
    W = skew(w)
    if angle < 1e-8:
        # Second-order series keeps the result orthonormal to machine precision.
        return np.eye(3) + W + 0.5 * (W @ W)
    a = np.sin(angle) / angle
    b = (1.0 - np.cos(angle)) / (angle * angle)
    return np.eye(3) + a * W + b * (W @ W)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of a 3x3 rotation matrix (inverse of :func:`so3_exp`)."""
    R = np.asarray(R, dtype=np.float64)
    cos_angle = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    angle = float(np.arccos(cos_angle))
    if angle < 1e-8:
        # log(R) ~ vee(R - R^T) / 2 near the identity.
        return 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle > np.pi - 1e-6:
        # Near pi the off-diagonal difference loses precision; recover the
        # axis from the symmetric part instead.
        S = 0.5 * (R + R.T)
        axis_sq = np.clip((np.diag(S) - cos_angle) / (1.0 - cos_angle), 0.0, None)
        axis = np.sqrt(axis_sq)
        # Fix signs using the largest component as reference.
        k = int(np.argmax(axis))
        if axis[k] < _EPS:
            return np.zeros(3)
        signs = np.ones(3)
        for j in range(3):
            if j != k and S[k, j] < 0.0:
                signs[j] = -1.0
        axis = axis * signs
        # Resolve the overall sign from the antisymmetric part when available.
        vee = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
        if float(vee @ axis) < 0.0:
            axis = -axis
        return angle * axis / np.linalg.norm(axis)
    vee = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return angle / (2.0 * np.sin(angle)) * vee


def so3_jr_inv(phi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian of SO(3): log(exp(phi) exp(d)) ~ phi + Jr^-1(phi) d.

    Uses the cot(angle/2) form of the [phi]x^2 coefficient, which stays finite
    up to and including angle = pi, and its series near zero.
    """
    phi = np.asarray(phi, dtype=np.float64)
    angle = float(np.linalg.norm(phi))
    W = skew(phi)
    if angle < 1e-4:
        c = 1.0 / 12.0 + angle * angle / 720.0
    else:
        c = 1.0 / (angle * angle) - 1.0 / (2.0 * angle * np.tan(0.5 * angle))
    return np.eye(3) + 0.5 * W + c * (W @ W)


def euler_xyz_to_matrix(theta: np.ndarray) -> np.ndarray:
    """Rotation matrix from intrinsic X-Y-Z Euler angles."""
    tx, ty, tz = np.asarray(theta, dtype=np.float64)
    cx, sx = np.cos(tx), np.sin(tx)
    cy, sy = np.cos(ty), np.sin(ty)
    cz, sz = np.cos(tz), np.sin(tz)
    return np.array(
        [
            [cy * cz, -cy * sz, sy],
            [cx * sz + sx * sy * cz, cx * cz - sx * sy * sz, -sx * cy],
            [sx * sz - cx * sy * cz, sx * cz + cx * sy * sz, cx * cy],
        ]
    )


def matrix_to_euler_xyz(R: np.ndarray) -> np.ndarray:
    """Intrinsic X-Y-Z Euler angles of a rotation matrix.

    Returns the canonical branch with ty in [-pi/2, pi/2]; at the gimbal
    singularity tz is fixed to zero.
    """
    R = np.asarray(R, dtype=np.float64)
    sy = np.clip(R[0, 2], -1.0, 1.0)
    ty = float(np.arcsin(sy))
    if abs(sy) < 1.0 - 1e-10:
        tx = float(np.arctan2(-R[1, 2], R[2, 2]))
        tz = float(np.arctan2(-R[0, 1], R[0, 0]))
    else:
        tx = float(np.arctan2(R[2, 1], R[1, 1]))
        tz = 0.0
    return np.array([tx, ty, tz])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion in (w, x, y, z) order."""
    w, x, y, z = np.asarray(q, dtype=np.float64)
    n = w * w + x * x + y * y + z * z
    if n < _EPS:
        raise ValueError("zero-norm quaternion")
    s = 2.0 / n
    return np.array(
        [
            [1.0 - s * (y * y + z * z), s * (x * y - w * z), s * (x * z + w * y)],
            [s * (x * y + w * z), 1.0 - s * (x * x + z * z), s * (y * z - w * x)],
            [s * (x * z - w * y), s * (y * z + w * x), 1.0 - s * (x * x + y * y)],
        ]
    )


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0 branch."""
    R = np.asarray(R, dtype=np.float64)
    tr = np.trace(R)
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s,
             (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(R[i, i] - R[j, j] - R[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Pose:
    """SE(3) world-from-body transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        R = np.array(self.rotation, dtype=np.float64)
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(t))):
            raise ValueError("pose entries must be finite")
        err = np.abs(R.T @ R - np.eye(3)).max()
        if err > 1e-8:
            raise ValueError(f"rotation is not orthonormal (max error {err:.3e})")
        if np.linalg.det(R) < 0.0:
            raise ValueError("rotation has negative determinant")
        object.__setattr__(self, "rotation", _freeze(R))
        object.__setattr__(self, "translation", _freeze(t))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_rotvec(w: np.ndarray, t: np.ndarray) -> "Pose":
        return Pose(so3_exp(np.asarray(w, dtype=np.float64)), t)

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous transform."""
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.translation
        return T

    def inverse(self) -> "Pose":
        Rt = self.rotation.T
        return Pose(Rt, -Rt @ self.translation)

    def transform(self, p: np.ndarray) -> np.ndarray:
        """Map body-frame point(s) to the world frame. Accepts (3,) or (n, 3)."""
        p = np.asarray(p, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def retract(self, delta: np.ndarray) -> "Pose":
        """Right-perturb on the manifold: rotation by exp of delta[:3],
        translation additively by delta[3:]."""
        delta = np.asarray(delta, dtype=np.float64)
        return Pose(self.rotation @ so3_exp(delta[:3]), self.translation + delta[3:])


def compose(a: Pose, b: Pose) -> Pose:
    """a then b: world-from-b when a is world-from-mid and b is mid-from-b."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def between(a: Pose, b: Pose) -> Pose:
    """Relative transform taking frame a to frame b: inverse(a) composed with b."""
    Rt = a.rotation.T
    return Pose(Rt @ b.rotation, Rt @ (b.translation - a.translation))


@dataclass(frozen=True)
class Quadric:
    """Ellipsoid landmark: Euler rotation, centroid, strictly positive semi-axes."""

    theta: np.ndarray
    t: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        theta = np.array(self.theta, dtype=np.float64).reshape(3)
        t = np.array(self.t, dtype=np.float64).reshape(3)
        s = np.array(self.s, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(t)) and np.all(np.isfinite(s))):
            raise ValueError("quadric entries must be finite")
        if np.any(s <= 0.0):
            raise ValueError(f"semi-axes must be strictly positive, got {s}")
        object.__setattr__(self, "theta", _freeze(theta))
        object.__setattr__(self, "t", _freeze(t))
        object.__setattr__(self, "s", _freeze(s))

    @staticmethod
    def from_rotation(R: np.ndarray, t: np.ndarray, s: np.ndarray) -> "Quadric":
        return Quadric(matrix_to_euler_xyz(R), t, s)

    def rotation_matrix(self) -> np.ndarray:
        return euler_xyz_to_matrix(self.theta)

    def retract(self, delta: np.ndarray) -> "Quadric":
        """Manifold update: rotation via exp on the right, centroid and
        semi-axes additively; semi-axes clamped away from zero."""
        delta = np.asarray(delta, dtype=np.float64)
        R = self.rotation_matrix() @ so3_exp(delta[:3])
        s = np.maximum(self.s + delta[6:9], 1e-4)
        return Quadric(matrix_to_euler_xyz(R), self.t + delta[3:6], s)


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.fx, 0.0, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class BoundingBox2D:
    """Axis-aligned pixel box with xmin < xmax and ymin < ymax."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(
                f"degenerate box ({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def center(self) -> np.ndarray:
        return np.array([0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax)])

    def area(self) -> float:
        return self.width * self.height

    def as_array(self) -> np.ndarray:
        return np.array([self.xmin, self.ymin, self.xmax, self.ymax])


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
    R = q.rotation_matrix()
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


def back_project_pixel(
    K: CameraIntrinsics, x: Pose, pixel: np.ndarray, depth: float
) -> np.ndarray:
    """World point of a pixel at the given camera-frame depth (z coordinate).

    Raises NonPositiveDepth for depth <= 0.
    """
    if depth <= 0.0:
        raise NonPositiveDepth(f"depth must be positive, got {depth}")
    u, v = float(pixel[0]), float(pixel[1])
    p_cam = np.array([(u - K.cx) / K.fx * depth, (v - K.cy) / K.fy * depth, depth])
    return x.rotation @ p_cam + x.translation


def project_bbox_batch(
    R_wc: np.ndarray,
    t_wc: np.ndarray,
    K: CameraIntrinsics,
    R_q: np.ndarray,
    t_q: np.ndarray,
    s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized quadric-to-bbox projection over a batch of configurations.

    Inputs are stacked along axis 0: rotations (n, 3, 3), translations and
    semi-axes (n, 3). Returns (boxes (n, 4) as xmin, ymin, xmax, ymax and a
    validity mask (n,)); rows with non-positive centroid depth or a
    degenerate envelope are flagged invalid and left as NaN.
    """
    R_wc = np.asarray(R_wc, dtype=np.float64)
    t_wc = np.asarray(t_wc, dtype=np.float64)
    R_q = np.asarray(R_q, dtype=np.float64)
    t_q = np.asarray(t_q, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    n = R_wc.shape[0]

    R_cw = np.swapaxes(R_wc, 1, 2)
    t_cw = -(R_cw @ t_wc[:, :, None])[:, :, 0]
    Km = K.matrix()
    P = np.empty((n, 3, 4))
    P[:, :, :3] = Km @ R_cw
    P[:, :, 3] = t_cw @ Km.T

    Z = np.zeros((n, 4, 4))
    Z[:, :3, :3] = R_q
    Z[:, :3, 3] = t_q
    Z[:, 3, 3] = 1.0
    d = np.concatenate([s * s, -np.ones((n, 1))], axis=1)
    Q = (Z * d[:, None, :]) @ np.swapaxes(Z, 1, 2)

    C = P @ Q @ np.swapaxes(P, 1, 2)
    C = 0.5 * (C + np.swapaxes(C, 1, 2))

    depth = np.einsum("ni,ni->n", R_cw[:, 2, :], t_q - t_wc)
    c33 = C[:, 2, 2]
    disc_u = C[:, 0, 2] ** 2 - C[:, 0, 0] * c33
    disc_v = C[:, 1, 2] ** 2 - C[:, 1, 1] * c33
    scale = np.abs(C).max(axis=(1, 2))
    valid = (
        (depth > 0.0)
        & (np.abs(c33) > _EPS * np.maximum(scale, 1.0))
        & (disc_u > 0.0)
        & (disc_v > 0.0)
    )

    boxes = np.full((n, 4), np.nan)
    if np.any(valid):
        i = valid
        ru = np.sqrt(disc_u[i])
        rv = np.sqrt(disc_v[i])
        u1 = (C[i, 0, 2] - ru) / c33[i]
        u2 = (C[i, 0, 2] + ru) / c33[i]
        v1 = (C[i, 1, 2] - rv) / c33[i]
        v2 = (C[i, 1, 2] + rv) / c33[i]
        boxes[i, 0] = np.minimum(u1, u2)
        boxes[i, 1] = np.minimum(v1, v2)
        boxes[i, 2] = np.maximum(u1, u2)
        boxes[i, 3] = np.maximum(v1, v2)
    return boxes, valid


def predict_bbox(x: Pose, K: CameraIntrinsics, q: Quadric) -> BoundingBox2D:
    """Predicted bounding box of a quadric: projection then envelope."""
    return conic_to_bbox(project_quadric(x, K, q))
