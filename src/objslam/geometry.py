"""Rigid-body and projective geometry for ellipsoid landmarks.

Conventions used throughout the package:

- A ``Pose`` is a world-from-body transform: ``p_world = R @ p_body + t``.
- A ``Quadric`` stores its rotation matrix, checked like a pose's. Its
  ``theta`` property is a read-only view of intrinsic X-Y-Z Euler angles
  (``R = Rx(tx) @ Ry(ty) @ Rz(tz)``); nothing in the solver reads it.
- :func:`retract` is the one manifold update, of stacked poses and
  quadrics: rotations right-multiplied by ``exp(delta)``, the rest additive.
  ``Pose.retract`` and ``Quadric.retract`` are its one-row calls. The SO(3)
  helpers (``skew``, ``so3_exp``, ``so3_log``, ``so3_jr_inv``) take stacks.
- An ellipsoid landmark is represented by its dual quadric
  ``Q* = Z diag(sx^2, sy^2, sz^2, -1) Z^T`` where ``Z`` is the homogeneous
  pose built from the rotation and the centroid ``t``.
- Projection of a dual quadric under ``[R_cw | t_cw]`` yields the dual
  conic ``G`` seen from the camera (:func:`camera_dual_conic`, the one conic
  construction). The predicted bounding box is the axis-aligned envelope of
  the image conic ``K G K^T``; it is read from ``G``, K only scaling and
  shifting its sides. :func:`project_bbox_batch` is the one implementation,
  over stacked poses and quadrics; invalid projections (centroid behind the
  camera, an ellipsoid reaching across the camera plane, no real envelope)
  are flagged rather than raised.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

_EPS = 1e-12


class NonPositiveDepth(ValueError):
    """Back-projection requested with depth <= 0."""


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices (..., 3, 3) of 3-vectors (..., 3)."""
    v = np.asarray(v, dtype=np.float64)
    S = np.zeros(v.shape + (3,))
    S[..., 0, 1], S[..., 0, 2], S[..., 1, 2] = -v[..., 2], v[..., 1], -v[..., 0]
    S[..., 1, 0], S[..., 2, 0], S[..., 2, 1] = v[..., 2], -v[..., 1], v[..., 0]
    return S


def _angle(w: np.ndarray) -> np.ndarray:
    """Norms (...,) of rotation vectors, w^T w as a matrix product so that
    they round like np.linalg.norm of one vector."""
    return np.sqrt((w[..., None, :] @ w[..., :, None])[..., 0, 0])


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues map from rotation vectors (..., 3) to rotation matrices
    (..., 3, 3)."""
    w = np.asarray(w, dtype=np.float64)
    angle = _angle(w)
    small = angle < 1e-8
    safe = np.where(small, 1.0, angle)
    # Below 1e-8 the second-order series stays orthonormal to machine precision.
    a = np.where(small, 1.0, np.sin(safe) / safe)[..., None, None]
    b = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))[..., None, None]
    W = skew(w)
    return np.eye(3) + a * W + b * (W @ W)


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vectors (..., 3) of rotation matrices (..., 3, 3), the inverse
    of :func:`so3_exp`."""
    R = np.asarray(R, dtype=np.float64)
    shape = R.shape[:-2] + (3,)
    R = R.reshape(-1, 3, 3)
    cos_angle = np.clip((np.trace(R, axis1=1, axis2=2) - 1.0) * 0.5, -1.0, 1.0)
    angle = np.arccos(cos_angle)
    vee = np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]], 1)
    # log(R) ~ vee(R - R^T) / 2 near the identity.
    small = angle < 1e-8
    safe = np.where(small, 1.0, angle)
    out = np.where(small, 0.5, safe / (2.0 * np.sin(safe)))[:, None] * vee
    near = angle > np.pi - 1e-2
    if near.any():
        # Near pi the off-diagonal difference loses precision (the general
        # branch misses by 3e-3 at 1e-6 from pi); recover the axis from the
        # symmetric part instead: (R + R^T) / 2 - cos I is
        # (1 - cos) a a^T, whose largest-diagonal column is a_k a.
        A = 0.5 * (R[near] + np.swapaxes(R[near], 1, 2)) - cos_angle[near, None, None] * np.eye(3)
        m = np.arange(len(A))
        column = A[m, :, np.argmax(np.diagonal(A, axis1=1, axis2=2), axis=1)]
        norm = np.linalg.norm(column, axis=1)
        axis = column / np.where(norm < _EPS, 1.0, norm)[:, None]
        # Resolve the overall sign from the antisymmetric part when available.
        axis *= np.where(np.einsum("ni,ni->n", vee[near], axis) < 0.0, -1.0, 1.0)[:, None]
        out[near] = angle[near, None] * axis
    return out.reshape(shape)


def so3_jr_inv(phi: np.ndarray) -> np.ndarray:
    """Inverse right Jacobians (..., 3, 3) of SO(3) at rotation vectors
    (..., 3): log(exp(phi) exp(d)) ~ phi + Jr^-1(phi) d.

    Uses the cot(angle/2) form of the [phi]x^2 coefficient, which stays finite
    up to and including angle = pi, and its series near zero.
    """
    phi = np.asarray(phi, dtype=np.float64)
    angle = _angle(phi)
    series = angle < 1e-4
    safe = np.where(series, 1.0, angle)
    c = 1.0 / (safe * safe) - 1.0 / (2.0 * safe * np.tan(0.5 * safe))
    c = np.where(series, 1.0 / 12.0 + angle * angle / 720.0, c)[..., None, None]
    W = skew(phi)
    return np.eye(3) + 0.5 * W + c * (W @ W)


SEMI_AXIS_FLOOR = 1e-4


def retract(
    R: np.ndarray, t: np.ndarray, s: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one manifold update, of m stacked variables: m - k poses, then k
    quadrics with semi-axes s (k, 3). ``delta`` holds 6 entries per pose
    (rotation, translation), then 9 per quadric (rotation, centroid,
    semi-axes). Rotations R (m, 3, 3) are right-multiplied by exp of theirs in
    one :func:`so3_exp`; t (m, 3) and s move additively, s clamped at
    ``SEMI_AXIS_FLOOR``."""
    delta = np.asarray(delta, dtype=np.float64)
    p = len(R) - len(s)
    d_pose = delta[: 6 * p].reshape(p, 6)
    d_quadric = delta[6 * p :].reshape(len(s), 9)
    R = R @ so3_exp(np.concatenate([d_pose[:, :3], d_quadric[:, :3]]))
    t = t + np.concatenate([d_pose[:, 3:], d_quadric[:, 3:6]])
    return R, t, np.maximum(s + d_quadric[:, 6:], SEMI_AXIS_FLOOR)


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


def as_rotation(R: np.ndarray) -> np.ndarray:
    """Read-only float64 copy of R; ValueError unless R is a finite 3x3
    rotation matrix, orthonormal within 1e-8 and right-handed."""
    R = _freeze(R)
    if R.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {R.shape}")
    if not np.all(np.isfinite(R)):
        raise ValueError("rotation entries must be finite")
    err = np.abs(R.T @ R - np.eye(3)).max()
    if err > 1e-8:
        raise ValueError(f"rotation is not orthonormal (max error {err:.3e})")
    if np.linalg.det(R) < 0.0:
        raise ValueError("rotation has negative determinant")
    return R


class SettingTypeError(ValueError):
    """A settings field's value that its annotation does not admit."""


_EXACT = {"int": (int, "an integer"), "bool": (bool, "true or false"), "str": (str, "a string")}


def _misfit(value, annotation: str) -> str | None:
    """Why ``value`` does not fit the field annotation ``annotation``, or
    None when it fits or the rule does not read the annotation."""
    if annotation.endswith(" | None"):
        return None if value is None else _misfit(value, annotation[: -len(" | None")])
    if annotation == "float":
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return "must be a number"
        return None if math.isfinite(value) else "must be finite"
    if annotation in _EXACT:
        kind, name = _EXACT[annotation]
        return None if type(value) is kind else f"must be {name}"
    if annotation.startswith("tuple["):
        if not isinstance(value, (tuple, list)):
            return "must be a list"
        entries = annotation[len("tuple["):-1].split(", ")
        return next(filter(None, map(_misfit, value, entries)), None)
    return None


def require_field_types(obj) -> None:
    """SettingTypeError naming the first field of a settings dataclass whose
    value its annotation does not admit. A ``float`` takes a finite real
    number but not a bool, as does each entry of a ``tuple[float, float]``;
    ``int``, ``bool`` and ``str`` take exactly that type, so 2.0 is no count
    and "false" no switch; ``X | None`` also takes None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        problem = _misfit(value, f.type)
        if problem:
            raise SettingTypeError(f"{f.name} {problem}, got {value!r}")


# Poses and quadrics hold arrays, so they compare and hash by identity
# (eq=False): a field-wise == over arrays would raise.
@dataclass(frozen=True, eq=False)
class Pose:
    """SE(3) world-from-body transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError("pose translation must be finite")
        object.__setattr__(self, "rotation", as_rotation(self.rotation))
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
        """:func:`retract` of this one pose."""
        R, t, _ = retract(self.rotation[None], self.translation[None], np.empty((0, 3)), delta)
        return Pose(R[0], t[0])


def compose(a: Pose, b: Pose) -> Pose:
    """a then b: world-from-b when a is world-from-mid and b is mid-from-b."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def between(a: Pose, b: Pose) -> Pose:
    """Relative transform taking frame a to frame b: inverse(a) composed with b."""
    Rt = a.rotation.T
    return Pose(Rt @ b.rotation, Rt @ (b.translation - a.translation))


@dataclass(frozen=True, eq=False)
class Quadric:
    """Ellipsoid landmark: rotation matrix (columns are the axes), centroid,
    strictly positive semi-axes."""

    rotation: np.ndarray
    t: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.t, dtype=np.float64).reshape(3)
        s = np.array(self.s, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(s))):
            raise ValueError("quadric entries must be finite")
        if np.any(s <= 0.0):
            raise ValueError(f"semi-axes must be strictly positive, got {s}")
        object.__setattr__(self, "rotation", as_rotation(self.rotation))
        object.__setattr__(self, "t", _freeze(t))
        object.__setattr__(self, "s", _freeze(s))

    @property
    def theta(self) -> np.ndarray:
        """Intrinsic X-Y-Z Euler angles (tx, ty, tz) of the rotation, with
        R = Rx(tx) @ Ry(ty) @ Rz(tz): a read-only view, ty in [-pi/2, pi/2]
        and tz zero at the gimbal singularity."""
        R = self.rotation
        ty = np.arctan2(R[0, 2], np.hypot(R[0, 0], R[0, 1]))
        if abs(R[0, 2]) < 1.0 - 1e-10:
            tx, tz = np.arctan2(-R[1, 2], R[2, 2]), np.arctan2(-R[0, 1], R[0, 0])
        else:
            tx, tz = np.arctan2(R[2, 1], R[1, 1]), 0.0
        return np.array([tx, ty, tz])

    def retract(self, delta: np.ndarray) -> "Quadric":
        """:func:`retract` of this one quadric."""
        R, t, s = retract(self.rotation[None], self.t[None], self.s[None], delta)
        return Quadric(R[0], t[0], s[0])


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        require_field_types(self)
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")


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


def camera_dual_conic(
    R_wc: np.ndarray, t_wc: np.ndarray, R_q: np.ndarray, t_q: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quadrics' axes A = R_cw R_q (n, 3, 3) and centroids c = R_cw (t_q -
    t_wc) (n, 3) in the camera frame, and the dual conic G = A diag(s^2) A^T -
    c c^T (n, 3, 3) that ``[R_cw | t_cw]`` makes of each dual quadric; the
    image dual conic is K G K^T."""
    R_cw = np.swapaxes(R_wc, 1, 2)
    A = R_cw @ R_q
    c = (R_cw @ (t_q - t_wc)[:, :, None])[:, :, 0]
    B = A * s[:, None, :]
    return A, c, B @ np.swapaxes(B, 1, 2) - c[:, :, None] * c[:, None, :]


def project_bbox_batch(
    R_wc: np.ndarray,
    t_wc: np.ndarray,
    K: CameraIntrinsics,
    R_q: np.ndarray,
    t_q: np.ndarray,
    s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Vectorized quadric-to-bbox projection over a batch of configurations.

    Inputs are stacked along axis 0: rotations (n, 3, 3), translations and
    semi-axes (n, 3). Returns boxes (n, 4) as xmin, ymin, xmax, ymax, a
    validity mask (n,), and the :func:`camera_dual_conic` it projected,
    (A, c, G) of every row.

    The sides are read from G, K only scaling and shifting them:
    u = cx + fx (center -+ half) with center = G02 / G22 and half =
    sqrt(G02^2 - G00 G22) / -G22, and v the same with fy, cy and row 1 of
    G. The ellipsoid lies wholly in front of the camera plane exactly when
    its centroid depth is positive and G22 is negative; G22 >= 0 means it
    straddles or touches that plane, and the conic is then no ellipse. Rows
    with non-positive centroid depth, a G22 not below minus a small multiple
    of the conic's size, or a non-positive discriminant are flagged invalid
    and their boxes left as NaN.
    """
    A, c, G = camera_dual_conic(
        *(np.asarray(a, dtype=np.float64) for a in (R_wc, t_wc, R_q, t_q, s))
    )
    den = G[:, 2, 2]
    num = G[:, [0, 1], 2]
    disc = num * num - G[:, [0, 1], [0, 1]] * den[:, None]
    scale = np.abs(G).max(axis=(1, 2))
    valid = (
        (c[:, 2] > 0.0)
        & (den < -_EPS * np.maximum(scale, 1.0))
        & np.all(disc > 0.0, axis=1)
    )
    boxes = np.full((len(G), 4), np.nan)
    den = den[valid, None]
    center, half = num[valid] / den, np.sqrt(disc[valid]) / -den
    sides = np.concatenate([center - half, center + half], axis=1)
    boxes[valid] = np.array([K.cx, K.cy] * 2) + np.array([K.fx, K.fy] * 2) * sides
    return boxes, valid, (A, c, G)
