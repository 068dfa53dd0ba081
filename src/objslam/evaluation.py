"""Map and trajectory quality metrics.

Estimated ellipsoids are compared against ground-truth oriented boxes:
exact oriented 3D IoU (convex polytope clipping), centroid distance, and
sorted-extent size error. Map-to-truth correspondence is a one-to-one
assignment gated by centroid distance, which yields TP/FP/FN counts.
Trajectories are scored by translational RMSE after a closed-form rigid
alignment (no scale). A per-keyframe IoU-error series reproduces
convergence curves from map snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.optimize

from .geometry import Pose, Quadric, _freeze

_PLANE_EPS = 1e-9


class LengthMismatch(ValueError):
    """Trajectories to compare must pair up frame by frame."""


@dataclass(frozen=True)
class OrientedBox3:
    """Oriented 3D box: rotation columns are the box axes, half_extents are
    the per-axis half side lengths (meters)."""

    rotation: np.ndarray
    center: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self) -> None:
        R = np.array(self.rotation, dtype=np.float64)
        c = np.array(self.center, dtype=np.float64).reshape(3)
        h = np.array(self.half_extents, dtype=np.float64).reshape(3)
        if R.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {R.shape}")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(c)) and np.all(np.isfinite(h))):
            raise ValueError("box entries must be finite")
        err = np.abs(R.T @ R - np.eye(3)).max()
        if err > 1e-8:
            raise ValueError(f"rotation is not orthonormal (max error {err:.3e})")
        if np.linalg.det(R) < 0.0:
            raise ValueError("rotation has negative determinant")
        if np.any(h <= 0.0):
            raise ValueError(f"half extents must be positive, got {h}")
        object.__setattr__(self, "rotation", _freeze(R))
        object.__setattr__(self, "center", _freeze(c))
        object.__setattr__(self, "half_extents", _freeze(h))

    def volume(self) -> float:
        return float(8.0 * np.prod(self.half_extents))


def quadric_to_box(q: Quadric) -> OrientedBox3:
    """Ellipsoid to its tightly circumscribed oriented box."""
    return OrientedBox3(q.rotation_matrix(), q.t, q.s)


def _box_faces(box: OrientedBox3) -> list[np.ndarray]:
    """Six quads, each (4, 3), vertex loops counterclockwise seen from outside."""
    faces = []
    R, c, h = box.rotation, box.center, box.half_extents
    for a in range(3):
        b, d = (a + 1) % 3, (a + 2) % 3
        plus, minus = np.zeros(3), np.zeros(3)
        plus[a], minus[a] = 1.0, -1.0
        loop_plus = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        loop_minus = [(-1, -1), (-1, 1), (1, 1), (1, -1)]
        for sign, loop in ((plus, loop_plus), (minus, loop_minus)):
            quad = np.empty((4, 3))
            for i, (sb, sd) in enumerate(loop):
                local = sign * h
                local[b] = sb * h[b]
                local[d] = sd * h[d]
                quad[i] = c + R @ local
            faces.append(quad)
    return faces


def _box_planes(box: OrientedBox3) -> list[tuple[np.ndarray, float]]:
    """Six half-spaces (n, d); a point p is inside when n.p <= d for all."""
    planes = []
    for a in range(3):
        for sign in (1.0, -1.0):
            n = sign * box.rotation[:, a]
            planes.append((n, float(n @ box.center) + float(box.half_extents[a])))
    return planes


def _dedupe_loop(points: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for p in points:
        if out and np.linalg.norm(p - out[-1]) <= _PLANE_EPS:
            continue
        out.append(p)
    while len(out) > 1 and np.linalg.norm(out[0] - out[-1]) <= _PLANE_EPS:
        out.pop()
    return out


def _clip_face(
    poly: np.ndarray, n: np.ndarray, d: float
) -> tuple[np.ndarray | None, list[np.ndarray], bool]:
    """Sutherland-Hodgman step: keep the part of a planar polygon with
    n.p <= d. Returns (clipped polygon or None, crossing points, whether any
    vertex was strictly outside)."""
    dist = poly @ n - d
    if np.all(dist <= _PLANE_EPS):
        return poly, [], False
    if np.all(dist > _PLANE_EPS):
        return None, [], True
    out: list[np.ndarray] = []
    cuts: list[np.ndarray] = []
    k = len(poly)
    for i in range(k):
        p, dp = poly[i], dist[i]
        q, dq = poly[(i + 1) % k], dist[(i + 1) % k]
        if dp <= _PLANE_EPS:
            out.append(p)
            if dq > _PLANE_EPS:
                x = p + (dp / (dp - dq)) * (q - p)
                out.append(x)
                cuts.append(x)
        elif dq <= _PLANE_EPS:
            x = p + (dp / (dp - dq)) * (q - p)
            out.append(x)
            cuts.append(x)
    out = _dedupe_loop(out)
    if len(out) < 3:
        return None, cuts, True
    return np.array(out), cuts, True


def _cap_polygon(cuts: list[np.ndarray], n: np.ndarray) -> np.ndarray | None:
    """Assemble the new face lying in the clipping plane from the crossing
    points, ordered so its outward normal is +n."""
    if len(cuts) < 3:
        return None
    n = n / np.linalg.norm(n)
    axis = int(np.argmin(np.abs(n)))
    u = np.zeros(3)
    u[axis] = 1.0
    u = u - (u @ n) * n
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    pts = np.array(cuts)
    center = pts.mean(axis=0)
    rel = pts - center
    order = np.argsort(np.arctan2(rel @ v, rel @ u))
    loop = _dedupe_loop([pts[i] for i in order])
    if len(loop) < 3:
        return None
    return np.array(loop)


def _polytope_volume(faces: list[np.ndarray]) -> float:
    """Divergence-theorem volume of a closed polytope with outward-oriented
    face loops: one sixth of the summed triple products over face fans."""
    total = 0.0
    for poly in faces:
        v0 = poly[0]
        for i in range(1, len(poly) - 1):
            total += float(v0 @ np.cross(poly[i], poly[i + 1]))
    return max(total / 6.0, 0.0)


def box_iou_3d(a: OrientedBox3, b: OrientedBox3) -> float:
    """Exact IoU of two oriented boxes.

    Box a's boundary is clipped against each of b's six half-spaces; every
    clip that actually removes material adds the planar cap as a new face,
    so untouched (identical or merely tangent) geometry stays exact.
    """
    faces = _box_faces(a)
    for n, d in _box_planes(b):
        cuts: list[np.ndarray] = []
        any_outside = False
        kept: list[np.ndarray] = []
        for poly in faces:
            clipped, face_cuts, cut = _clip_face(poly, n, d)
            if clipped is not None:
                kept.append(clipped)
            cuts.extend(face_cuts)
            any_outside = any_outside or cut
        if any_outside:
            cap = _cap_polygon(cuts, n)
            if cap is not None:
                kept.append(cap)
        faces = kept
        if not faces:
            return 0.0
    inter = _polytope_volume(faces)
    union = a.volume() + b.volume() - inter
    if union <= 0.0:
        return 0.0
    return float(min(max(inter / union, 0.0), 1.0))


def centroid_error(est: Quadric, gt: OrientedBox3) -> float:
    """Euclidean distance between estimated and true centers (meters)."""
    return float(np.linalg.norm(est.t - gt.center))


def size_error(est: Quadric, gt: OrientedBox3) -> float:
    """L2 distance between ascending-sorted semi-axes and half extents.

    Sorting removes the arbitrary axis labeling on both sides.
    """
    return float(np.linalg.norm(np.sort(est.s) - np.sort(gt.half_extents)))


@dataclass(frozen=True)
class MatchResult:
    """One-to-one map-to-truth assignment: matching maps estimate index to
    ground-truth index; tp + fp = #estimates and tp + fn = #ground truth."""

    tp: int
    fp: int
    fn: int
    matching: dict[int, int]


def match_map_to_gt(
    estimates: Sequence[Quadric],
    gt_objects: Sequence[OrientedBox3],
    threshold: float = 0.5,
) -> MatchResult:
    """Assign estimates to ground truth by minimum total centroid distance,
    rejecting pairs farther apart than `threshold` meters."""
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    n_est, n_gt = len(estimates), len(gt_objects)
    matching: dict[int, int] = {}
    if n_est and n_gt:
        dist = np.empty((n_est, n_gt))
        for i, q in enumerate(estimates):
            for j, box in enumerate(gt_objects):
                dist[i, j] = np.linalg.norm(q.t - box.center)
        rows, cols = scipy.optimize.linear_sum_assignment(dist)
        for i, j in zip(rows, cols):
            if dist[i, j] <= threshold:
                matching[int(i)] = int(j)
    tp = len(matching)
    return MatchResult(tp, n_est - tp, n_gt - tp, matching)


def _align_rigid(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid transform (R, t) with R @ src + t ~ dst, no scale."""
    mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
    C = (dst - mu_d).T @ (src - mu_s)
    U, _, Vt = np.linalg.svd(C)
    S = np.eye(3)
    if np.linalg.det(U @ Vt) < 0.0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    return R, mu_d - R @ mu_s


def ate_rmse(est_traj: Sequence[Pose], gt_traj: Sequence[Pose]) -> float:
    """Absolute trajectory error: RMSE of translations after rigid alignment.

    Trajectories must already be time-aligned index by index.
    """
    if len(est_traj) != len(gt_traj):
        raise LengthMismatch(
            f"trajectory lengths differ: {len(est_traj)} vs {len(gt_traj)}"
        )
    if not est_traj:
        raise LengthMismatch("trajectories must be non-empty")
    est = np.array([p.translation for p in est_traj])
    gt = np.array([p.translation for p in gt_traj])
    R, t = _align_rigid(est, gt)
    residuals = est @ R.T + t - gt
    return float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))


@dataclass(frozen=True)
class ObjectMetrics:
    """Scores for one matched (estimate, ground truth) pair."""

    est_index: int
    gt_index: int
    iou: float
    centroid_error: float
    size_error: float


@dataclass(frozen=True)
class EvalReport:
    """Aggregate map/trajectory evaluation.

    `objects` holds one entry per true-positive match; counts satisfy
    tp + fn = #ground-truth objects.
    """

    objects: tuple[ObjectMetrics, ...]
    tp: int
    fp: int
    fn: int
    ate: float | None = None
    iou_series: tuple[tuple[int, float | None, float | None], ...] = ()

    @property
    def mean_iou(self) -> float | None:
        if not self.objects:
            return None
        return float(np.mean([m.iou for m in self.objects]))

    @property
    def mean_centroid_error(self) -> float | None:
        if not self.objects:
            return None
        return float(np.mean([m.centroid_error for m in self.objects]))

    @property
    def mean_size_error(self) -> float | None:
        if not self.objects:
            return None
        return float(np.mean([m.size_error for m in self.objects]))

    def to_json(self) -> dict:
        return {
            "counts": {"tp": self.tp, "fp": self.fp, "fn": self.fn},
            "objects": [
                {
                    "est_index": m.est_index,
                    "gt_index": m.gt_index,
                    "iou": m.iou,
                    "centroid_error": m.centroid_error,
                    "size_error": m.size_error,
                }
                for m in self.objects
            ],
            "means": {
                "iou": self.mean_iou,
                "centroid_error": self.mean_centroid_error,
                "size_error": self.mean_size_error,
            },
            "ate_rmse": self.ate,
            "iou_series": [
                {"keyframe_index": k, "mean_iou_error": m, "std_iou_error": s}
                for k, m, s in self.iou_series
            ],
        }


def evaluate_map(
    estimates: Sequence[Quadric],
    gt_objects: Sequence[OrientedBox3],
    threshold: float = 0.5,
) -> EvalReport:
    """Match estimates to ground truth and score every matched pair."""
    result = match_map_to_gt(estimates, gt_objects, threshold)
    metrics = []
    for i in sorted(result.matching):
        j = result.matching[i]
        box = quadric_to_box(estimates[i])
        metrics.append(
            ObjectMetrics(
                est_index=i,
                gt_index=j,
                iou=box_iou_3d(box, gt_objects[j]),
                centroid_error=centroid_error(estimates[i], gt_objects[j]),
                size_error=size_error(estimates[i], gt_objects[j]),
            )
        )
    return EvalReport(tuple(metrics), result.tp, result.fp, result.fn)


def iou_error_series(
    snapshots: Sequence[tuple[int, Sequence[Quadric]]],
    gt_objects: Sequence[OrientedBox3],
    threshold: float = 0.5,
) -> tuple[tuple[int, float | None, float | None], ...]:
    """Per-keyframe mean and std of 1 - IoU over matched objects.

    Keyframes whose snapshot matches nothing are marked absent (None), not
    zero.
    """
    rows = []
    for keyframe_index, estimates in snapshots:
        result = match_map_to_gt(estimates, gt_objects, threshold)
        errors = [
            1.0 - box_iou_3d(quadric_to_box(estimates[i]), gt_objects[j])
            for i, j in sorted(result.matching.items())
        ]
        if errors:
            rows.append((keyframe_index, float(np.mean(errors)), float(np.std(errors))))
        else:
            rows.append((keyframe_index, None, None))
    return tuple(rows)


def write_iou_series_csv(
    rows: Sequence[tuple[int, float | None, float | None]], path: str | Path
) -> None:
    """Flat CSV of the IoU-error curve; absent entries serialize as nan."""
    lines = ["keyframe_index,mean_iou_error,std_iou_error"]
    for keyframe_index, mean, std in rows:
        m = "nan" if mean is None else repr(float(mean))
        s = "nan" if std is None else repr(float(std))
        lines.append(f"{keyframe_index},{m},{s}")
    Path(path).write_text("\n".join(lines) + "\n")
