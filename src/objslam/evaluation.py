"""Map and trajectory quality metrics.

Estimated and ground-truth objects are both ``Quadric``s, a ground-truth
object's semi-axes being its box's half extents. They are compared by the
exact 3D IoU of their circumscribed oriented boxes (the convex hull of the
points where three of the two boxes' face planes meet inside both),
centroid distance, and sorted-semi-axis size error. Map-to-truth
correspondence is a one-to-one assignment gated by centroid distance, which
yields TP/FP/FN counts. Trajectories are scored by translational RMSE after
a closed-form rigid alignment (no scale). A per-keyframe IoU-error series
reproduces convergence curves from map snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.optimize
import scipy.spatial

from .geometry import Pose, Quadric

# Half-space tolerance of an intersection vertex, relative to the largest
# plane offset (the scale of the coordinates).
_PLANE_EPS = 1e-9
# Plane triples of unit normals with |det| at or below this are parallel
# (opposite faces of one box) or too close to it to meet in one point.
_DET_EPS = 1e-12
_PLANE_TRIPLES = np.array(list(combinations(range(12), 3)))


class LengthMismatch(ValueError):
    """Trajectories to compare must pair up frame by frame."""


def _box_volume(q: Quadric) -> float:
    """Volume of the circumscribed box, not of the ellipsoid."""
    return float(8.0 * np.prod(q.s))


def _halfspaces(q: Quadric) -> tuple[np.ndarray, np.ndarray]:
    """Six face planes of the circumscribed box as outward unit normals
    N (6, 3) and offsets d (6,); a point p is inside when N @ p <= d."""
    N = np.concatenate([q.rotation.T, -q.rotation.T])
    return N, N @ q.t + np.tile(q.s, 2)


def box_iou_3d(a: Quadric, b: Quadric) -> float:
    """Exact IoU of the circumscribed oriented boxes of two quadrics: each
    box has the quadric's axes, centroid and semi-axes as half extents.

    The intersection is the convex polytope bounded by the 12 face planes.
    Its vertices are the solutions of the non-degenerate plane triples that
    satisfy every half-space, and its volume is their convex hull's. Fewer
    than four vertices or a flat hull (boxes touching at a face, an edge or
    a corner) is an empty intersection.
    """
    Na, da = _halfspaces(a)
    Nb, db = _halfspaces(b)
    N, d = np.concatenate([Na, Nb]), np.concatenate([da, db])
    A = N[_PLANE_TRIPLES]
    solvable = np.abs(np.linalg.det(A)) > _DET_EPS
    X = np.linalg.solve(A[solvable], d[_PLANE_TRIPLES][solvable][..., None])[..., 0]
    tol = _PLANE_EPS * float(np.abs(d).max())
    vertices = X[np.all(X @ N.T <= d + tol, axis=1)]
    if len(vertices) < 4:
        return 0.0
    try:
        inter = scipy.spatial.ConvexHull(vertices).volume
    except scipy.spatial.QhullError:
        return 0.0
    union = _box_volume(a) + _box_volume(b) - inter
    return float(min(max(inter / union, 0.0), 1.0))


def centroid_error(est: Quadric, gt: Quadric) -> float:
    """Euclidean distance between estimated and true centroids (meters)."""
    return float(np.linalg.norm(est.t - gt.t))


def size_error(est: Quadric, gt: Quadric) -> float:
    """L2 distance between the ascending-sorted semi-axes of both.

    Sorting removes the arbitrary axis labeling on both sides.
    """
    return float(np.linalg.norm(np.sort(est.s) - np.sort(gt.s)))


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
    gt_objects: Sequence[Quadric],
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
            for j, gt in enumerate(gt_objects):
                dist[i, j] = np.linalg.norm(q.t - gt.t)
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
    gt_objects: Sequence[Quadric],
    threshold: float = 0.5,
) -> EvalReport:
    """Match estimates to ground truth and score every matched pair."""
    result = match_map_to_gt(estimates, gt_objects, threshold)
    metrics = []
    for i in sorted(result.matching):
        j = result.matching[i]
        metrics.append(
            ObjectMetrics(
                est_index=i,
                gt_index=j,
                iou=box_iou_3d(estimates[i], gt_objects[j]),
                centroid_error=centroid_error(estimates[i], gt_objects[j]),
                size_error=size_error(estimates[i], gt_objects[j]),
            )
        )
    return EvalReport(tuple(metrics), result.tp, result.fp, result.fn)


def iou_error_series(
    snapshots: Sequence[tuple[int, Sequence[Quadric]]],
    gt_objects: Sequence[Quadric],
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
            1.0 - box_iou_3d(estimates[i], gt_objects[j])
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
