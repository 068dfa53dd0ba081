"""Map and trajectory quality metrics.

Estimated and ground-truth ellipsoids come as stacked rows, the convention
of projection, association and the solver: axes R (n, 3, 3), centroids
t (n, 3) and semi-axes s (n, 3), a ground-truth object's semi-axes being
its box's half extents. They are compared by the exact 3D IoU of their
circumscribed oriented boxes, centroid distance, and sorted-semi-axis size
error. Map-to-truth correspondence is a one-to-one assignment gated by
centroid distance, which yields TP/FP/FN counts. Trajectories are scored by
translational RMSE after a closed-form rigid alignment (no scale). A
per-keyframe IoU-error series reproduces convergence curves from map
snapshots. Nothing here validates its input, reads or writes a file: the
callers pass the solver's output or records checked where they were read,
and ``dataset`` writes ``report.json`` and ``iou_series.csv``.

The IoU needs no convex hull. One box's surface is clipped by the other's
six half-spaces, the cut faces closed along each plane, and the volume of
that closed surface is a sum over its faces by the divergence theorem.
``box_iou_3d`` scores all the pairs it is given in one batched pass, so a
report or an IoU-error series makes one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .association import linear_sum_assignment
from .geometry import Pose

# A vertex within this of a clipping plane, relative to the largest plane
# offset in the first box's frame, counts as inside it: a face flush with
# the plane stays whole instead of being cut at roundoff-placed points.
_PLANE_EPS = 1e-9
# Pairs scored together. It bounds the (3, block, 12, 12) edge arrays, which
# all of a run's snapshot pairs at once would make several megabytes.
_IOU_BLOCK = 32
# The faces of a unit box, +x, +y, +z, -x, -y, -z, each as its corners in
# order, counterclockwise seen from outside.
_BOX_FACES = np.array([
    [[s if a == i else u if a == (i + 1) % 3 else w for a in range(3)]
     for u, w in ((-1, -1), (1, -1), (1, 1), (-1, 1))[::s]]
    for s in (1, -1) for i in range(3)
], dtype=np.float64)
# Edge slots (12 per face). Clip j puts each cut face's closing edge in slot
# j. b's faces hold their own four edges in slots 6-9; plane j's face holds
# face g's closing edge in slot _CAP_SLOT[g] = (g + 6) % 12, so the edge from
# an earlier plane's face lands in a slot below j, free of later closings.
_CAP_SLOT = (np.arange(12) + 6) % 12


# Stacked ellipsoids: axes R (n, 3, 3), centroids t (n, 3), semi-axes s (n, 3).
Rows = tuple[np.ndarray, np.ndarray, np.ndarray]


class LengthMismatch(ValueError):
    """Trajectories to compare must pair up frame by frame."""


def _intersection_volumes(
    Ra: np.ndarray, ta: np.ndarray, sa: np.ndarray,
    Rb: np.ndarray, tb: np.ndarray, sb: np.ndarray,
) -> np.ndarray:
    """Volumes (P,) of the intersections of P pairs of boxes, each side
    stacked as axes R (P, 3, 3), centers t (P, 3) and half extents s (P, 3).

    In a's frame, b's surface is clipped by a's six half-spaces in turn. The
    surface is kept as the directed edges of each face, 12 faces of 12 edge
    slots: a clip cuts every edge at the plane, drops what lies outside,
    closes each cut face with an edge along the plane, and adds the plane as
    a face made of those edges reversed. The surface so stays closed, every
    face keeping its own plane, and its volume is the sum over faces of
    d n . (p x q) / 6 over their edges p -> q (divergence theorem, n the
    face's unit normal and d its offset). Coincident and nearly parallel
    faces of the two boxes stay separate faces, cut where they cross, and
    never count twice; boxes that only touch clip to a flat surface, whose
    volume is zero up to roundoff.
    """
    P = len(ta)
    # b's axes M[:, :, m] and center c in a's frame.
    M = sum(Ra[:, k, :, None] * Rb[:, k, None, :] for k in range(3))
    c = sum(Ra[:, k, :] * (tb - ta)[:, k, None] for k in range(3))
    # Faces, coordinates first: b's six, then a's planes as they are applied,
    # as unit normals (3, P, 12) and offsets (P, 12).
    normal = np.empty((3, P, 12))
    normal[:, :, :3], normal[:, :, 3:6] = np.moveaxis(M, 0, 1), -np.moveaxis(M, 0, 1)
    normal[:, :, 6:] = np.concatenate([np.eye(3), -np.eye(3)], axis=1)[:, None]
    offset = np.concatenate([
        sum(normal[k, :, :6] * c[:, k, None] for k in range(3)) + np.tile(sb, 2),
        np.tile(sa, 2),
    ], axis=1)
    tol = _PLANE_EPS * np.abs(offset).max(axis=1)[:, None, None]
    # Each edge runs head -> tail; live marks the slots in use.
    head = np.zeros((3, P, 12, 12))
    tail = np.zeros((3, P, 12, 12))
    live = np.zeros((P, 12, 12), dtype=bool)
    corners = sum(M[:, :, m].T[:, :, None, None] * (_BOX_FACES[:, :, m] * sb[:, m, None, None])
                  for m in range(3)) + c.T[:, :, None, None]
    head[:, :, :6, 6:10], tail[:, :, :6, 6:10] = corners, np.roll(corners, -1, axis=3)
    live[:, :6, 6:10] = True
    for j in range(6):
        axis, side = j % 3, 1.0 if j < 3 else -1.0
        s_head = side * head[axis] - sa[:, axis, None, None]
        s_tail = side * tail[axis] - sa[:, axis, None, None]
        in_head, in_tail = s_head <= tol, s_tail <= tol
        leaving, entering = live & in_head & ~in_tail, live & ~in_head & in_tail
        # The cut point as a weighted mean of the two ends, an inside end
        # beyond the plane within tol taken as on it. Both copies of an
        # edge (one per face, opposite ways) so get the same bits.
        w_head = np.where(in_head, np.minimum(s_head, 0.0), s_head)
        w_tail = np.where(in_tail, np.minimum(s_tail, 0.0), s_tail)
        crossing = leaving | entering
        cut = (w_tail * head - w_head * tail) / np.where(crossing, w_tail - w_head, 1.0)
        np.copyto(head, cut, where=entering)
        np.copyto(tail, cut, where=leaving)
        live &= in_head | in_tail
        # A convex face leaves and re-enters the half-space at most once.
        exit_at, entry_at = (
            np.take_along_axis(cut, np.broadcast_to(
                crossed.argmax(axis=2)[..., None], (3, P, 12, 1)), axis=3)[..., 0]
            for crossed in (leaving, entering)
        )
        cut_faces = leaving.any(axis=2)
        head[:, :, :, j], tail[:, :, :, j], live[:, :, j] = exit_at, entry_at, cut_faces
        head[:, :, 6 + j, _CAP_SLOT], tail[:, :, 6 + j, _CAP_SLOT] = entry_at, exit_at
        live[:, 6 + j, _CAP_SLOT] = cut_faces
    area = np.where(live, [head[1] * tail[2] - head[2] * tail[1],
                           head[2] * tail[0] - head[0] * tail[2],
                           head[0] * tail[1] - head[1] * tail[0]], 0.0).sum(axis=3)
    return (offset * sum(normal[k] * area[k] for k in range(3))).sum(axis=1) / 6.0


def _take(rows: Rows, index: Sequence[int]) -> Rows:
    """The ellipsoids at these indices, in this order."""
    index = np.asarray(index, dtype=np.intp)
    return tuple(x[index] for x in rows)


def box_iou_3d(a: Rows, b: Rows) -> np.ndarray:
    """Exact IoUs (n,) of n pairs of circumscribed oriented boxes: each box
    has an ellipsoid's axes, centroid and semi-axes as half extents. Pairs
    are scored in blocks of ``_IOU_BLOCK``.
    """
    if len(a[1]) != len(b[1]):
        raise ValueError(f"cannot pair {len(a[1])} boxes with {len(b[1])}")
    inter = np.concatenate([np.zeros(0)] + [
        _intersection_volumes(*(x[k:k + _IOU_BLOCK] for x in a + b))
        for k in range(0, len(a[1]), _IOU_BLOCK)
    ])
    union = 8.0 * np.prod(a[2], axis=1) + 8.0 * np.prod(b[2], axis=1) - inter
    return np.clip(inter / union, 0.0, 1.0)


@dataclass(frozen=True)
class MatchResult:
    """One-to-one map-to-truth assignment: matching maps estimate index to
    ground-truth index; tp + fp = #estimates and tp + fn = #ground truth."""

    tp: int
    fp: int
    fn: int
    matching: dict[int, int]


def match_map_to_gt(
    estimates: Rows, gt_objects: Rows, threshold: float = 0.5
) -> MatchResult:
    """Assign estimates to ground truth by minimum total centroid distance,
    rejecting pairs farther apart than `threshold` meters."""
    if not 0.0 < threshold < np.inf:
        bound = "finite" if threshold > 0.0 else "positive"
        raise ValueError(f"threshold must be {bound}, got {threshold}")
    n_est, n_gt = len(estimates[1]), len(gt_objects[1])
    matching: dict[int, int] = {}
    if n_est and n_gt:
        dist = np.linalg.norm(estimates[1][:, None] - gt_objects[1][None], axis=2)
        rows, cols = linear_sum_assignment(dist)
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


def evaluate_map(
    estimates: Rows, gt_objects: Rows, threshold: float = 0.5
) -> EvalReport:
    """Match estimates to ground truth and score every matched pair. The
    size error is the distance between the ascending-sorted semi-axes,
    which removes the arbitrary axis labeling on both sides."""
    result = match_map_to_gt(estimates, gt_objects, threshold)
    pairs = sorted(result.matching.items())
    ious = box_iou_3d(_take(estimates, [i for i, _ in pairs]),
                      _take(gt_objects, [j for _, j in pairs]))
    (_, est_t, est_s), (_, gt_t, gt_s) = estimates, gt_objects
    metrics = tuple(
        ObjectMetrics(
            est_index=i,
            gt_index=j,
            iou=float(iou),
            centroid_error=float(np.linalg.norm(est_t[i] - gt_t[j])),
            size_error=float(np.linalg.norm(np.sort(est_s[i]) - np.sort(gt_s[j]))),
        )
        for (i, j), iou in zip(pairs, ious)
    )
    return EvalReport(metrics, result.tp, result.fp, result.fn)


def iou_error_series(
    snapshots: Sequence[tuple[int, Rows]],
    gt_objects: Rows,
    threshold: float = 0.5,
) -> tuple[tuple[int, float | None, float | None], ...]:
    """Per-keyframe mean and std of 1 - IoU over matched objects.

    Keyframes whose snapshot matches nothing are marked absent (None), not
    zero. Every snapshot is matched first; one ``box_iou_3d`` call then
    scores all the matched pairs.
    """
    if not snapshots:
        return ()
    pairs = [
        sorted(match_map_to_gt(estimates, gt_objects, threshold).matching.items())
        for _, estimates in snapshots
    ]
    matched = [_take(estimates, [i for i, _ in p]) for (_, estimates), p in zip(snapshots, pairs)]
    errors = 1.0 - box_iou_3d(
        tuple(np.concatenate(x) for x in zip(*matched)),
        _take(gt_objects, [j for p in pairs for _, j in p]),
    )
    rows, start = [], 0
    for (keyframe_index, _), p in zip(snapshots, pairs):
        err, start = errors[start:start + len(p)], start + len(p)
        if len(err):
            rows.append((keyframe_index, float(np.mean(err)), float(np.std(err))))
        else:
            rows.append((keyframe_index, None, None))
    return tuple(rows)
