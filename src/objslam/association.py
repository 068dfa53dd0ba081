"""Data association between detections and ellipsoid landmarks.

``associate_long_term`` maps one frame's detections to landmarks: every
detection is scored against every landmark at once, then matched by a
rectangular linear sum assignment that drops pairs below a gate.

The assignment is ``linear_sum_assignment``, a port of the
shortest-augmenting-path algorithm of Crouse ("On implementing 2D
rectangular assignment algorithms", IEEE TAES 2016) as scipy implements it,
with scipy's tie rule: each search scans the unvisited columns in reverse
index order, takes the first of the cheapest, and prefers a free column on
equal cost. So it returns scipy's assignment, ties included, and the
association and ``evaluation.match_map_to_gt`` share it.

Pair weight: IoU(measured box, predicted box) + w_s * psi + w_d / distance,
where psi is 1 when the label embeddings are within a threshold (or the
labels are identical), and the distance between the landmark centroid and
the back-projected detection centroid is floored to keep the term bounded.
Landmarks arrive as stacked (R, t, s) arrays, so one batched projection
predicts the boxes of all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import Detection
from .geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    Pose,
    back_project_pixel,
    project_bbox_batch,
    require_field_types,
)


@dataclass(frozen=True)
class AssociationConfig:
    semantic_weight: float = 0.3
    distance_weight: float = 0.2
    semantic_threshold: float = 4.0
    gate: float = 0.2
    min_distance: float = 0.05

    def __post_init__(self) -> None:
        require_field_types(self)
        if self.gate < 0.0:
            raise ValueError("gate must be non-negative")
        if self.min_distance <= 0.0:
            raise ValueError("distance floor must be positive")


def box_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection over union (n, m) of pixel boxes a (n, 4) and b (m, 4),
    rows xmin, ymin, xmax, ymax; 0 when disjoint or when either row is NaN."""
    a = np.asarray(a, dtype=np.float64)[:, None, :]
    b = np.asarray(b, dtype=np.float64)[None, :, :]
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    overlap = (ix > 0.0) & (iy > 0.0)
    inter = ix * iy
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return np.where(overlap, inter / np.where(overlap, area_a + area_b - inter, 1.0), 0.0)


def _box_rows(boxes: Iterable[BoundingBox2D]) -> np.ndarray:
    return np.array([b.as_array() for b in boxes], dtype=np.float64).reshape(-1, 4)


class EmbeddingTable:
    """Label embeddings in the word2vec/GloVe text format.

    Lookup misses are recorded in ``missing_tokens`` so callers can surface
    vocabulary gaps once instead of failing the run.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        self.vectors = vectors
        self.missing_tokens: set[str] = set()

    @staticmethod
    def load(path: str | Path) -> "EmbeddingTable":
        """One ``token v1 ... vd`` row per line, split on whitespace. Blank
        lines are skipped, and so is a first line of exactly two integers,
        word2vec's ``count dim`` header. A row without a value, with one that
        is not a finite number, with a token of an earlier row, or with
        another number of values than the first row is an error."""
        vectors: dict[str, np.ndarray] = {}
        with open(path) as f:
            for line_no, line in enumerate(f, start=1):
                parts = line.split()
                header = line_no == 1 and len(parts) == 2 and all(p.isdigit() for p in parts)
                if not parts or header:
                    continue
                try:
                    vec = np.array([float(x) for x in parts[1:]])
                    if not len(vec) or not np.all(np.isfinite(vec)):
                        raise ValueError("no values or a non-finite one")
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: bad embedding row") from exc
                if parts[0] in vectors:
                    raise ValueError(f"{path}:{line_no}: repeated embedding token {parts[0]!r}")
                if vectors and len(vec) != dim:
                    raise ValueError(
                        f"{path}:{line_no}: embedding row has {len(vec)} values, expected {dim}"
                    )
                vectors[parts[0]] = vec
                dim = len(vec)
        return EmbeddingTable(vectors)

    @staticmethod
    def empty() -> "EmbeddingTable":
        return EmbeddingTable({})

    def distance(self, label_a: str, label_b: str) -> float | None:
        """Euclidean embedding distance, or None when either token is absent."""
        missing = [l for l in (label_a, label_b) if l not in self.vectors]
        if missing:
            self.missing_tokens.update(missing)
            return None
        return float(np.linalg.norm(self.vectors[label_a] - self.vectors[label_b]))


def semantic_indicator(
    label_det: str, label_lm: str, table: EmbeddingTable, threshold: float
) -> float:
    """1.0 when the labels are semantically compatible, else 0.0."""
    if label_det == label_lm:
        return 1.0
    d = table.distance(label_det, label_lm)
    if d is None:
        return 0.0
    return 1.0 if d <= threshold else 0.0


def association_weight(
    detections: Sequence[Detection],
    centers: np.ndarray,
    quadrics: tuple[np.ndarray, np.ndarray, np.ndarray],
    landmark_labels: Sequence[str],
    x: Pose,
    K: CameraIntrinsics,
    table: EmbeddingTable,
    cfg: AssociationConfig,
) -> np.ndarray:
    """Weights (d, m) of every detection against every landmark.

    ``centers`` are the detections' back-projected box centers (NaN rows
    without depth, which omit the distance term); ``quadrics`` are the
    landmarks' stacked rotations, centroids and semi-axes. A landmark whose
    projection is invalid overlaps nothing.
    """
    R_q, t_q, s_q = quadrics
    m = len(landmark_labels)
    predicted, _, _ = project_bbox_batch(
        np.broadcast_to(x.rotation, (m, 3, 3)), np.broadcast_to(x.translation, (m, 3)), K,
        R_q, t_q, s_q,
    )
    psi = np.array(
        [[semantic_indicator(det.label, label, table, cfg.semantic_threshold)
          for label in landmark_labels] for det in detections],
        dtype=np.float64,
    ).reshape(len(detections), m)
    w = box_ious(_box_rows(det.bbox for det in detections), predicted) + cfg.semantic_weight * psi
    has_depth = ~np.isnan(centers[:, 0])
    dist = np.linalg.norm(t_q[None, :, :] - centers[has_depth, None, :], axis=-1)
    w[has_depth] += cfg.distance_weight / np.maximum(dist, cfg.min_distance)
    return w


def linear_sum_assignment(cost, maximize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost (maximum with ``maximize``) assignment of the rows of a
    rectangular cost matrix to distinct columns, or of its columns when it
    is tall: the row indices, ascending, and their columns, as int64 arrays.

    ``+inf`` forbids a pair (``-inf`` under ``maximize``). NaN, the other
    infinity and a matrix with no full assignment raise ValueError. Results,
    ties and errors are those of scipy's ``linear_sum_assignment``.
    """
    cost = np.asarray(cost)
    if cost.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {cost.ndim} array")
    nr, nc = cost.shape
    if nr == 0 or nc == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    transpose = nc < nr
    if transpose:
        cost = cost.T
        nr, nc = nc, nr
    cost = -cost.astype(np.float64) if maximize else cost.astype(np.float64, copy=False)
    if not (cost > -np.inf).all():  # NaN compares false too
        raise ValueError("matrix contains invalid numeric entries")
    C = cost.tolist()
    u = [0.0] * nr
    v = [0.0] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    v_zero = True  # no column potential moved yet
    for cur in range(nr):
        # The search from row cur: spc[j] is the shortest reduced path cost
        # to column j. Its first step (u[cur] is still 0) reaches every
        # column from cur; x - 0.0 is x exactly, so while v is zero the row
        # is its own first step.
        spc = C[cur] if v_zero else [c - w for c, w in zip(C[cur], v)]
        lowest = min(spc)
        if lowest == np.inf:
            raise ValueError("cost matrix is infeasible")
        # Columns are scanned from the last: the first cheapest one scanned
        # (the highest index) wins, unless free columns tie it; then the
        # last free one scanned (the lowest free index) does.
        if spc.count(lowest) == 1:
            j = spc.index(lowest)
        else:
            ties = [j for j, s in enumerate(spc) if s == lowest]
            free = [j for j in ties if row4col[j] < 0]
            j = free[0] if free else ties[-1]
        if row4col[j] < 0:
            # The path is the single edge (cur, j): u[cur] takes its cost
            # and v[j] moves by lowest - spc[j] = 0.
            u[cur] = lowest
            row4col[j] = cur
            col4row[cur] = j
            continue
        v_zero = False
        spc = list(spc)
        path = [cur] * nc
        remaining = list(range(nc - 1, -1, -1))
        remaining[nc - 1 - j] = remaining[-1]
        remaining.pop()
        SR = [cur]  # rows and columns the search has reached (Crouse's SR, SC)
        SC = [j]
        min_val = lowest
        while row4col[j] >= 0:
            i = row4col[j]
            SR.append(i)
            ci, ui = C[i], u[i]
            for k in remaining:
                r = min_val + ci[k] - ui - v[k]
                if r < spc[k]:
                    path[k] = i
                    spc[k] = r
            vals = [spc[k] for k in remaining]
            min_val = min(vals)
            if min_val == np.inf:
                raise ValueError("cost matrix is infeasible")
            index = vals.index(min_val)
            if vals.count(min_val) > 1:
                for it in range(len(vals) - 1, index, -1):
                    if vals[it] == min_val and row4col[remaining[it]] < 0:
                        index = it
                        break
            j = remaining[index]
            SC.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # Update the potentials, then flip the path ending at the free column j.
        u[cur] += min_val
        for i in SR[1:]:
            u[i] += min_val - spc[col4row[i]]
        for k in SC:
            v[k] -= min_val - spc[k]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    rows = np.arange(nr, dtype=np.int64)
    cols = np.array(col4row, dtype=np.int64)
    if transpose:
        order = np.argsort(cols)
        return cols[order], rows[order]
    return rows, cols


@dataclass(frozen=True)
class AssociationResult:
    """det index -> landmark id matches, plus the unmatched detections."""

    matches: dict[int, int]
    unmatched_detections: tuple[int, ...]


def solve_lsap(W: np.ndarray, gate: float) -> AssociationResult:
    """Maximum-weight rectangular assignment with gating.

    Rows are detections, columns are landmarks. Pairs whose weight falls
    below the gate are unmatched even if the assignment selected them.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError(f"weight matrix must be 2-d, got shape {W.shape}")
    matches: dict[int, int] = {}
    if W.size:
        rows, cols = linear_sum_assignment(W, maximize=True)
        for r, c in zip(rows, cols):
            if W[r, c] >= gate:
                matches[int(r)] = int(c)
    unmatched = tuple(i for i in range(W.shape[0]) if i not in matches)
    return AssociationResult(matches, unmatched)


def associate_long_term(
    detections: Sequence[Detection],
    landmark_ids: Sequence[int],
    landmark_labels: Sequence[str],
    quadrics: tuple[np.ndarray, np.ndarray, np.ndarray],
    x: Pose,
    K: CameraIntrinsics,
    table: EmbeddingTable,
    cfg: AssociationConfig,
) -> AssociationResult:
    """Match one frame's detections to landmark ids by the gated LSAP over
    every detection and every landmark. ``landmark_ids``,
    ``landmark_labels`` and the stacked ``quadrics`` (rotations, centroids,
    semi-axes) describe the landmarks row by row.
    """
    centers = np.full((len(detections), 3), np.nan)  # NaN rows: no depth
    for i, det in enumerate(detections):
        if det.center_depth is not None:
            centers[i] = back_project_pixel(K, x, det.bbox.center(), det.center_depth)
    result = solve_lsap(
        association_weight(detections, centers, quadrics, landmark_labels, x, K, table, cfg),
        cfg.gate,
    )
    matches = {r: landmark_ids[c] for r, c in result.matches.items()}
    return AssociationResult(matches, result.unmatched_detections)


@dataclass(frozen=True)
class Track:
    track_id: int
    bbox: BoundingBox2D
    label: str
    age: int = 0


@dataclass(frozen=True)
class TrackerState:
    """Immutable short-term tracker state; ids are never reused."""

    tracks: tuple[Track, ...] = ()
    next_id: int = 0

    @staticmethod
    def empty() -> "TrackerState":
        return TrackerState()


def track_frame(
    state: TrackerState, detections: list[Detection], min_iou: float = 0.3, max_age: int = 5
) -> tuple[TrackerState, dict[int, int]]:
    """Advance a short-term box-overlap tracker one frame.

    No run calls this: every detection goes through ``associate_long_term``.
    It stays, with ``Track`` and ``TrackerState``, only because the
    benchmark's tracer (``perfbench/tracer.py``) patches it by name; it goes
    when the tracer stops doing so.

    Detections are matched to live tracks of the same label by bbox IoU
    through the same assignment solver; matches under ``min_iou`` are
    rejected, and cross-label pairs are forbidden outright so a track cannot
    jump onto an overlapping object of another class. Matched tracks refresh,
    unmatched tracks age (and retire past ``max_age``), unmatched detections
    spawn new tracks. Returns the new state and the detection-index to
    track-id assignment for this frame.
    """
    tracks = list(state.tracks)
    same_label = np.array(
        [[det.label == track.label for track in tracks] for det in detections], dtype=bool
    ).reshape(len(detections), len(tracks))
    ious = box_ious(_box_rows(det.bbox for det in detections), _box_rows(t.bbox for t in tracks))
    W = np.where(same_label, ious, 0.0)
    result = solve_lsap(W, min_iou)

    assignments: dict[int, int] = {}
    matched_tracks: set[int] = set()
    new_tracks: list[Track] = []
    for det_idx, track_idx in result.matches.items():
        old = tracks[track_idx]
        new_tracks.append(replace(old, bbox=detections[det_idx].bbox, age=0))
        assignments[det_idx] = old.track_id
        matched_tracks.add(track_idx)
    for j, track in enumerate(tracks):
        if j not in matched_tracks and track.age + 1 <= max_age:
            new_tracks.append(replace(track, age=track.age + 1))
    next_id = state.next_id
    for det_idx in result.unmatched_detections:
        det = detections[det_idx]
        new_tracks.append(Track(next_id, det.bbox, det.label))
        assignments[det_idx] = next_id
        next_id += 1

    new_tracks.sort(key=lambda t: t.track_id)
    return TrackerState(tuple(new_tracks), next_id), assignments
