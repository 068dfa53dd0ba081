"""Data association between detections, tracks, and ellipsoid landmarks.

Two mechanisms cooperate:

- a short-term tracker carries detections across adjacent frames on bbox
  overlap alone (no motion prediction), so a landmark bound to a track stays
  bound while the track lives;
- long-term association scores every (detection, landmark) pair with
  geometric overlap, semantic label similarity, and centroid proximity, then
  solves a rectangular linear sum assignment and drops matches whose weight
  falls below a gate.

Pair weight: IoU(measured box, predicted box) + w_s * psi + w_d / distance,
where psi is 1 when the label embeddings are within a threshold (or the
labels are identical), and the distance between the landmark centroid and
the back-projected detection centroid is floored to keep the term bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dataset import Detection
from .geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    Pose,
    Quadric,
    back_project_pixel,
    project_bbox_batch,
)


@dataclass(frozen=True)
class AssociationConfig:
    semantic_weight: float = 0.3
    distance_weight: float = 0.2
    semantic_threshold: float = 4.0
    gate: float = 0.2
    min_distance: float = 0.05
    track_min_iou: float = 0.3
    track_max_age: int = 5
    track_gate_dist: float = 0.3

    def __post_init__(self) -> None:
        if self.gate < 0.0:
            raise ValueError("gate must be non-negative")
        if self.min_distance <= 0.0:
            raise ValueError("distance floor must be positive")
        if not 0.0 <= self.track_min_iou <= 1.0:
            raise ValueError("track_min_iou must lie in [0, 1]")
        if self.track_gate_dist <= 0.0:
            raise ValueError("track_gate_dist must be positive")


def bbox_iou(a: BoundingBox2D, b: BoundingBox2D) -> float:
    """Intersection over union of two pixel boxes, 0 when disjoint."""
    ix = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    iy = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area() + b.area() - inter)


class EmbeddingTable:
    """Label embeddings in the word2vec/GloVe text format.

    Lookup misses are recorded in ``missing_tokens`` so callers can surface
    vocabulary gaps once instead of failing the run.
    """

    def __init__(self, vectors: dict[str, np.ndarray]):
        dims = {v.shape for v in vectors.values()}
        if len(dims) > 1:
            raise ValueError(f"inconsistent embedding dimensions: {dims}")
        self.vectors = vectors
        self.missing_tokens: set[str] = set()

    @staticmethod
    def load(path: str | Path) -> "EmbeddingTable":
        vectors: dict[str, np.ndarray] = {}
        with open(path) as f:
            for line_no, line in enumerate(f, start=1):
                parts = line.rstrip("\n").split(" ")
                if len(parts) < 2:
                    continue
                try:
                    vec = np.array([float(x) for x in parts[1:]])
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: bad embedding row") from exc
                vectors[parts[0]] = vec
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


def predicted_box_or_none(
    x: Pose, K: CameraIntrinsics, q: Quadric
) -> BoundingBox2D | None:
    boxes, valid = project_bbox_batch(
        x.rotation[None], x.translation[None], K,
        q.rotation[None], q.t[None], q.s[None],
    )
    if not valid[0]:
        return None
    return BoundingBox2D(*boxes[0])


def association_weight(
    detection: Detection,
    quadric: Quadric,
    landmark_label: str,
    x: Pose,
    K: CameraIntrinsics,
    table: EmbeddingTable,
    cfg: AssociationConfig,
) -> float:
    """Combined geometric, semantic, and centroid-proximity affinity."""
    predicted = predicted_box_or_none(x, K, quadric)
    overlap = bbox_iou(detection.bbox, predicted) if predicted is not None else 0.0
    psi = semantic_indicator(detection.label, landmark_label, table, cfg.semantic_threshold)
    w = overlap + cfg.semantic_weight * psi
    if detection.center_depth is not None:
        t_hat = back_project_pixel(K, x, detection.bbox.center(), detection.center_depth)
        dist = max(float(np.linalg.norm(quadric.t - t_hat)), cfg.min_distance)
        w += cfg.distance_weight / dist
    return w


@dataclass(frozen=True)
class AssociationResult:
    """det index -> landmark id matches, plus leftovers and match weights."""

    matches: dict[int, int]
    unmatched_detections: tuple[int, ...]
    weights: dict[int, float]


def solve_lsap(W: np.ndarray, gate: float) -> AssociationResult:
    """Maximum-weight rectangular assignment with gating.

    Rows are detections, columns are landmarks. Pairs whose weight falls
    below the gate are unmatched even if the assignment selected them.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError(f"weight matrix must be 2-d, got shape {W.shape}")
    matches: dict[int, int] = {}
    weights: dict[int, float] = {}
    if W.size:
        rows, cols = linear_sum_assignment(W, maximize=True)
        for r, c in zip(rows, cols):
            if W[r, c] >= gate:
                matches[int(r)] = int(c)
                weights[int(r)] = float(W[r, c])
    unmatched = tuple(i for i in range(W.shape[0]) if i not in matches)
    return AssociationResult(matches, unmatched, weights)


def associate_long_term(
    detections: list[Detection],
    landmarks: list[tuple[int, Quadric, str]],
    x: Pose,
    K: CameraIntrinsics,
    table: EmbeddingTable,
    cfg: AssociationConfig,
) -> AssociationResult:
    """Assign detections to landmark ids given (id, quadric, label) triples."""
    W = np.zeros((len(detections), len(landmarks)))
    for i, det in enumerate(detections):
        for j, (_, quadric, label) in enumerate(landmarks):
            W[i, j] = association_weight(det, quadric, label, x, K, table, cfg)
    result = solve_lsap(W, cfg.gate)
    id_matches = {i: landmarks[j][0] for i, j in result.matches.items()}
    return AssociationResult(id_matches, result.unmatched_detections, result.weights)


@dataclass(frozen=True)
class Track:
    track_id: int
    bbox: BoundingBox2D
    label: str
    age: int = 0
    hits: int = 1


@dataclass(frozen=True)
class TrackerState:
    """Immutable short-term tracker state; ids are never reused."""

    tracks: tuple[Track, ...] = ()
    next_id: int = 0

    @staticmethod
    def empty() -> "TrackerState":
        return TrackerState()


def track_frame(
    state: TrackerState, detections: list[Detection], cfg: AssociationConfig
) -> tuple[TrackerState, dict[int, int]]:
    """Advance the tracker one frame.

    Detections are matched to live tracks of the same label by bbox IoU
    through the same assignment solver; matches under ``track_min_iou`` are
    rejected, and cross-label pairs are forbidden outright so a track cannot
    jump onto an overlapping object of another class. Matched tracks refresh,
    unmatched tracks age (and retire past ``track_max_age``), unmatched
    detections spawn new tracks. Returns the new state and the
    detection-index to track-id assignment for this frame.
    """
    tracks = list(state.tracks)
    W = np.zeros((len(detections), len(tracks)))
    for i, det in enumerate(detections):
        for j, track in enumerate(tracks):
            if det.label == track.label:
                W[i, j] = bbox_iou(det.bbox, track.bbox)
    result = solve_lsap(W, cfg.track_min_iou)

    assignments: dict[int, int] = {}
    matched_tracks: set[int] = set()
    new_tracks: list[Track] = []
    for det_idx, track_idx in result.matches.items():
        old = tracks[track_idx]
        new_tracks.append(
            replace(old, bbox=detections[det_idx].bbox, age=0, hits=old.hits + 1)
        )
        assignments[det_idx] = old.track_id
        matched_tracks.add(track_idx)
    for j, track in enumerate(tracks):
        if j not in matched_tracks and track.age + 1 <= cfg.track_max_age:
            new_tracks.append(replace(track, age=track.age + 1))
    next_id = state.next_id
    for det_idx in result.unmatched_detections:
        det = detections[det_idx]
        new_tracks.append(Track(next_id, det.bbox, det.label))
        assignments[det_idx] = next_id
        next_id += 1

    new_tracks.sort(key=lambda t: t.track_id)
    return TrackerState(tuple(new_tracks), next_id), assignments
