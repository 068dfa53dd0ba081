"""Data association between detections and ellipsoid landmarks.

``associate_long_term`` maps one frame's detections to landmarks: every
detection is scored against every landmark at once, then matched by a
rectangular linear sum assignment that drops pairs below ``GATE``.

The assignment is ``linear_sum_assignment``, a port of the
shortest-augmenting-path algorithm of Crouse ("On implementing 2D
rectangular assignment algorithms", IEEE TAES 2016) as scipy implements it,
with scipy's tie rule: each search scans the unvisited columns in reverse
index order, takes the first of the cheapest, and prefers a free column on
equal cost. So it returns scipy's assignment, ties included, and the
association and ``evaluation.match_map_to_gt`` share it.

Pair weight: IoU(measured box, predicted box) + SEMANTIC_WEIGHT * psi +
DISTANCE_WEIGHT / max(distance, MIN_DISTANCE), where psi is 1 when the
labels are identical or their embeddings lie within SEMANTIC_THRESHOLD, and
the distance runs from the landmark centroid to the back-projected detection
center; a detection without depth has no distance term. These weights and
the gate are module constants, as the paper fixes them. Each term is one
(d, m) array over all pairs: landmarks arrive as stacked (R, t, s) arrays,
so one batched projection predicts every box; ``EmbeddingTable.compatible``
gives psi as one matrix; and one stacked ``back_project_pixel`` places the
centers of the detections that carry depth.
"""

from __future__ import annotations

from dataclasses import dataclass
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
)


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

    def compatible(self, rows: Sequence[str], cols: Sequence[str], threshold: float) -> np.ndarray:
        """Indicator psi (len(rows), len(cols)): 1.0 where the two labels are
        identical or their embeddings lie within ``threshold`` (Euclidean),
        else 0.0. A token absent from the table matches only itself, and is
        recorded in ``missing_tokens`` once it meets a different label."""
        rows, cols = np.array(rows, dtype=object), np.array(cols, dtype=object)
        same = rows[:, None] == cols[None, :]
        known_r = np.array([label in self.vectors for label in rows], dtype=bool)
        known_c = np.array([label in self.vectors for label in cols], dtype=bool)
        self.missing_tokens.update(rows[~known_r & ~same.all(axis=1)])
        self.missing_tokens.update(cols[~known_c & ~same.all(axis=0)])
        near = known_r[:, None] & known_c[None, :]
        if near.any():
            v_r = np.array([self.vectors[label] for label in rows[known_r]])
            v_c = np.array([self.vectors[label] for label in cols[known_c]])
            # The True entries of near are the known_r x known_c block, row-major.
            near[near] = (np.linalg.norm(v_r[:, None] - v_c[None], axis=-1) <= threshold).ravel()
        return (same | near).astype(np.float64)


# The pair weight's coefficients (see above). SEMANTIC_THRESHOLD is a
# Euclidean distance on the scale of the bundled 50-d embedding table.
SEMANTIC_WEIGHT = 0.3
DISTANCE_WEIGHT = 0.2
SEMANTIC_THRESHOLD = 4.0
GATE = 0.2
MIN_DISTANCE = 0.05


def association_weight(
    detections: Sequence[Detection],
    quadrics: tuple[np.ndarray, np.ndarray, np.ndarray],
    landmark_labels: Sequence[str],
    x: Pose,
    K: CameraIntrinsics,
    table: EmbeddingTable,
) -> np.ndarray:
    """Weights (d, m) of every detection against every landmark.

    ``quadrics`` are the landmarks' stacked rotations, centroids and
    semi-axes. A landmark whose projection is invalid overlaps nothing, and a
    detection without depth has no distance term.
    """
    R_q, t_q, s_q = quadrics
    m = len(landmark_labels)
    predicted, _, _ = project_bbox_batch(
        np.broadcast_to(x.rotation, (m, 3, 3)), np.broadcast_to(x.translation, (m, 3)), K,
        R_q, t_q, s_q,
    )
    boxes = _box_rows(det.bbox for det in detections)
    psi = table.compatible([d.label for d in detections], landmark_labels, SEMANTIC_THRESHOLD)
    w = box_ious(boxes, predicted) + SEMANTIC_WEIGHT * psi
    depths = np.array([np.nan if det.center_depth is None else det.center_depth
                       for det in detections], dtype=np.float64)
    has_depth = ~np.isnan(depths)
    centers = back_project_pixel(
        K, x, 0.5 * (boxes[has_depth, :2] + boxes[has_depth, 2:]), depths[has_depth]
    )
    dist = np.linalg.norm(t_q[None, :, :] - centers[:, None, :], axis=-1)
    w[has_depth] += DISTANCE_WEIGHT / np.maximum(dist, MIN_DISTANCE)
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
) -> AssociationResult:
    """Match one frame's detections to landmark ids by the gated LSAP over
    every detection and every landmark. ``landmark_ids``,
    ``landmark_labels`` and the stacked ``quadrics`` (rotations, centroids,
    semi-axes) describe the landmarks row by row.
    """
    W = association_weight(detections, quadrics, landmark_labels, x, K, table)
    result = solve_lsap(W, GATE)
    matches = {r: landmark_ids[c] for r, c in result.matches.items()}
    return AssociationResult(matches, result.unmatched_detections)


def track_frame(*args, **kwargs):
    """A stub that raises. No run reaches it: every detection goes through
    ``associate_long_term``. It stays only because the benchmark's tracer
    (``perfbench/tracer.py:244``) wraps this name; the benchmark change that
    drops that hook deletes it too."""
    raise NotImplementedError("the short-term tracker is gone; use associate_long_term")
