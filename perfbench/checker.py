"""Independent check of one mapped scene, with numpy and scipy only.

It reads the map as ``write_map_json`` wrote it, matches landmark centroids
to the simulator's ground truth (Hungarian assignment, 0.5 m gate),
recomputes centroid error, size error, a Monte Carlo 3D IoU and the
trajectory ATE after Kabsch alignment, and compares them with what the
pipeline's evaluation reported. It also checks properties every output of
the method must have. Nothing here imports objslam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.transform import Rotation

MATCH_GATE_M = 0.5
# The pipeline computes the same errors in another order of operations.
EXACT_RTOL = 1e-9
# Monte Carlo IoU with IOU_SAMPLES points per box: its standard error is
# below 0.005, so 0.05 is a gross disagreement.
IOU_SAMPLES = 20_000
IOU_TOL = 0.05
# Floors every scene of the workloads clears by a factor of ten; a map that
# misses them is wrong, not merely less accurate.
MIN_MAPPED_SHARE = 0.8
MAX_MEAN_CENTROID_ERR_M = 0.1
MAX_ATE_M = 0.1


@dataclass(frozen=True)
class SceneTruth:
    centers: np.ndarray
    rotations: np.ndarray
    half_extents: np.ndarray
    frame_ids: tuple[int, ...]
    positions: np.ndarray


@dataclass
class CheckResult:
    problems: list[str] = field(default_factory=list)
    tp: int = 0
    fp: int = 0
    fn: int = 0
    iou: list[float] = field(default_factory=list)
    centroid_err: list[float] = field(default_factory=list)
    size_err: list[float] = field(default_factory=list)
    ate: float = math.nan

    @property
    def ok(self) -> bool:
        return not self.problems


def _rotation(quat_wxyz) -> np.ndarray:
    w, x, y, z = quat_wxyz
    return Rotation.from_quat([x, y, z, w]).as_matrix()


def _inside(points: np.ndarray, center, R, half) -> np.ndarray:
    local = (points - center) @ R
    return np.all(np.abs(local) <= half, axis=1)


def _sample(rng, center, R, half, n) -> np.ndarray:
    return center + (rng.uniform(-1.0, 1.0, size=(n, 3)) * half) @ R.T


def mc_iou(a: tuple, b: tuple, n: int = IOU_SAMPLES, seed: int = 0) -> float:
    """IoU of two oriented boxes (center, R, half extents) by sampling each
    box and averaging the two estimates of their intersection."""
    rng = np.random.default_rng(seed)
    va, vb = 8.0 * np.prod(a[2]), 8.0 * np.prod(b[2])
    in_b = _inside(_sample(rng, *a, n), *b).mean()
    in_a = _inside(_sample(rng, *b, n), *a).mean()
    inter = 0.5 * (va * in_b + vb * in_a)
    return float(inter / (va + vb - inter))


def kabsch_ate(est: np.ndarray, gt: np.ndarray) -> float:
    """RMSE of positions after the least-squares rigid alignment of est."""
    mu_e, mu_g = est.mean(axis=0), gt.mean(axis=0)
    U, _, Vt = np.linalg.svd((gt - mu_g).T @ (est - mu_e))
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    R = U @ D @ Vt
    aligned = (est - mu_e) @ R.T + mu_g
    return float(np.sqrt(np.mean(np.sum((aligned - gt) ** 2, axis=1))))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT_RTOL * max(abs(a), abs(b), 1e-12)


def _check_entries(entries: list[dict], where: str, problems: list[str]) -> None:
    for e in entries:
        q = np.asarray(e["rotation_quaternion"], dtype=float)
        s = np.asarray(e["semi_axes"], dtype=float)
        if not (np.all(np.isfinite(q)) and abs(np.linalg.norm(q) - 1.0) <= 1e-6):
            problems.append(f"{where} landmark {e['id']}: quaternion not unit")
        if not (np.all(np.isfinite(s)) and np.all(s > 0.0)):
            problems.append(f"{where} landmark {e['id']}: semi-axes not positive")


def check_map(
    doc: dict,
    truth: SceneTruth,
    reported: dict,
    solves: list[tuple[float, float]],
    mode: str,
) -> CheckResult:
    """Check one scene's map document against the truth and the report.

    `reported` holds the pipeline's evaluation: tp, fp, fn, ate and
    `objects`, a list of (est_index, gt_index, iou, centroid_error,
    size_error). `solves` holds (initial_cost, final_cost) of every solve.
    """
    out = CheckResult()
    p = out.problems
    landmarks = doc["landmarks"]
    _check_entries(landmarks, "map", p)
    for snap in doc["snapshots"]:
        _check_entries(snap["landmarks"], f"snapshot {snap['keyframe_index']}", p)

    traj_ids = tuple(e["frame_id"] for e in doc["trajectory"])
    if traj_ids != truth.frame_ids:
        p.append(f"trajectory has frames {traj_ids[:5]}..., expected one pose per frame")
    snap_ids = tuple(s["keyframe_index"] for s in doc["snapshots"])
    want_snaps = truth.frame_ids if mode == "incremental" else truth.frame_ids[-1:]
    if snap_ids != want_snaps:
        p.append(f"{len(snap_ids)} snapshots, expected {len(want_snaps)} in {mode} mode")
    want_solves = len(truth.frame_ids) if mode == "incremental" else 1
    if len(solves) != want_solves:
        p.append(f"{len(solves)} solves, expected {want_solves}")
    for i, (initial, final) in enumerate(solves):
        if not final <= initial:
            p.append(f"solve {i}: final cost {final} exceeds initial cost {initial}")

    n_gt = len(truth.centers)
    est_t = np.array([e["centroid"] for e in landmarks], dtype=float).reshape(-1, 3)
    pairs: list[tuple[int, int]] = []
    if len(est_t) and n_gt:
        dist = np.linalg.norm(est_t[:, None, :] - truth.centers[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(dist)
        pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if dist[i, j] <= MATCH_GATE_M]
    out.tp, out.fp, out.fn = len(pairs), len(est_t) - len(pairs), n_gt - len(pairs)
    for i, j in pairs:
        lm = landmarks[i]
        s = np.asarray(lm["semi_axes"], dtype=float)
        out.centroid_err.append(float(np.linalg.norm(est_t[i] - truth.centers[j])))
        out.size_err.append(float(np.linalg.norm(np.sort(s) - np.sort(truth.half_extents[j]))))
        out.iou.append(
            mc_iou(
                (est_t[i], _rotation(lm["rotation_quaternion"]), s),
                (truth.centers[j], truth.rotations[j], truth.half_extents[j]),
            )
        )
    est_pos = np.array([e["translation"] for e in doc["trajectory"]], dtype=float)
    if len(est_pos) == len(truth.positions) >= 2:
        out.ate = kabsch_ate(est_pos, truth.positions)

    counts = (out.tp, out.fp, out.fn)
    if counts != (reported["tp"], reported["fp"], reported["fn"]):
        p.append(f"check finds tp/fp/fn {counts}, pipeline reported "
                 f"{(reported['tp'], reported['fp'], reported['fn'])}")
    elif [(o[0], o[1]) for o in reported["objects"]] != pairs:
        p.append("check matches other landmarks to ground truth than the pipeline")
    else:
        for k, (_, _, iou, ce, se) in enumerate(reported["objects"]):
            if not (_close(ce, out.centroid_err[k]) and _close(se, out.size_err[k])):
                p.append(f"object {k}: centroid/size error differ from the pipeline's")
            if abs(iou - out.iou[k]) > IOU_TOL:
                p.append(f"object {k}: IoU {out.iou[k]:.3f} by sampling, {iou:.3f} reported")
    if reported["ate"] is None or not _close(reported["ate"], out.ate):
        p.append(f"ATE {out.ate} by check, {reported['ate']} reported")

    if out.tp < MIN_MAPPED_SHARE * n_gt:
        p.append(f"only {out.tp} of {n_gt} objects mapped")
    if out.centroid_err and np.mean(out.centroid_err) > MAX_MEAN_CENTROID_ERR_M:
        p.append(f"mean centroid error {np.mean(out.centroid_err):.3f} m")
    if not out.ate <= MAX_ATE_M:
        p.append(f"ATE {out.ate:.3f} m")
    return out


def check_repeat(first: bytes, again: bytes, what: str) -> list[str]:
    """Repeated runs on one input must write byte-identical maps."""
    return [] if first == again else [f"{what}: repeated run wrote a different map"]
