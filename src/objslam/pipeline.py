"""End-to-end driver: dataset in, object map + trajectory + reports out.

Per frame the flow is short-term tracking, long-term association against
the current map, keyframe insertion, and (in incremental mode) a bounded
re-optimization; batch mode defers solving to one final pass. Output files
are written with fixed key order and float repr so identical inputs give
byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .association import (
    AssociationResult,
    EmbeddingTable,
    TrackerState,
    associate_long_term,
    track_frame,
)
from .config import RunConfig
from .dataset import Dataset, load_dataset, write_dataset
from .evaluation import (
    EvalReport,
    ate_rmse,
    evaluate_map,
    iou_error_series,
    quadric_to_box,
    write_iou_series_csv,
)
from .geometry import (
    Pose,
    Quadric,
    back_project_pixel,
    compose,
    matrix_to_quat,
    quat_to_matrix,
)
from .optimizer import (
    FactorGraph,
    GraphValues,
    SolveReport,
    add_keyframe,
    solve_batch,
    solve_incremental,
)
from .priors import (
    LLMClient,
    PriorTable,
    generate_prior_table,
    parse_prior_csv,
    write_prior_csv,
)
from .simulator import SceneSpec, simulate_dataset


class PipelineError(RuntimeError):
    """A failure inside the pipeline, annotated with the frame it happened on
    or with the final solve."""


@dataclass(frozen=True)
class LandmarkEstimate:
    """One mapped object: identity, semantics, and ellipsoid parameters."""

    landmark_id: int
    label: str
    rotation_quaternion: tuple[float, float, float, float]
    centroid: tuple[float, float, float]
    semi_axes: tuple[float, float, float]

    def __post_init__(self) -> None:
        norm = float(np.linalg.norm(self.rotation_quaternion))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {norm} deviates from 1 by more than 1e-6")
        if min(self.semi_axes) <= 0.0:
            raise ValueError("semi-axes must be positive")

    def quadric(self) -> Quadric:
        R = quat_to_matrix(np.array(self.rotation_quaternion, dtype=np.float64))
        return Quadric.from_rotation(
            R, np.array(self.centroid), np.array(self.semi_axes)
        )


@dataclass(frozen=True)
class MapEstimate:
    """Final object map and trajectory, plus optional per-keyframe landmark
    snapshots for convergence curves."""

    landmarks: tuple[LandmarkEstimate, ...]
    trajectory: tuple[tuple[int, Pose], ...]
    snapshots: tuple[tuple[int, tuple[tuple[int, Quadric], ...]], ...] = ()


def _quat_of(q: Quadric) -> tuple[float, float, float, float]:
    return tuple(float(v) for v in matrix_to_quat(q.rotation_matrix()))


def _landmark_estimates(
    values: GraphValues, labels: dict[int, str]
) -> tuple[LandmarkEstimate, ...]:
    out = []
    for lid in sorted(values.quadrics):
        q = values.quadrics[lid]
        out.append(
            LandmarkEstimate(
                lid,
                labels.get(lid, ""),
                _quat_of(q),
                tuple(float(v) for v in q.t),
                tuple(float(v) for v in q.s),
            )
        )
    return tuple(out)


def _snapshot(values: GraphValues) -> tuple[tuple[int, Quadric], ...]:
    return tuple((lid, values.quadrics[lid]) for lid in sorted(values.quadrics))


class _Timer:
    def __init__(self, timings: dict[str, float] | None):
        self.timings = timings

    def add(self, key: str, t0: float) -> float:
        t1 = time.perf_counter()
        if self.timings is not None:
            self.timings[key] = self.timings.get(key, 0.0) + (t1 - t0)
        return t1


def run_slam(
    cfg: RunConfig,
    dataset: Dataset | None = None,
    priors: PriorTable | None = None,
    timings: dict[str, float] | None = None,
) -> tuple[MapEstimate, EvalReport | None, SolveReport]:
    """Run the full pipeline under `cfg`.

    The dataset and prior table may be passed in directly (tests, sweeps);
    otherwise they are loaded from cfg.paths. Returns the map, an evaluation
    report when the dataset carries ground truth, and the last solver report.
    """
    timer = _Timer(timings)
    t0 = time.perf_counter()
    if dataset is None:
        if cfg.paths.dataset is None:
            raise ValueError("config has no dataset path and none was provided")
        dataset = load_dataset(cfg.paths.dataset)
    if priors is None and cfg.paths.priors_csv is not None:
        priors = parse_prior_csv(Path(cfg.paths.priors_csv).read_text())
    table = (
        EmbeddingTable.load(cfg.paths.embeddings)
        if cfg.paths.embeddings is not None
        else EmbeddingTable.empty()
    )
    t0 = timer.add("load", t0)

    K = dataset.intrinsics
    policy = cfg.factor_policy(dataset.image_size)
    odometry = dataset.odometry_by_pair()
    # The first pose anchors the gauge and defines the world frame; use the
    # dataset's stated start pose so the map lands in the gravity-aligned
    # frame its priors (and any ground truth) are expressed in.
    initial_pose: Pose | None = None
    if dataset.gt_trajectory:
        start = dict(dataset.gt_trajectory)
        first_frame = dataset.frames[0].frame_id if dataset.frames else None
        initial_pose = start.get(first_frame)
    graph = FactorGraph()
    values = GraphValues()
    tracker = TrackerState.empty()
    track_to_landmark: dict[int, int] = {}
    labels: dict[int, str] = {}
    snapshots: list[tuple[int, tuple[tuple[int, Quadric], ...]]] = []
    report: SolveReport | None = None
    prev_id: int | None = None

    for frame in dataset.frames:
        try:
            detections = list(frame.detections)
            odom = None
            if prev_id is not None:
                odom = odometry.get((prev_id, frame.frame_id))
                if odom is None:
                    raise ValueError(f"no odometry from frame {prev_id}")
            t0 = time.perf_counter()
            tracker, det_to_track = track_frame(tracker, detections, cfg.association)
            t0 = timer.add("track", t0)

            x_pred = (
                Pose.identity() if odom is None else compose(values.poses[prev_id], odom)
            )
            # Tracks propose continuity matches, but a track can jump object
            # when same-label boxes cross, so each binding is verified in 3D:
            # the detection's back-projected center must land near the bound
            # landmark. Rejected bindings fall through to long-term LSAP,
            # which re-sorts them by the full weight.
            matches: dict[int, int] = {}
            for det_idx in sorted(det_to_track):
                lid = track_to_landmark.get(det_to_track[det_idx])
                det = detections[det_idx]
                if (
                    lid is None
                    or lid in matches.values()
                    or labels.get(lid) != det.label
                ):
                    continue
                if det.center_depth is not None and det.center_depth > 0.0:
                    point = back_project_pixel(
                        K, x_pred, det.bbox.center(), det.center_depth
                    )
                    gap = float(np.linalg.norm(point - values.quadrics[lid].t))
                    if gap > cfg.association.track_gate_dist:
                        continue
                matches[det_idx] = lid
            remaining = [i for i in range(len(detections)) if i not in matches]
            claimed = set(matches.values())
            candidates = [
                (lid, values.quadrics[lid], labels[lid])
                for lid in sorted(values.quadrics)
                if lid not in claimed
            ]
            if remaining and candidates:
                result = associate_long_term(
                    [detections[i] for i in remaining],
                    candidates,
                    x_pred,
                    K,
                    table,
                    cfg.association,
                )
                for local_idx, lid in result.matches.items():
                    matches[remaining[local_idx]] = lid
            unmatched = tuple(i for i in range(len(detections)) if i not in matches)
            assoc = AssociationResult(matches, unmatched, {})
            t0 = timer.add("associate", t0)

            mapping = add_keyframe(
                graph, values, frame.frame_id, odom, detections, assoc, priors, K,
                policy, initial_pose,
            )
            for det_idx, lid in mapping.items():
                labels.setdefault(lid, detections[det_idx].label)
                track_id = det_to_track.get(det_idx)
                if track_id is not None:
                    track_to_landmark[track_id] = lid
            t0 = timer.add("add_keyframe", t0)

            if cfg.mode == "incremental":
                values, report = solve_incremental(graph, values, cfg.solver)
                snapshots.append((frame.frame_id, _snapshot(values)))
            t0 = timer.add("solve", t0)
            prev_id = frame.frame_id
        except Exception as exc:
            raise PipelineError(f"frame {frame.frame_id}: {exc}") from exc

    if cfg.mode == "batch" or report is None:
        t0 = time.perf_counter()
        try:
            values, report = solve_batch(graph, values, cfg.solver)
        except Exception as exc:
            raise PipelineError(f"final solve: {exc}") from exc
        t0 = timer.add("solve", t0)
        if prev_id is not None:
            snapshots.append((prev_id, _snapshot(values)))

    estimate = MapEstimate(
        landmarks=_landmark_estimates(values, labels),
        trajectory=tuple((pid, values.poses[pid]) for pid in sorted(values.poses)),
        snapshots=tuple(snapshots),
    )

    eval_report: EvalReport | None = None
    if dataset.gt_objects:
        t0 = time.perf_counter()
        eval_report = _evaluate_against(dataset, estimate, cfg.match_threshold)
        timer.add("evaluate", t0)
    return estimate, eval_report, report


def _evaluate_against(
    dataset: Dataset, estimate: MapEstimate, threshold: float
) -> EvalReport:
    gt_boxes = [quadric_to_box(g.quadric) for g in dataset.gt_objects]
    est_quadrics = [lm.quadric() for lm in estimate.landmarks]
    base = evaluate_map(est_quadrics, gt_boxes, threshold)
    ate = None
    if dataset.gt_trajectory:
        gt_by_id = dict(dataset.gt_trajectory)
        common = [fid for fid, _ in estimate.trajectory if fid in gt_by_id]
        if len(common) >= 2:
            est_by_id = dict(estimate.trajectory)
            ate = ate_rmse(
                [est_by_id[fid] for fid in common], [gt_by_id[fid] for fid in common]
            )
    series: tuple = ()
    if estimate.snapshots:
        series = iou_error_series(
            [(kf, [q for _, q in snap]) for kf, snap in estimate.snapshots],
            gt_boxes,
            threshold,
        )
    return dataclasses.replace(base, ate=ate, iou_series=series)


# ---------------------------------------------------------------------------
# Deterministic file formats


def _map_document(m: MapEstimate) -> dict:
    return {
        "landmarks": [
            {
                "id": lm.landmark_id,
                "label": lm.label,
                "rotation_quaternion": list(lm.rotation_quaternion),
                "centroid": list(lm.centroid),
                "semi_axes": list(lm.semi_axes),
            }
            for lm in m.landmarks
        ],
        "trajectory": [
            {
                "frame_id": fid,
                "rotation_quaternion": [float(v) for v in matrix_to_quat(x.rotation)],
                "translation": [float(v) for v in x.translation],
            }
            for fid, x in m.trajectory
        ],
        "snapshots": [
            {
                "keyframe_index": kf,
                "landmarks": [
                    {
                        "id": lid,
                        "rotation_quaternion": list(_quat_of(q)),
                        "centroid": [float(v) for v in q.t],
                        "semi_axes": [float(v) for v in q.s],
                    }
                    for lid, q in snap
                ],
            }
            for kf, snap in m.snapshots
        ],
    }


def write_map_json(m: MapEstimate, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_map_document(m), sort_keys=True, indent=2) + "\n")


def load_map_json(path: str | Path) -> MapEstimate:
    doc = json.loads(Path(path).read_text())
    landmarks = tuple(
        LandmarkEstimate(
            entry["id"],
            entry["label"],
            tuple(entry["rotation_quaternion"]),
            tuple(entry["centroid"]),
            tuple(entry["semi_axes"]),
        )
        for entry in doc["landmarks"]
    )
    trajectory = tuple(
        (
            entry["frame_id"],
            Pose(
                quat_to_matrix(np.array(entry["rotation_quaternion"])),
                np.array(entry["translation"]),
            ),
        )
        for entry in doc["trajectory"]
    )
    snapshots = tuple(
        (
            entry["keyframe_index"],
            tuple(
                (
                    lm["id"],
                    Quadric.from_rotation(
                        quat_to_matrix(np.array(lm["rotation_quaternion"])),
                        np.array(lm["centroid"]),
                        np.array(lm["semi_axes"]),
                    ),
                )
                for lm in entry["landmarks"]
            ),
        )
        for entry in doc.get("snapshots", [])
    )
    return MapEstimate(landmarks, trajectory, snapshots)


def write_report_json(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")


def write_solve_json(report: SolveReport, path: str | Path) -> None:
    doc = {
        "initial_cost": report.initial_cost,
        "final_cost": report.final_cost,
        "iterations": report.iterations,
        "converged": report.converged,
        "breakdown": dict(sorted(report.breakdown.items())),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Command drivers


def run_to_files(
    cfg: RunConfig, dataset: Dataset | None = None, timings: dict[str, float] | None = None
) -> Path:
    """Execute run_slam and persist map/report/solve artifacts. Returns the
    output directory."""
    estimate, eval_report, solve_report = run_slam(cfg, dataset, timings=timings)
    out = Path(cfg.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_map_json(estimate, out / "map.json")
    write_solve_json(solve_report, out / "solve.json")
    if eval_report is not None:
        write_report_json(eval_report, out / "report.json")
        write_iou_series_csv(eval_report.iou_series, out / "iou_series.csv")
    return out


def run_simulate(cfg: RunConfig) -> Path:
    """Generate a synthetic dataset plus its true-dimension prior CSV."""
    spec = SceneSpec(
        n_objects=cfg.scene.n_objects,
        area=cfg.scene.area,
        surface_height=cfg.scene.surface_height,
    )
    dataset, scene = simulate_dataset(
        spec,
        cfg.scene.n_frames,
        cfg.camera.intrinsics(),
        cfg.camera.image_size(),
        cfg.sim,
        radius=cfg.scene.radius,
        height=cfg.scene.height,
        arc=cfg.scene.arc,
    )
    out = Path(cfg.paths.output_dir)
    write_dataset(dataset, out)
    if scene.objects:
        write_prior_csv(scene.prior_table(), out / "priors.csv")
    return out


def run_gen_priors(
    vocabulary_path: str | Path, output_path: str | Path, client: LLMClient
) -> PriorTable:
    """Query the client for the vocabulary and write the prior CSV."""
    labels = [
        line.strip()
        for line in Path(vocabulary_path).read_text().splitlines()
        if line.strip()
    ]
    table = generate_prior_table(labels, client)
    write_prior_csv(table, output_path)
    return table


def evaluate_files(
    map_path: str | Path, dataset_path: str | Path, threshold: float = 0.5
) -> EvalReport:
    """Score a persisted map against a dataset's ground truth."""
    estimate = load_map_json(map_path)
    dataset = load_dataset(dataset_path)
    if not dataset.gt_objects:
        raise ValueError(f"dataset {dataset_path} carries no ground-truth objects")
    return _evaluate_against(dataset, estimate, threshold)
