"""End-to-end driver: dataset in, object map + trajectory + reports out.

Per frame the flow is association against the current map (one
``associate_long_term`` call, the gated LSAP of every detection over the
stacked landmark arrays), keyframe insertion, and (in incremental mode) a
bounded re-optimization; batch mode defers solving to one final pass.
Output files are written with fixed key order and float repr so identical
inputs give byte-identical artifacts.

A map landmark is one :class:`Landmark` record, the same in memory as in
``map.json``, for the final map and every snapshot alike. Evaluation scores
those records as stacked rows, so ``evaluate_files`` on a run's ``map.json``
reproduces the report that run computed. A record is validated only where
it is read from a file: the solver's records need no check.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from .association import EmbeddingTable, associate_long_term
from .config import RunConfig
# map.json is written and read with the dataset's record helpers.
from .dataset import (
    Dataset,
    ParseError,
    SchemaError,
    _frame_pose_from_json,
    _integer,
    _one_per,
    _quat_list,
    _quaternion,
    _record,
    _require,
    _string,
    _vec_list,
    _vector3,
    load_dataset,
    write_dataset,
)
from .evaluation import (
    EvalReport,
    Rows,
    ate_rmse,
    evaluate_map,
    iou_error_series,
    write_iou_series_csv,
)
from .geometry import (
    Pose,
    Quadric,
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
    MalformedResponse,
    PriorTable,
    generate_prior_table,
    parse_prior_csv,
    write_prior_csv,
)
from .simulator import SceneSpec, simulate_dataset


T = TypeVar("T")


class PipelineError(RuntimeError):
    """A failure inside the pipeline, annotated with the frame it happened on
    or with the final solve."""


@dataclass(frozen=True)
class Landmark:
    """One mapped ellipsoid as ``map.json`` holds it: id, unit quaternion
    (w, x, y, z), centroid and semi-axes. The final map and every snapshot
    hold these records; :func:`landmark_rows` stacks them for evaluation."""

    landmark_id: int
    rotation_quaternion: tuple[float, float, float, float]
    centroid: tuple[float, float, float]
    semi_axes: tuple[float, float, float]

    def quadric(self) -> Quadric:
        """The validated quadric: ValueError for a bad rotation or a
        non-positive semi-axis."""
        R = quat_to_matrix(np.array(self.rotation_quaternion, dtype=np.float64))
        return Quadric(R, self.centroid, self.semi_axes)


@dataclass(frozen=True)
class MapEstimate:
    """Final object map with each landmark's label, trajectory, and optional
    per-keyframe landmark snapshots for convergence curves."""

    landmarks: tuple[Landmark, ...]
    labels: dict[int, str]
    trajectory: tuple[tuple[int, Pose], ...]
    snapshots: tuple[tuple[int, tuple[Landmark, ...]], ...] = ()


def landmark_rows(landmarks: Sequence[Landmark]) -> Rows:
    """Stacked rotations (n, 3, 3), centroids (n, 3) and semi-axes (n, 3) of
    landmark records: :meth:`Landmark.quadric`'s values without its check."""
    return (
        np.array([quat_to_matrix(lm.rotation_quaternion) for lm in landmarks]).reshape(-1, 3, 3),
        np.array([lm.centroid for lm in landmarks], dtype=np.float64).reshape(-1, 3),
        np.array([lm.semi_axes for lm in landmarks], dtype=np.float64).reshape(-1, 3),
    )


def _landmarks(values: GraphValues) -> tuple[Landmark, ...]:
    """One record per quadric row of `values`, in id order."""
    ids = values.quadric_ids
    R, t, s = values.stacked("quadric", values.rows("quadric", ids))
    return tuple(
        Landmark(lid, tuple(matrix_to_quat(r).tolist()), tuple(c), tuple(a))
        for lid, r, c, a in zip(ids.tolist(), R, t.tolist(), s.tolist())
    )


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
    Wall time per stage is added to `timings` when it is given.
    """
    timings = {} if timings is None else timings

    def lap(stage: str, t0: float) -> float:
        t1 = time.perf_counter()
        timings[stage] = timings.get(stage, 0.0) + (t1 - t0)
        return t1

    t0 = time.perf_counter()
    if dataset is None:
        if cfg.paths.dataset is None:
            raise ValueError("config has no dataset path and none was provided")
        dataset = load_dataset(cfg.paths.dataset)
    if priors is None and cfg.paths.priors_csv is not None:
        try:
            priors = parse_prior_csv(Path(cfg.paths.priors_csv).read_text())
        except MalformedResponse as exc:  # a bad input file, not a bad model reply
            raise SchemaError(f"{cfg.paths.priors_csv}: {exc}") from exc
    table = (
        EmbeddingTable.load(cfg.paths.embeddings)
        if cfg.paths.embeddings is not None
        else EmbeddingTable.empty()
    )
    t0 = lap("load", t0)

    K = dataset.intrinsics
    odometry = dataset.odometry_by_pair()
    start = dict(dataset.gt_trajectory or ())
    graph = FactorGraph()
    values = GraphValues()
    labels: dict[int, str] = {}
    snapshots: list[tuple[int, tuple[Landmark, ...]]] = []
    report: SolveReport | None = None
    prev_id: int | None = None

    for frame in dataset.frames:
        try:
            detections = frame.detections
            odom = None
            if prev_id is None:
                # The first pose anchors the gauge and defines the world
                # frame; the dataset's stated start pose puts the map in the
                # gravity-aligned frame its priors (and any ground truth) are
                # expressed in.
                x = start.get(frame.frame_id, Pose.identity())
            else:
                odom = odometry.get((prev_id, frame.frame_id))
                if odom is None:
                    raise ValueError(f"no odometry from frame {prev_id}")
                # The previous keyframe's pose is the last pose row.
                R, t = values.stacked("pose", len(values.pose_ids) - 1)
                x = Pose(R @ odom.rotation, R @ odom.translation + t)
            t0 = time.perf_counter()
            ids = values.quadric_ids.tolist()
            assoc = associate_long_term(
                detections, ids, [labels[lid] for lid in ids],
                values.stacked("quadric", values.rows("quadric", ids)), x, K, table,
            )
            t0 = lap("associate", t0)

            landmarks = len(values.quadric_ids)
            mapping = add_keyframe(
                graph, values, frame.frame_id, x, odom, detections, assoc, priors, K,
                cfg.noise, cfg.flags, dataset.image_size,
            )
            for det_idx, lid in mapping.items():
                labels.setdefault(lid, detections[det_idx].label)
            t0 = lap("add_keyframe", t0)

            if cfg.mode == "incremental":
                values, report = solve_incremental(
                    graph, values, cfg.solver, adds_landmark=len(values.quadric_ids) > landmarks
                )
                snapshots.append((frame.frame_id, _landmarks(values)))
            t0 = lap("solve", t0)
            prev_id = frame.frame_id
        except Exception as exc:
            raise PipelineError(f"frame {frame.frame_id}: {exc}") from exc

    if cfg.mode == "batch" or report is None:
        t0 = time.perf_counter()
        try:
            values, report = solve_batch(graph, values, cfg.solver)
        except Exception as exc:
            raise PipelineError(f"final solve: {exc}") from exc
        t0 = lap("solve", t0)
        if prev_id is not None:
            snapshots.append((prev_id, _landmarks(values)))

    estimate = MapEstimate(
        landmarks=_landmarks(values),
        labels=labels,
        trajectory=tuple(
            (pid, values.get(("pose", pid))) for pid in values.pose_ids.tolist()
        ),
        snapshots=tuple(snapshots),
    )

    eval_report: EvalReport | None = None
    if dataset.gt_objects is not None:
        t0 = time.perf_counter()
        eval_report = _evaluate_against(dataset, estimate, cfg.match_threshold)
        lap("evaluate", t0)
    return estimate, eval_report, report


def _evaluate_against(
    dataset: Dataset, estimate: MapEstimate, threshold: float
) -> EvalReport:
    gt_quadrics = [g.quadric for g in dataset.gt_objects]
    gt = (
        np.array([q.rotation for q in gt_quadrics]).reshape(-1, 3, 3),
        np.array([q.t for q in gt_quadrics]).reshape(-1, 3),
        np.array([q.s for q in gt_quadrics]).reshape(-1, 3),
    )
    base = evaluate_map(landmark_rows(estimate.landmarks), gt, threshold)
    ate = None
    if dataset.gt_trajectory:
        gt_by_id = dict(dataset.gt_trajectory)
        common = [fid for fid, _ in estimate.trajectory if fid in gt_by_id]
        if len(common) >= 2:
            est_by_id = dict(estimate.trajectory)
            ate = ate_rmse(
                [est_by_id[fid] for fid in common], [gt_by_id[fid] for fid in common]
            )
    series = iou_error_series(
        [(kf, landmark_rows(snap)) for kf, snap in estimate.snapshots], gt, threshold
    )
    return dataclasses.replace(base, ate=ate, iou_series=series)


# ---------------------------------------------------------------------------
# Deterministic file formats


def _landmark_entry(lm: Landmark) -> dict:
    return {
        "id": lm.landmark_id,
        "rotation_quaternion": list(lm.rotation_quaternion),
        "centroid": list(lm.centroid),
        "semi_axes": list(lm.semi_axes),
    }


def _map_document(m: MapEstimate) -> dict:
    return {
        "landmarks": [
            {**_landmark_entry(lm), "label": m.labels[lm.landmark_id]} for lm in m.landmarks
        ],
        "trajectory": [
            {
                "frame_id": fid,
                "rotation_quaternion": _quat_list(x.rotation),
                "translation": _vec_list(x.translation),
            }
            for fid, x in m.trajectory
        ],
        "snapshots": [
            {"keyframe_index": kf, "landmarks": [_landmark_entry(lm) for lm in snap]}
            for kf, snap in m.snapshots
        ],
    }


def write_map_json(m: MapEstimate, path: str | Path) -> None:
    Path(path).write_text(json.dumps(_map_document(m), sort_keys=True, indent=2) + "\n")


def _entries(doc, key: str, where: str, parse: Callable[[dict, str], T]) -> tuple[T, ...]:
    """parse(entry, name) of each entry of the list doc[key], name being
    "<where> key[i]"; a malformed entry raises SchemaError naming it."""
    with _record(where):
        items = _require(doc, key, where)
        if not isinstance(items, list):
            raise SchemaError(f"{where}: field {key!r} must be a list")
    out = []
    for i, item in enumerate(items):
        name = f"{where} {key}[{i}]"
        with _record(name):
            out.append(parse(item, name))
    return tuple(out)


def _landmark_from_json(entry: dict, where: str) -> Landmark:
    """A landmark entry of either list, validated through its quadric."""
    lm = Landmark(
        _integer(entry, "id", where),
        tuple(_quaternion(entry, where).tolist()),
        tuple(_vector3(entry, "centroid", where).tolist()),
        tuple(_vector3(entry, "semi_axes", where).tolist()),
    )
    lm.quadric()
    return lm


def _labelled_landmark_from_json(entry: dict, where: str) -> tuple[Landmark, str]:
    return _landmark_from_json(entry, where), _string(entry, "label", where)


def _snapshot_from_json(entry: dict, where: str) -> tuple[int, tuple[Landmark, ...]]:
    keyframe_index = _integer(entry, "keyframe_index", where)
    landmarks = _entries(entry, "landmarks", where, _one_per("id", _landmark_from_json))
    return keyframe_index, landmarks


def load_map_json(path: str | Path) -> MapEstimate:
    """Read a map written by :func:`write_map_json`. Malformed JSON raises
    ParseError; a malformed entry, or a second entry of one frame, landmark
    id or keyframe, raises SchemaError naming the file and the entry."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    where = str(path)
    # Landmarks first: past them, doc is known to be a JSON object.
    final = _entries(doc, "landmarks", where, _one_per("id", _labelled_landmark_from_json))
    trajectory = _entries(doc, "trajectory", where, _one_per("frame_id", _frame_pose_from_json))
    snapshots = ()
    if "snapshots" in doc:
        snapshots = _entries(
            doc, "snapshots", where, _one_per("keyframe_index", _snapshot_from_json)
        )
    landmarks = tuple(lm for lm, _ in final)
    labels = {lm.landmark_id: label for lm, label in final}
    return MapEstimate(landmarks, labels, trajectory, snapshots)


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


def run_to_files(cfg: RunConfig, dataset: Dataset | None = None) -> Path:
    """Execute run_slam and persist map/report/solve artifacts. Returns the
    output directory."""
    estimate, eval_report, solve_report = run_slam(cfg, dataset)
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
    if dataset.gt_objects is None:
        raise ValueError(f"dataset {dataset_path} carries no ground-truth objects")
    return _evaluate_against(dataset, estimate, threshold)
