"""The estimator loop and its drivers: dataset in, object map out.

Per frame the flow is association against the current map (one
``associate_long_term`` call, the gated LSAP of every detection over the
stacked landmark arrays), keyframe insertion, and (in incremental mode) a
bounded re-optimization; batch mode defers solving to one final pass.
``run_slam`` reads and writes no file; the drivers load its inputs and
write its outputs through ``dataset``, which owns every file format.

The final map and every snapshot hold ``dataset.Landmark`` records.
Evaluation scores those records as stacked rows, so ``evaluate_files`` on
a run's ``map.json`` reproduces the report that run computed.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

from .association import EmbeddingTable, associate_long_term
from .config import RunConfig
from .dataset import (
    Dataset,
    Landmark,
    MapEstimate,
    SchemaError,
    landmark_rows,
    load_dataset,
    load_map_json,
    write_dataset,
    write_iou_series_csv,
    write_map_json,
    write_report_json,
    write_solve_json,
)
from .evaluation import EvalReport, ate_rmse, evaluate_map, iou_error_series
from .geometry import Pose, matrix_to_quat, quadric_rows
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


class PipelineError(RuntimeError):
    """A failure inside the pipeline, annotated with the frame it happened on
    or with the final solve."""


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
    dataset: Dataset,
    priors: PriorTable | None = None,
    timings: dict[str, float] | None = None,
    *,
    embeddings: EmbeddingTable | None = None,
) -> tuple[MapEstimate, EvalReport | None, SolveReport]:
    """Map `dataset` under `cfg` with the given prior table and label
    embeddings; it reads no file. Returns the map, an evaluation report when
    the dataset carries ground truth, and the last solver report. Wall time
    per stage is added to `timings` when it is given."""
    timings = {} if timings is None else timings
    table = EmbeddingTable.empty() if embeddings is None else embeddings

    def lap(stage: str, t0: float) -> float:
        t1 = time.perf_counter()
        timings[stage] = timings.get(stage, 0.0) + (t1 - t0)
        return t1

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
    gt = quadric_rows([g.quadric for g in dataset.gt_objects])
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
# Command drivers


def run_to_files(
    cfg: RunConfig, timings: dict[str, float] | None = None
) -> tuple[Path, PriorTable | None, EmbeddingTable | None]:
    """Load the dataset, prior CSV and embeddings that cfg.paths names (the
    `load` stage of `timings`), run_slam, and persist map/report/solve
    artifacts. Returns the output directory and the prior and embedding
    tables the run used (None for a path cfg.paths leaves unset), whose
    ``flagged`` and ``missing_tokens`` hold the labels it fell back on."""
    timings = {} if timings is None else timings
    t0 = time.perf_counter()
    if cfg.paths.dataset is None:
        raise ValueError("config has no dataset path")
    dataset = load_dataset(cfg.paths.dataset)
    priors = embeddings = None
    if cfg.paths.priors_csv is not None:
        try:
            priors = parse_prior_csv(Path(cfg.paths.priors_csv).read_text())
        except MalformedResponse as exc:  # a bad input file, not a bad model reply
            raise SchemaError(f"{cfg.paths.priors_csv}: {exc}") from exc
    if cfg.paths.embeddings is not None:
        embeddings = EmbeddingTable.load(cfg.paths.embeddings)
    timings["load"] = timings.get("load", 0.0) + (time.perf_counter() - t0)

    estimate, report, solve = run_slam(cfg, dataset, priors, timings, embeddings=embeddings)
    out = Path(cfg.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_map_json(estimate, out / "map.json")
    write_solve_json(solve, out / "solve.json")
    if report is not None:
        write_report_json(report, out / "report.json")
        write_iou_series_csv(report.iou_series, out / "iou_series.csv")
    return out, priors, embeddings


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
