"""Conveniences over the package's types that only the tests use.

The pipeline works on stacked arrays and never needs a 4x4 pose matrix, a
pose inverse, a box area or one frame of detections on its own; the tests
state their expectations in those terms. Nor does it build one factor at a
time: ``add_keyframe`` stacks a keyframe's rows of each kind into one
``Factor``. The one-row builders here take one factor's variable ids,
measurement or target and noise model, as the tests write them; a list of
them joins into one batch with ``Factor.joined``. ``wrong_detections``
scores a run's association against the dataset's ground truth.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np

from objslam import pipeline
from objslam.config import RunConfig
from objslam.dataset import Dataset, Detection, Frame
from objslam.evaluation import EvalReport
from objslam.factors import (
    BBoxFactor,
    CentroidPriorFactor,
    Factor,
    NoiseModel,
    OdometryFactor,
    OrientationPriorFactor,
    SizePriorFactor,
    VariableKey,
    _row,
    border_mask,
    stack_noises,
)
from objslam.geometry import BoundingBox2D, CameraIntrinsics, Pose
from objslam.priors import PriorTable
from objslam.simulator import Scene, SimConfig, render_orbit


def pose_matrix(x: Pose) -> np.ndarray:
    """4x4 homogeneous transform."""
    T = np.eye(4)
    T[:3, :3] = x.rotation
    T[:3, 3] = x.translation
    return T


def pose_inverse(x: Pose) -> Pose:
    Rt = x.rotation.T
    return Pose(Rt, -Rt @ x.translation)


def pose_transform(x: Pose, p: np.ndarray) -> np.ndarray:
    """Map body-frame point(s) to the world frame. Accepts (3,) or (n, 3)."""
    p = np.asarray(p, dtype=np.float64)
    return p @ x.rotation.T + x.translation


def box_area(b: BoundingBox2D) -> float:
    return b.width * b.height


def odometry_factor(
    pose_i: int, pose_j: int, measurement: Pose, noise: NoiseModel
) -> OdometryFactor:
    return OdometryFactor(np.array([[pose_i], [pose_j]]), _row(measurement), *stack_noises([noise]))


def bbox_factor(
    pose_id: int,
    quadric_id: int,
    measurement: BoundingBox2D,
    K: CameraIntrinsics,
    noise: NoiseModel,
    image_size: tuple[float, float] | None = None,
) -> BBoxFactor:
    box = measurement.as_array()[None]
    return BBoxFactor(
        np.array([[pose_id], [quadric_id]]), (K, box, border_mask(box, image_size)),
        *stack_noises([noise]),
    )


def _prior(cls: type[Factor], quadric_id: int, target, noise: NoiseModel) -> Factor:
    target = np.array(target, dtype=np.float64)[None]
    return cls(np.array([[quadric_id]]), (target,), *stack_noises([noise]))


def size_prior_factor(quadric_id: int, target, noise: NoiseModel) -> SizePriorFactor:
    return _prior(SizePriorFactor, quadric_id, target, noise)


def orientation_prior_factor(quadric_id: int, noise: NoiseModel) -> OrientationPriorFactor:
    """The tilt prior, which has no inputs: its target is upright."""
    return OrientationPriorFactor(np.array([[quadric_id]]), (), *stack_noises([noise]))


def centroid_prior_factor(quadric_id: int, target, noise: NoiseModel) -> CentroidPriorFactor:
    return _prior(CentroidPriorFactor, quadric_id, target, noise)


def variable_keys(f: Factor) -> list[VariableKey]:
    """The (kind, id) of each variable of a one-row factor."""
    return [(kind, int(ids[0])) for kind, ids in zip(f.variables, f.ids)]


def noise_of(f: Factor) -> NoiseModel:
    """The noise model of a one-row factor, rebuilt from its rows."""
    huber = float(f.huber[0])
    return NoiseModel(1.0 / f.sqrt_info[0] ** 2, None if np.isinf(huber) else huber)


def render_detections(
    scene: Scene,
    x: Pose,
    K: CameraIntrinsics,
    image_size: tuple[int, int],
    cfg: SimConfig,
    rng: np.random.Generator | None = None,
) -> list[Detection]:
    """One frame of noisy detections, the orbit renderer's (see
    simulator.render_orbit) over the single pose `x`, drawn from `rng` or
    from a generator seeded with cfg.seed."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return [det for _, det in render_orbit(scene, [x], K, image_size, cfg, rng)[0]]


def drop_depths(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """A copy of `dataset` whose detections each lose their depth with
    probability `fraction`, drawn from a generator seeded with `seed`."""
    rng = np.random.default_rng(seed)
    frames = [
        Frame(f.frame_id, tuple(
            dataclasses.replace(d, center_depth=None) if rng.random() < fraction else d
            for d in f.detections
        ))
        for f in dataset.frames
    ]
    return dataclasses.replace(dataset, frames=frames)


def wrong_detections(
    cfg: RunConfig, dataset: Dataset, priors: PriorTable
) -> tuple[int, EvalReport]:
    """Run the pipeline and score every detection it put on the map against
    ``dataset.gt_association``: the number of wrong ones, and the run's
    evaluation report. A detection is wrong in the CLEAR MOT sense when the
    landmark it was mapped to mostly holds another ground-truth object."""
    held: dict[int, list[int]] = {}  # landmark id -> the object of each detection
    add = pipeline.add_keyframe

    def recording(graph, values, frame_id, *args):
        mapping = add(graph, values, frame_id, *args)
        truth = dict(dataset.gt_association.get(frame_id, ()))
        for det_idx, lid in mapping.items():
            held.setdefault(lid, []).append(truth[det_idx])
        return mapping

    pipeline.add_keyframe = recording
    try:
        _, report, _ = pipeline.run_slam(cfg, dataset, priors)
    finally:
        pipeline.add_keyframe = add
    return sum(len(objs) - max(Counter(objs).values()) for objs in held.values()), report
