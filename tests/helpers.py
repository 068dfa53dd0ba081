"""Conveniences over the package's types that only the tests use.

The pipeline works on stacked arrays and never needs a 4x4 pose matrix, a
pose inverse, a box area or one frame of detections on its own; the tests
state their expectations in those terms. ``wrong_detections`` scores a
run's association against the dataset's ground truth.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np

from objslam import pipeline
from objslam.config import RunConfig
from objslam.dataset import Dataset, Detection, Frame
from objslam.geometry import BoundingBox2D, CameraIntrinsics, Pose
from objslam.priors import PriorTable
from objslam.simulator import Scene, SimConfig, _render_frame


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


def render_detections(
    scene: Scene,
    x: Pose,
    K: CameraIntrinsics,
    image_size: tuple[int, int],
    cfg: SimConfig,
    rng: np.random.Generator | None = None,
) -> list[Detection]:
    """One frame of noisy detections (see simulator._render_frame for the
    recipe), drawn from `rng` or from a generator seeded with cfg.seed."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    detections, _ = _render_frame(scene, x, K, image_size, cfg, rng)
    return detections


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


def wrong_detections(cfg: RunConfig, dataset: Dataset, priors: PriorTable) -> int:
    """Run the pipeline and score every detection it put on the map against
    ``dataset.gt_association``: the number of wrong ones. A detection is
    wrong in the CLEAR MOT sense when the landmark it was mapped to mostly
    holds another ground-truth object."""
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
        pipeline.run_slam(cfg, dataset, priors)
    finally:
        pipeline.add_keyframe = add
    return sum(len(objs) - max(Counter(objs).values()) for objs in held.values())
