"""Conveniences over the package's types that only the tests use.

The pipeline works on stacked arrays and never needs a 4x4 pose matrix, a
pose inverse, a box area or one frame of detections on its own; the tests
state their expectations in those terms.
"""

from __future__ import annotations

import numpy as np

from objslam.dataset import Detection
from objslam.geometry import BoundingBox2D, CameraIntrinsics, Pose
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
