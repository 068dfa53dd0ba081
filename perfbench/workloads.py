"""Benchmark inputs: simulated desk scenes made from a seed.

Each workload fixes the scene recipe, the sensor noise and the estimator
settings of one fixture in ``tests/test_acceptance.py``; the seed picks the
layouts and the noise draws. A scene is written to disk with its
true-dimension prior table, so an operation starts from files, as a user of
``objslam run`` does. The ground truth kept here for the checker comes from
the simulator's scene description, not from the files the pipeline reads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from objslam.config import RunConfig, build_run_config  # noqa: E402
from objslam.dataset import Dataset, write_dataset  # noqa: E402
from objslam.geometry import CameraIntrinsics  # noqa: E402
from objslam.priors import write_prior_csv  # noqa: E402
from objslam.simulator import (  # noqa: E402
    PlacementFailure,
    SceneSpec,
    SimConfig,
    simulate_dataset,
)

from checker import SceneTruth  # noqa: E402

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
IMAGE_SIZE = (640, 480)
N_OBJECTS = 10
N_FRAMES = 30
# Scene seeds of one run are seed * SEED_STRIDE + j, so runs never share one.
SEED_STRIDE = 1000
# Frames of the first scene mapped twice for the determinism check.
PROBE_FRAMES = 10


# Sensor and estimator noise of the standard fixture.
SIM_NOISE = {"sigma_px": 2.0, "sigma_rot": 0.005, "sigma_trans": 0.005}
BBOX_SIGMA_PX = 2.0
ODOM_SIGMA = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    scenes_per_round: int

    def run_config(self) -> RunConfig:
        return build_run_config(
            {
                "mode": self.mode,
                "noise": {
                    "bbox_sigma_px": BBOX_SIGMA_PX,
                    "odom_sigma_rot": ODOM_SIGMA,
                    "odom_sigma_trans": ODOM_SIGMA,
                },
            }
        )


# One incremental scene already takes about 30 s here, so its round is one
# scene; a batch scene takes about 5 s, and its round maps eight, so that the
# median over scenes does not hang on one slow-converging scene.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("standard-incremental", "incremental", 1),
        Workload("standard-batch", "batch", 8),
    )
}


@dataclass(frozen=True)
class SceneFiles:
    index: int
    scene_seed: int
    directory: Path
    priors_csv: Path
    truth: SceneTruth


def _yaw_rotation(theta: np.ndarray) -> np.ndarray:
    """Rotation of a simulated object. Scenes use yaw-only Euler angles."""
    if abs(theta[0]) > 0.0 or abs(theta[1]) > 0.0:
        raise ValueError(f"simulated object is not yaw-only: {theta}")
    c, s = np.cos(theta[2]), np.sin(theta[2])
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def scene_truth(dataset: Dataset, scene) -> SceneTruth:
    return SceneTruth(
        centers=np.array([o.quadric.t for o in scene.objects]),
        rotations=np.array([_yaw_rotation(o.quadric.theta) for o in scene.objects]),
        half_extents=np.array([o.quadric.s for o in scene.objects]),
        frame_ids=tuple(f.frame_id for f in dataset.frames),
        positions=np.array([x.translation for _, x in dataset.gt_trajectory]),
    )


def make_scenes(
    seed: int, count: int, out_dir: Path
) -> tuple[list[SceneFiles], list[int]]:
    """Write `count` scenes for `seed`; return them and the scene seeds whose
    layout the simulator could not place (left out of the workload)."""
    scenes: list[SceneFiles] = []
    unplaced: list[int] = []
    for j in range(SEED_STRIDE):
        if len(scenes) == count:
            break
        scene_seed = seed * SEED_STRIDE + j
        sim = SimConfig(**SIM_NOISE, seed=scene_seed)
        try:
            dataset, scene = simulate_dataset(
                SceneSpec(n_objects=N_OBJECTS), N_FRAMES, K, IMAGE_SIZE, sim
            )
        except PlacementFailure:
            unplaced.append(scene_seed)
            continue
        directory = out_dir / f"scene{len(scenes)}"
        write_dataset(dataset, directory)
        write_prior_csv(scene.prior_table(), directory / "priors.csv")
        scenes.append(
            SceneFiles(
                len(scenes), scene_seed, directory, directory / "priors.csv",
                scene_truth(dataset, scene),
            )
        )
    if len(scenes) < count:
        raise RuntimeError(f"only {len(scenes)} of {count} scenes could be placed")
    return scenes, unplaced


def prefix(dataset: Dataset, n_frames: int) -> Dataset:
    """The first `n_frames` frames of a dataset with their odometry."""
    frames = list(dataset.frames[:n_frames])
    ids = {f.frame_id for f in frames}
    return Dataset(
        dataset.intrinsics,
        dataset.image_size,
        frames,
        [o for o in dataset.odometry if o.to_frame in ids],
        dataset.gt_objects,
        [(fid, x) for fid, x in dataset.gt_trajectory if fid in ids],
        None,
    )
