"""Association scored against ground truth on scenes outside the acceptance
suite's seeds.

A detection is wrong when the landmark it was mapped to mostly holds another
object (``helpers.wrong_detections``). The standard scenes of seeds 12-23
are solved in both modes, as simulated and with 30 % of the detections'
depths removed by a seeded draw. Each of those runs must also map at least
80 % of the scene's objects as true positives.
"""

from __future__ import annotations

import pytest

from objslam.config import build_run_config
from objslam.evaluation import EvalReport
from objslam.geometry import CameraIntrinsics
from objslam.simulator import PlacementFailure, SceneSpec, SimConfig, simulate_dataset

from helpers import drop_depths, wrong_detections

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
IMG = (640, 480)
SEEDS = range(12, 24)
MODES = ("batch", "incremental")

# Wrong detections summed over SEEDS, keyed by (mode, depths removed), as
# the estimator that bound detections to short-term IoU tracks scored them.
# Seed 23 alone had 18 (batch) and 20 (incremental) in either depth variant.
TRACKER_WRONG = {
    ("batch", False): 20,
    ("incremental", False): 20,
    ("batch", True): 26,
    ("incremental", True): 28,
}


@pytest.fixture(scope="module")
def scored() -> dict[tuple[int, str, bool], tuple[int, EvalReport, int]]:
    """Wrong detections, the evaluation report and the object count by
    (seed, mode, depths removed); seeds whose scene cannot be placed are
    left out."""
    out = {}
    for seed in SEEDS:
        sim = SimConfig(sigma_px=2.0, sigma_rot=0.005, sigma_trans=0.005, seed=seed)
        try:
            dataset, scene = simulate_dataset(SceneSpec(n_objects=10), 30, K, IMG, sim)
        except PlacementFailure:
            continue
        priors = scene.prior_table()
        for dropped in (False, True):
            data = drop_depths(dataset, 0.3, seed) if dropped else dataset
            for mode in MODES:
                cfg = build_run_config({"mode": mode, "noise": {
                    "bbox_sigma_px": 2.0, "odom_sigma_rot": 0.005, "odom_sigma_trans": 0.005,
                }})
                out[seed, mode, dropped] = (
                    *wrong_detections(cfg, data, priors), len(dataset.gt_objects)
                )
    return out


def test_seed_23_has_no_wrong_detection(scored):
    assert {mode: scored[23, mode, False][0] for mode in MODES} == {"batch": 0, "incremental": 0}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dropped", [False, True], ids=["depth", "no-depth-30pct"])
def test_no_more_wrong_detections_than_the_tracker(scored, mode, dropped):
    wrong = sum(n for (_, m, d), (n, _, _) in scored.items() if (m, d) == (mode, dropped))
    assert wrong <= TRACKER_WRONG[mode, dropped]


def test_true_positives_cover_80_percent_of_objects(scored):
    short = {key: (report.tp, gt) for key, (_, report, gt) in scored.items()
             if report.tp < 0.8 * gt}
    assert short == {}
