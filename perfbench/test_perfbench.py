"""Tests of the benchmark itself: the checker, the determinism check and the
tracer. Run with ``python3 -m pytest perfbench``."""

import json
import signal
import time
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from checker import check_map, check_repeat, kabsch_ate, mc_iou  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer, install, layer_metrics  # noqa: E402

WORKLOAD = workloads.WORKLOADS["standard-batch"]


@pytest.fixture(scope="module")
def mapped(tmp_path_factory):
    work = tmp_path_factory.mktemp("scene")
    scenes, _ = workloads.make_scenes(0, 1, work)
    m = run.map_scene(scenes[0], WORKLOAD.run_config(), work / "map.json")
    return scenes[0], m


def _check(scene, m, doc=None, solves=None):
    doc = json.loads(m.map_bytes) if doc is None else doc
    return check_map(doc, scene.truth, m.reported, m.solves if solves is None else solves,
                     WORKLOAD.mode)


def test_checker_accepts_the_pipeline_map(mapped):
    scene, m = mapped
    result = _check(scene, m)
    assert result.ok, result.problems
    assert result.tp == len(scene.truth.centers)


def test_checker_rejects_a_centroid_moved_by_0_6_m(mapped):
    scene, m = mapped
    doc = json.loads(m.map_bytes)
    doc["landmarks"][3]["centroid"][0] += 0.6
    assert not _check(scene, m, doc).ok


def test_checker_rejects_a_dropped_landmark(mapped):
    scene, m = mapped
    doc = json.loads(m.map_bytes)
    del doc["landmarks"][0]
    assert not _check(scene, m, doc).ok


def test_checker_rejects_broken_properties(mapped):
    scene, m = mapped
    doc = json.loads(m.map_bytes)
    doc["landmarks"][0]["rotation_quaternion"][0] *= 1.01
    assert not _check(scene, m, doc).ok
    doc = json.loads(m.map_bytes)
    doc["landmarks"][0]["semi_axes"][1] = -0.01
    assert not _check(scene, m, doc).ok
    doc = json.loads(m.map_bytes)
    del doc["trajectory"][5]
    assert not _check(scene, m, doc).ok
    initial, final = m.solves[0]
    assert not _check(scene, m, solves=[(initial, initial * 1.001)]).ok


def test_determinism_check_catches_a_changed_map(mapped):
    _, m = mapped
    doc = json.loads(m.map_bytes)
    doc["landmarks"][0]["semi_axes"][0] += 1e-12
    changed = json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n"
    assert check_repeat(m.map_bytes, m.map_bytes, "same") == []
    assert check_repeat(m.map_bytes, changed, "changed")


def test_monte_carlo_iou_and_kabsch_ate():
    R = np.eye(3)
    box = (np.zeros(3), R, np.ones(3))
    assert mc_iou(box, box) == pytest.approx(1.0)
    assert mc_iou(box, (np.array([3.0, 0, 0]), R, np.ones(3))) == 0.0
    # Shifted by one half extent: intersection 1/2 of each, IoU 1/3.
    assert mc_iou(box, (np.array([1.0, 0, 0]), R, np.ones(3))) == pytest.approx(1 / 3, abs=0.01)
    gt = np.random.default_rng(0).normal(size=(20, 3))
    c, s = np.cos(0.3), np.sin(0.3)
    moved = gt @ np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]).T + [1.0, 2.0, 3.0]
    assert kabsch_ate(moved, gt) == pytest.approx(0.0, abs=1e-12)


def _bindings():
    """Every attribute of the objects the tracer may patch, by identity."""
    import scipy.linalg

    from objslam import factors, geometry

    owners = [m for n, m in sys.modules.items() if n.startswith("objslam") and m]
    owners += [scipy.linalg, geometry.Pose, geometry.Quadric, factors.Factor]
    owners += [v for v in vars(factors).values()
               if isinstance(v, type) and issubclass(v, factors.Factor)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())
            if not isinstance(o, types.ModuleType) or not k.startswith("__")}


def _traced_prefix(scene, n_frames=6):
    from objslam import dataset, pipeline, priors

    data = workloads.prefix(dataset.load_dataset(scene.directory), n_frames)
    table = priors.parse_prior_csv(scene.priors_csv.read_text())
    with Tracer() as tr:
        seen = install(tr)
        timings = {}
        pipeline.run_slam(WORKLOAD.run_config(), data, table, timings)
    return tr, seen, timings


def test_traced_run_restores_the_original_functions(mapped):
    scene, _ = mapped
    before = _bindings()
    tr, _, _ = _traced_prefix(scene)
    assert len(tr.start) > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_per_layer_counts_repeat_exactly(mapped):
    scene, _ = mapped
    runs = [_traced_prefix(scene) for _ in range(2)]
    counts = []
    for tr, seen, timings in runs:
        m = layer_metrics(tr, seen, timings)
        counts.append({k: v for k, v in m.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["geometry.pose_inits"] > 0
    assert counts[0]["factors.bbox.jacobian_calls"] > 0


def test_speed_sampler_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert sampler.factor > 0.0
