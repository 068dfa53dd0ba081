"""Acceptance suite: one test per shipped guarantee, each printing a single
pass/fail line (visible with -s, or in the captured output on failure).

Heavier scene suites are built once per module and shared between tests.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from objslam.association import solve_lsap
from objslam.cli import main as cli_main
from objslam.config import build_run_config
from objslam.dataset import landmark_rows
from objslam.evaluation import box_iou_3d
from objslam.factors import NoiseModel
from objslam.geometry import (
    BoundingBox2D, CameraIntrinsics, Pose, Quadric, compose, quadric_rows,
)
from objslam.pipeline import run_slam, run_to_files
from objslam.priors import OrientationClass, orientation_prior_frame
from objslam.simulator import PlacementFailure, SceneSpec, SimConfig, simulate_dataset

from helpers import (
    bbox_factor,
    centroid_prior_factor,
    odometry_factor,
    orientation_prior_factor,
    size_prior_factor,
)


K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
IMG = (640, 480)
SUITE_SEEDS = (0, 1, 2, 3, 4, 5, 6, 8, 9, 10)


@contextmanager
def _criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def _estimator_config(mode, bbox_px, odom, flags=None, extra=None):
    doc = {
        "mode": mode,
        "noise": {
            "bbox_sigma_px": bbox_px,
            "odom_sigma_rot": odom,
            "odom_sigma_trans": odom,
        },
    }
    if flags is not None:
        size, orient, centroid = flags
        doc["flags"] = {
            "size_prior": size,
            "orientation_prior": orient,
            "centroid_factor": centroid,
        }
    if extra:
        doc.update(extra)
    return build_run_config(doc)


# ---------------------------------------------------------------------------
# Shared scene suites


@pytest.fixture(scope="module")
def sparse_suite():
    """Ten sparse-observation scenes (<=5 sightings per object, noisy boxes
    and odometry) evaluated under four prior configurations. Records the wall
    time of the priors-on/off pair, which carries its own budget."""
    scenes = []
    for seed in SUITE_SEEDS:
        sim = SimConfig(
            sigma_px=5.0, sigma_rot=0.01, sigma_trans=0.01,
            max_observations_per_object=5, seed=seed,
        )
        scenes.append(simulate_dataset(SceneSpec(n_objects=10), 30, K, IMG, sim))

    variants = {
        "full": (True, True, True),
        "none": (False, False, False),
        "size": (True, False, False),
        "orient": (False, True, False),
    }
    reports: dict[str, list] = {name: [] for name in variants}
    elapsed: dict[str, float] = {}
    for name, flags in variants.items():
        cfg = _estimator_config("batch", 5.0, 0.01, flags)
        t0 = time.perf_counter()
        for dataset, scene in scenes:
            _, report, _ = run_slam(cfg, dataset, scene.prior_table())
            reports[name].append(report)
        elapsed[name] = time.perf_counter() - t0
    return reports, elapsed


@pytest.fixture(scope="module")
def standard_suite():
    """Ten full-observation scenes at moderate noise, solved in both modes."""
    out = []
    for seed in SUITE_SEEDS:
        sim = SimConfig(sigma_px=2.0, sigma_rot=0.005, sigma_trans=0.005, seed=seed)
        dataset, scene = simulate_dataset(SceneSpec(n_objects=10), 30, K, IMG, sim)
        priors = scene.prior_table()
        runs = {}
        for mode in ("batch", "incremental"):
            estimate, report, _ = run_slam(
                _estimator_config(mode, 2.0, 0.005), dataset, priors
            )
            runs[mode] = (estimate, report)
        out.append(runs)
    return out


# ---------------------------------------------------------------------------
# 1. Noiseless round-trip


def test_criterion_01_noiseless_round_trip():
    with _criterion(1, "noiseless round-trip"):
        dataset, scene = simulate_dataset(
            SceneSpec(n_objects=10), 30, K, IMG, SimConfig(seed=0)
        )
        cfg = _estimator_config("batch", 0.5, 1e-4)
        t0 = time.perf_counter()
        _, report, _ = run_slam(cfg, dataset, scene.prior_table())
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        assert (report.tp, report.fp, report.fn) == (10, 0, 0)
        for m in report.objects:
            assert m.centroid_error < 1e-3, m
            assert m.size_error < 1e-3, m
            assert m.iou > 0.99, m


# ---------------------------------------------------------------------------
# 2. Jacobians against an independent finite-difference oracle

FD_STEP = 1e-5


def _fd_perturb(var, k: int, step: float):
    """Tangent-space perturbation written against scipy only: rotations
    right-multiplied by exp(step e_k), vectors perturbed additively."""
    dv = np.zeros(3)
    dv[k % 3] = step
    E = Rotation.from_rotvec(dv).as_matrix()
    if isinstance(var, Pose):
        if k < 3:
            return Pose(var.rotation @ E, var.translation)
        return Pose(var.rotation, var.translation + dv)
    if k < 3:
        return Quadric(var.rotation @ E, var.t, var.s)
    if k < 6:
        return Quadric(var.rotation, var.t + dv, var.s)
    return Quadric(var.rotation, var.t, var.s + dv)


def _fd_jacobians(factor, variables):
    r0 = np.asarray(factor.residual_at(*variables), dtype=np.float64)
    blocks = []
    for vi, var in enumerate(variables):
        dim = 6 if isinstance(var, Pose) else 9
        J = np.zeros((r0.shape[0], dim))
        for k in range(dim):
            plus = list(variables)
            minus = list(variables)
            plus[vi] = _fd_perturb(var, k, FD_STEP)
            minus[vi] = _fd_perturb(var, k, -FD_STEP)
            rp = np.asarray(factor.residual_at(*plus), dtype=np.float64)
            rm = np.asarray(factor.residual_at(*minus), dtype=np.float64)
            J[:, k] = (rp - rm) / (2.0 * FD_STEP)
        blocks.append(J)
    return blocks


def _relative_jacobian_error(factor, variables) -> float:
    result = factor.jacobian_at(*variables)
    assert result is not None
    _, got = result
    want = _fd_jacobians(factor, variables)
    scale = max(1.0, max(np.abs(b).max() for b in want))
    return max(np.abs(g - w).max() for g, w in zip(got, want)) / scale


def _random_rotation(rng) -> np.ndarray:
    return Rotation.random(random_state=rng).as_matrix()


def _random_pose(rng) -> Pose:
    return Pose(_random_rotation(rng), rng.uniform(-1.0, 1.0, 3))


def _random_quadric(rng, min_gap: float = 0.0) -> Quadric:
    while True:
        s = rng.uniform(0.05, 0.4, 3)
        gaps = np.diff(np.sort(s))
        if gaps.min() > min_gap:
            return Quadric(
                _random_rotation(rng), rng.uniform(-0.5, 0.5, 3), s
            )


def _camera_looking_at(rng, target: np.ndarray) -> Pose:
    position = target + Rotation.random(random_state=rng).as_matrix() @ np.array(
        [0.0, 0.0, rng.uniform(1.8, 3.0)]
    )
    z = target - position
    z = z / np.linalg.norm(z)
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(z, up)
    if np.linalg.norm(x) < 1e-6:
        x = np.cross(z, np.array([1.0, 0.0, 0.0]))
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(np.column_stack([x, y, z]), position)


def test_criterion_02_factor_jacobians():
    with _criterion(2, "factor jacobians vs central differences"):
        rng = np.random.default_rng(20240811)
        tol = 1e-4
        n_points = 100

        iso3 = NoiseModel.isotropic(3, 1.0)
        for _ in range(n_points):
            x_i = _random_pose(rng)
            u = _random_pose(rng)
            delta = rng.uniform(-0.3, 0.3, 6)
            x_j = compose(x_i, u).retract(delta)
            odo = odometry_factor(0, 1, u, NoiseModel.isotropic(6, 1.0))
            assert _relative_jacobian_error(odo, (x_i, x_j)) < tol

        box = BoundingBox2D(0.0, 0.0, 1.0, 1.0)
        bbox_noise = NoiseModel.isotropic(4, 1.0)
        count = 0
        while count < n_points:
            q = _random_quadric(rng)
            x = _camera_looking_at(rng, q.t)
            factor = bbox_factor(0, 0, box, K, bbox_noise)
            if factor.residual_at(x, q) is None:
                continue
            assert _relative_jacobian_error(factor, (x, q)) < tol
            count += 1

        for _ in range(n_points):
            # sort-degenerate points (near-equal semi-axes) excluded: the
            # sorted-size residual is not differentiable across a tie.
            q = _random_quadric(rng, min_gap=1e-2)
            target = np.sort(rng.uniform(0.05, 0.4, 3))
            factor = size_prior_factor(0, target, iso3)
            assert _relative_jacobian_error(factor, (q,)) < tol

        factor = orientation_prior_factor(0, NoiseModel.isotropic(2, 1.0))
        for _ in range(n_points):
            q = _random_quadric(rng)
            assert _relative_jacobian_error(factor, (q,)) < tol

        for _ in range(n_points):
            q = _random_quadric(rng)
            factor = centroid_prior_factor(0, rng.uniform(-1.0, 1.0, 3), iso3)
            assert _relative_jacobian_error(factor, (q,)) < tol


# ---------------------------------------------------------------------------
# 3. Assignment against brute-force enumeration


def _brute_force_assignment(W: np.ndarray, gate: float):
    """Max-total complete assignment of the smaller side by enumeration, then
    the same gating as the production solver."""
    n, m = W.shape
    transposed = n > m
    A = W.T if transposed else W
    best_total, best_pairs = -np.inf, ()
    for cols in itertools.permutations(range(A.shape[1]), A.shape[0]):
        total = 0.0
        for i in range(A.shape[0]):
            total += A[i, cols[i]]
        if total > best_total:
            best_total = total
            best_pairs = tuple(enumerate(cols))
    pairs = [(c, r) if transposed else (r, c) for r, c in best_pairs]
    pairs.sort()
    gated = [(r, c) for r, c in pairs if W[r, c] >= gate]
    total = 0.0
    for r, c in gated:
        total += W[r, c]
    return total, dict(gated)


def test_criterion_03_assignment_matches_brute_force():
    with _criterion(3, "assignment equals brute force"):
        rng = np.random.default_rng(20240812)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            W = rng.uniform(0.0, 1.0, (n, m))
            gate = float(rng.uniform(0.0, 1.2))
            result = solve_lsap(W, gate)
            got_total = 0.0
            for r in sorted(result.matches):
                got_total += W[r, result.matches[r]]
            want_total, want_matches = _brute_force_assignment(W, gate)
            assert got_total == want_total
            assert result.matches == want_matches


# ---------------------------------------------------------------------------
# 4. 3D IoU against a Monte Carlo oracle


def _random_box(rng, center) -> Quadric:
    return Quadric(
        Rotation.random(random_state=rng).as_matrix(),
        center,
        rng.uniform(0.1, 0.5, 3),
    )


def _box_corners(q: Quadric) -> np.ndarray:
    """Corners of the quadric's circumscribed box."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    return q.t + (signs * q.s) @ q.rotation.T


def _points_inside(q: Quadric, pts: np.ndarray) -> np.ndarray:
    local = (pts - q.t) @ q.rotation
    return np.all(np.abs(local) <= q.s, axis=1)


def _iou(a: Quadric, b: Quadric) -> float:
    """The IoU of one pair, scored as a batch of one."""
    return float(box_iou_3d(quadric_rows([a]), quadric_rows([b]))[0])


def _mc_iou(a: Quadric, b: Quadric, rng, n: int = 1_000_000) -> float:
    corners = np.vstack([_box_corners(a), _box_corners(b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = rng.uniform(lo, hi, (n, 3))
    in_a = _points_inside(a, pts)
    in_b = _points_inside(b, pts)
    union = int(np.count_nonzero(in_a | in_b))
    inter = int(np.count_nonzero(in_a & in_b))
    return inter / union if union else 0.0


def test_criterion_04_iou_oracle():
    with _criterion(4, "3D IoU vs Monte Carlo and analytic cases"):
        rng = np.random.default_rng(20240813)
        for _ in range(100):
            a = _random_box(rng, rng.uniform(-0.3, 0.3, 3))
            b = _random_box(rng, a.t + rng.uniform(-0.6, 0.6, 3))
            exact = _iou(a, b)
            assert 0.0 <= exact <= 1.0
            assert abs(exact - _mc_iou(a, b, rng)) < 0.01

        cube = Quadric(np.eye(3), np.zeros(3), np.full(3, 0.5))
        assert abs(_iou(cube, cube) - 1.0) < 1e-9
        far = Quadric(np.eye(3), np.array([10.0, 0.0, 0.0]), np.full(3, 0.5))
        assert abs(_iou(cube, far)) < 1e-9
        half = Quadric(np.eye(3), np.array([0.5, 0.0, 0.0]), np.full(3, 0.5))
        assert abs(_iou(cube, half) - 1.0 / 3.0) < 1e-9


# ---------------------------------------------------------------------------
# 5. Orientation-prior rotations


def test_criterion_05_orientation_prior_rotations():
    with _criterion(5, "orientation prior builds exact rotations"):
        rng = np.random.default_rng(20240814)
        w_z = np.array([0.0, 0.0, 1.0])
        for cls in OrientationClass:
            for _ in range(1000):
                R_q = Rotation.random(random_state=rng).as_matrix()
                s_o = rng.uniform(0.05, 0.5, 3)
                R, _ = orientation_prior_frame(cls, R_q, s_o)
                assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-9
                assert abs(np.linalg.det(R) - 1.0) < 1e-9
                assert np.array_equal(R[:, 2], w_z)

        s = np.array([0.1, 0.2, 0.3])
        worked, s_worked = orientation_prior_frame(OrientationClass.UNCERTAIN, np.eye(3), s)
        assert np.array_equal(worked, np.eye(3))
        assert np.array_equal(s_worked, s)


# ---------------------------------------------------------------------------
# 6 and 7. Prior ablations on the sparse suite


def test_criterion_06_priors_reduce_errors(sparse_suite):
    with _criterion(6, "priors cut centroid and size error by >= 30%"):
        reports, elapsed = sparse_suite
        cen_full = np.mean([r.mean_centroid_error for r in reports["full"]])
        cen_none = np.mean([r.mean_centroid_error for r in reports["none"]])
        size_full = np.mean([r.mean_size_error for r in reports["full"]])
        size_none = np.mean([r.mean_size_error for r in reports["none"]])
        assert cen_full <= 0.7 * cen_none, (cen_full, cen_none)
        assert size_full <= 0.7 * size_none, (size_full, size_none)
        budget = elapsed["full"] + elapsed["none"]
        assert budget < 120.0, f"took {budget:.1f}s"


def test_criterion_07_full_priors_dominate(sparse_suite):
    with _criterion(7, "full priors beat each single prior on IoU"):
        reports, _ = sparse_suite
        iou = {
            name: float(np.mean([r.mean_iou for r in reports[name]]))
            for name in ("full", "size", "orient")
        }
        assert iou["full"] >= iou["size"], iou
        assert iou["full"] >= iou["orient"], iou


def test_sparse_batch_solves_converge_within_30_steps():
    """Every placeable sparse-observation scene of seeds 0 to 30, at the
    suite's noise with full priors, converges in at most 30 accepted LM
    steps of its batch solve."""
    steps = {}
    for seed in range(31):
        sim = SimConfig(
            sigma_px=5.0, sigma_rot=0.01, sigma_trans=0.01,
            max_observations_per_object=5, seed=seed,
        )
        try:
            dataset, scene = simulate_dataset(SceneSpec(n_objects=10), 30, K, IMG, sim)
        except PlacementFailure:
            continue
        _, _, solve = run_slam(_estimator_config("batch", 5.0, 0.01), dataset, scene.prior_table())
        steps[seed] = (solve.iterations, solve.converged)
    assert len(steps) == 25
    slow = {seed: s for seed, s in steps.items() if s[0] > 30 or not s[1]}
    assert not slow, slow


# ---------------------------------------------------------------------------
# 8. IoU error over time


def test_criterion_08_iou_error_decreases():
    with _criterion(8, "IoU error shrinks over the run"):
        dataset, scene = simulate_dataset(
            SceneSpec(n_objects=10, area=(1.5, 0.9)), 40, K, IMG,
            SimConfig(seed=5), radius=2.5, height=1.4,
        )
        cfg = _estimator_config("incremental", 0.5, 1e-4)
        estimate, report, _ = run_slam(cfg, dataset, scene.prior_table())
        assert report.tp == 10 and report.fp == 0

        gt_quadrics = [g.quadric for g in dataset.gt_objects]
        lm_ids = [lm.landmark_id for lm in estimate.landmarks]
        first_seen = {}
        for _, snap in estimate.snapshots:
            for lm in snap:
                first_seen.setdefault(lm.landmark_id, lm)
        last = {lm.landmark_id: lm for lm in estimate.snapshots[-1][1]}
        improved = 0
        for m in report.objects:
            lid = lm_ids[m.est_index]
            gt = quadric_rows([gt_quadrics[m.gt_index]])
            err_first = 1.0 - box_iou_3d(landmark_rows([first_seen[lid]]), gt)[0]
            err_last = 1.0 - box_iou_3d(landmark_rows([last[lid]]), gt)[0]
            improved += err_last < err_first
        assert improved >= 0.9 * len(report.objects), improved

        means = [m for _, m, _ in report.iou_series]
        assert all(m is not None for m in means)
        smoothed = np.convolve(np.array(means), np.full(5, 0.2), mode="valid")
        assert np.diff(smoothed).max() <= 1e-9


# ---------------------------------------------------------------------------
# 9. Batch vs incremental


def test_criterion_09_modes_agree(standard_suite):
    with _criterion(9, "incremental centroids match batch within 0.05 m"):
        worst = 0.0
        for runs in standard_suite:
            centroids = {}
            for mode, (estimate, report) in runs.items():
                assert report.fp == 0
                centroids[mode] = {
                    m.gt_index: np.array(estimate.landmarks[m.est_index].centroid)
                    for m in report.objects
                }
            common = set(centroids["batch"]) & set(centroids["incremental"])
            assert len(common) == 10
            for g in common:
                gap = float(
                    np.linalg.norm(centroids["batch"][g] - centroids["incremental"][g])
                )
                worst = max(worst, gap)
        assert worst < 0.05, worst


# ---------------------------------------------------------------------------
# 10. Determinism


def test_criterion_10_deterministic_outputs(tmp_path):
    with _criterion(10, "same config and seed give identical bytes"):
        sim_doc = {
            "scene": {"n_objects": 5, "n_frames": 12},
            "sim": {"sigma_px": 2.0, "sigma_rot": 0.005, "sigma_trans": 0.005,
                    "seed": 3},
        }
        datasets = []
        for name in ("a", "b"):
            out = tmp_path / f"sim_{name}"
            cfg = build_run_config({**sim_doc, "paths": {"output_dir": str(out)}})
            from objslam.pipeline import run_simulate

            run_simulate(cfg)
            datasets.append(out)
        files_a = sorted(p.name for p in datasets[0].iterdir())
        assert files_a == sorted(p.name for p in datasets[1].iterdir())
        for name in files_a:
            assert (datasets[0] / name).read_bytes() == (
                datasets[1] / name
            ).read_bytes(), name

        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"run_{name}"
            cfg = build_run_config(
                {
                    "noise": {"bbox_sigma_px": 2.0, "odom_sigma_rot": 0.005,
                              "odom_sigma_trans": 0.005},
                    "paths": {
                        "dataset": str(datasets[0]),
                        "priors_csv": str(datasets[0] / "priors.csv"),
                        "output_dir": str(out),
                    },
                }
            )
            outs.append(run_to_files(cfg)[0])
        for name in ("map.json", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# 11. Prior generation with the fixture client


def test_criterion_11_gen_priors_csv(tmp_path, capsys):
    with _criterion(11, "gen-priors covers the vocabulary and flags fallbacks"):
        vocab = ["bottle", "mug", "book", "lamp", "keyboard", "plant"]
        vocab_path = tmp_path / "vocab.txt"
        vocab_path.write_text("\n".join(vocab) + "\n")
        # "book" is malformed, "plant" is missing entirely; both must fall back
        response = (
            "object,length,width,height,orientation\n"
            "bottle,0.085,0.06,0.24,0\n"
            "mug,0.12,0.085,0.1,2\n"
            "book,0.24,not-a-number,0.035,1\n"
            "lamp,0.17,0.12,0.4,0\n"
            "keyboard,0.44,0.14,0.035,1\n"
        )
        fixture = tmp_path / "response.txt"
        fixture.write_text(response)
        out_csv = tmp_path / "priors.csv"
        code = cli_main(
            ["gen-priors", "--vocab", str(vocab_path), "-o", str(out_csv),
             "--fixture", str(fixture)]
        )
        printed = capsys.readouterr().out
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "object,length,width,height,orientation"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(vocab)
        assert [r[0] for r in rows] == vocab
        fallbacks = {r[0] for r in rows if r[1:] == ["0.3", "0.3", "0.3", "2"]}
        assert fallbacks == {"book", "plant"}
        assert "book" in printed and "plant" in printed
