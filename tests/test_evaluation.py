from __future__ import annotations

import numpy as np
import pytest

from objslam import evaluation
from objslam.dataset import report_document, write_iou_series_csv
from objslam.evaluation import (
    LengthMismatch,
    ObjectMetrics,
    ate_rmse,
    box_iou_3d,
    evaluate_map,
    iou_error_series,
    match_map_to_gt,
)
from objslam.geometry import Pose, Quadric, compose, quadric_rows, so3_exp

from conftest import random_pose, random_quadric, random_rotation
from helpers import pose_transform
from iou_oracle import hull_box_iou


def iou(a: Quadric, b: Quadric) -> float:
    """The IoU of one pair, scored as a batch of one."""
    return float(box_iou_3d(quadric_rows([a]), quadric_rows([b]))[0])


def pair_metrics(est: Quadric, gt: Quadric) -> ObjectMetrics:
    """The report entry of one estimate matched to one ground truth: a
    threshold of 1e9 m matches any pair these tests build."""
    (metrics,) = evaluate_map(quadric_rows([est]), quadric_rows([gt]), threshold=1e9).objects
    return metrics


def box_corners(q: Quadric) -> np.ndarray:
    """Corners of the quadric's circumscribed box."""
    signs = np.array(
        [[i, j, k] for i in (-1, 1) for j in (-1, 1) for k in (-1, 1)], dtype=np.float64
    )
    return q.t + (signs * q.s) @ q.rotation.T


def points_inside(q: Quadric, points: np.ndarray) -> np.ndarray:
    local = (points - q.t) @ q.rotation
    return np.all(np.abs(local) <= q.s + 1e-12, axis=1)


def mc_iou(a: Quadric, b: Quadric, n: int, seed: int) -> float:
    """Rejection-sampling oracle of the circumscribed boxes' IoU over the
    pair's joint bounding box."""
    rng = np.random.default_rng(seed)
    corners = np.vstack([box_corners(a), box_corners(b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n, 3))
    in_a = points_inside(a, pts)
    in_b = points_inside(b, pts)
    either = int(np.count_nonzero(in_a | in_b))
    if either == 0:
        return 0.0
    return float(np.count_nonzero(in_a & in_b)) / either


def horn_quaternion_rmse(est: np.ndarray, gt: np.ndarray) -> float:
    """Independent alignment oracle: Horn's closed-form quaternion method."""
    mu_e, mu_g = est.mean(axis=0), gt.mean(axis=0)
    e, g = est - mu_e, gt - mu_g
    S = e.T @ g
    sxx, sxy, sxz = S[0]
    syx, syy, syz = S[1]
    szx, szy, szz = S[2]
    N = np.array(
        [
            [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
            [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
            [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
            [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
        ]
    )
    vals, vecs = np.linalg.eigh(N)
    w, x, y, z = vecs[:, np.argmax(vals)]
    R = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    t = mu_g - R @ mu_e
    residuals = est @ R.T + t - gt
    return float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))


def random_box(rng: np.random.Generator) -> Quadric:
    return Quadric(
        random_rotation(rng),
        rng.uniform(-0.5, 0.5, size=3),
        rng.uniform(0.1, 0.6, size=3),
    )


def transformed(q: Quadric, T: Pose) -> Quadric:
    return Quadric(T.rotation @ q.rotation, T.rotation @ q.t + T.translation, q.s)


def aab(center, half) -> Quadric:
    """Axis-aligned: its circumscribed box has these center and half extents."""
    return Quadric(np.eye(3), np.asarray(center, dtype=np.float64),
                   np.asarray(half, dtype=np.float64))


def offset_yawed_cubes(side: float, center) -> tuple[Quadric, Quadric]:
    """Two cubes offset by half a side along x, the second turned 1e-9 rad
    about z, so their y faces are almost parallel: IoU 1/3."""
    c, s = np.cos(1e-9), np.sin(1e-9)
    Rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    center = np.asarray(center, dtype=np.float64)
    half = np.full(3, side / 2)
    return (
        Quadric(np.eye(3), center, half),
        Quadric(Rz, center + [side / 2, 0, 0], half),
    )


def crossing_yawed_cubes(
    half: float, center, offset: float, yaw: float
) -> tuple[Quadric, Quadric]:
    """Two cubes, the second moved `offset` along x and turned `yaw` about z.
    For a small yaw their y faces are almost parallel and cross inside the
    intersection, so each box bounds part of it on that side."""
    c, s = np.cos(yaw), np.sin(yaw)
    Rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    center = np.asarray(center, dtype=np.float64)
    return (
        Quadric(np.eye(3), center, np.full(3, half)),
        Quadric(Rz, center + [offset, 0, 0], np.full(3, half)),
    )


class TestBoxIoU3D:
    def test_identical(self, rng):
        for _ in range(5):
            box = random_box(rng)
            assert iou(box, box) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint(self):
        a = aab([0, 0, 0], [0.5, 0.5, 0.5])
        b = aab([5, 0, 0], [0.5, 0.5, 0.5])
        assert iou(a, b) == 0.0

    def test_touching_faces(self):
        a = aab([0, 0, 0], [0.5, 0.5, 0.5])
        b = aab([1, 0, 0], [0.5, 0.5, 0.5])
        assert iou(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_unit_cubes_offset_half(self):
        a = aab([0, 0, 0], [0.5, 0.5, 0.5])
        b = aab([0.5, 0, 0], [0.5, 0.5, 0.5])
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_nested_boxes(self):
        outer = aab([0, 0, 0], [1.0, 1.0, 1.0])
        inner = aab([0.1, -0.1, 0.2], [0.3, 0.4, 0.5])
        expected = np.prod(inner.s) / np.prod(outer.s)
        assert iou(outer, inner) == pytest.approx(expected, abs=1e-9)

    def test_rotated_45_degrees(self):
        # Unit cube vs itself rotated 45 deg about z: the cross-section is a
        # regular octagon of area 2(sqrt(2)-1), and the IoU works out to
        # exactly 1/sqrt(2).
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        Rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        a = aab([0, 0, 0], [0.5, 0.5, 0.5])
        b = Quadric(Rz, np.zeros(3), np.full(3, 0.5))
        inter = 2 * (np.sqrt(2) - 1)
        expected = inter / (2 - inter)
        assert expected == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert iou(a, b) == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-9)

    def test_rigid_invariance(self, rng):
        for _ in range(10):
            a, b = random_box(rng), random_box(rng)
            T = random_pose(rng)
            before = iou(a, b)
            after = iou(transformed(a, T), transformed(b, T))
            assert after == pytest.approx(before, abs=1e-9)

    def test_bounded(self, rng):
        for _ in range(50):
            v = iou(random_box(rng), random_box(rng))
            assert 0.0 <= v <= 1.0

    def test_against_monte_carlo(self, rng):
        for i in range(20):
            a, b = random_box(rng), random_box(rng)
            exact = iou(a, b)
            sampled = mc_iou(a, b, n=200_000, seed=1000 + i)
            assert exact == pytest.approx(sampled, abs=0.02)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            pytest.param(aab([0, 0, 0], [0.5] * 3), aab([1, 1, 0], [0.5] * 3), 0.0,
                         id="touching-edge"),
            pytest.param(aab([0, 0, 0], [0.5] * 3), aab([1, 1, 1], [0.5] * 3), 0.0,
                         id="touching-corner"),
            pytest.param(aab([0, 0, 0], [0.5] * 3), aab([0.25, 0, 0], [0.25, 0.5, 0.5]),
                         0.5, id="flush-half-cube"),
            pytest.param(*offset_yawed_cubes(1.0, [0, 0, 0]), 1.0 / 3.0,
                         id="near-parallel"),
            pytest.param(*offset_yawed_cubes(2e-4, [0, 0, 0]), 1.0 / 3.0,
                         id="near-parallel-semi-axis-floor"),
            pytest.param(*offset_yawed_cubes(1.0, [100, 50, 0]), 1.0 / 3.0,
                         id="near-parallel-far-from-origin"),
            pytest.param(*crossing_yawed_cubes(0.5, [0, 0, 0], 0.2, 2e-9), 2.0 / 3.0,
                         id="near-parallel-crossing"),
            # The hull oracle keeps vertices up to 1e-9 of the largest plane
            # offset outside a face, which far from the origin is large
            # against these boxes; it scores the same pair moved there.
            pytest.param(*crossing_yawed_cubes(1e-4, [100, 50, 0], 4e-5, 1.3e-3),
                         hull_box_iou(*crossing_yawed_cubes(1e-4, [0, 0, 0], 4e-5, 1.3e-3)),
                         id="near-parallel-crossing-small-far-1.3e-3"),
            pytest.param(*crossing_yawed_cubes(1e-4, [100, 50, 0], 4e-5, 1e-3),
                         hull_box_iou(*crossing_yawed_cubes(1e-4, [0, 0, 0], 4e-5, 1e-3)),
                         id="near-parallel-crossing-small-far-1e-3"),
        ],
    )
    def test_degenerate_contacts(self, a, b, expected):
        assert iou(a, b) == pytest.approx(expected, abs=1e-9)
        assert iou(b, a) == pytest.approx(expected, abs=1e-9)

    def test_coincident_faces_of_turned_boxes(self, rng):
        # In a turned frame, faces that coincide do so up to roundoff: they
        # must neither be cut at roundoff-placed points nor count twice.
        n = 2000
        boxes = [random_box(rng) for _ in range(n)]
        keep, axis = rng.uniform(0.1, 1.0, size=n), rng.integers(3, size=n)
        flush = []
        for box, f, k in zip(boxes, keep, axis):
            s = box.s.copy()
            s[k] *= f
            flush.append(Quadric(box.rotation, box.t + box.rotation[:, k] * (box.s[k] - s[k]), s))
        np.testing.assert_allclose(box_iou_3d(quadric_rows(boxes), quadric_rows(boxes)), 1.0, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(box_iou_3d(quadric_rows(boxes), quadric_rows(flush)), keep, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(box_iou_3d(quadric_rows(flush), quadric_rows(boxes)), keep, rtol=0.0, atol=1e-9)


def yawed_twin(rng: np.random.Generator, box: Quadric) -> Quadric:
    """The box turned by at most 1e-3 rad about the vertical, its center
    and half extents moved by about 1 %."""
    yaw = so3_exp(np.array([0.0, 0.0, rng.uniform(-1e-3, 1e-3)]))
    return Quadric(yaw @ box.rotation, box.t + rng.normal(0.0, 0.01, size=3),
                   box.s * rng.uniform(0.99, 1.01, size=3))


class TestBatchedIoU:
    """One batched call against the per-pair convex-hull oracle."""

    def test_random_pairs_match_hull_oracle(self):
        rng = np.random.default_rng(2024)
        a = [random_box(rng) for _ in range(2000)]
        b = [random_box(rng) for _ in range(2000)]
        batched = box_iou_3d(quadric_rows(a), quadric_rows(b))
        oracle = np.array([hull_box_iou(x, y) for x, y in zip(a, b)])
        assert np.count_nonzero(oracle) > 1000
        np.testing.assert_allclose(batched, oracle, rtol=0.0, atol=1e-12)

    def test_near_identical_pairs_match_hull_oracle(self):
        rng = np.random.default_rng(2025)
        a = [random_box(rng) for _ in range(2000)]
        b = [yawed_twin(rng, box) for box in a]
        batched = box_iou_3d(quadric_rows(a), quadric_rows(b))
        oracle = np.array([hull_box_iou(x, y) for x, y in zip(a, b)])
        assert oracle.min() > 0.5
        np.testing.assert_allclose(batched, oracle, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, evaluation._IOU_BLOCK, evaluation._IOU_BLOCK + 1])
    def test_block_boundaries_equal_one_pair_calls(self, n):
        rng = np.random.default_rng(n)
        a = [random_box(rng) for _ in range(n)]
        b = [yawed_twin(rng, box) if i % 2 else random_box(rng) for i, box in enumerate(a)]
        batched = box_iou_3d(quadric_rows(a), quadric_rows(b))
        assert batched.shape == (n,)
        np.testing.assert_array_equal(batched, [iou(x, y) for x, y in zip(a, b)])

    def test_unequal_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            box_iou_3d(quadric_rows([random_box(rng)]), quadric_rows([]))


class TestScalarErrors:
    def test_centroid_345(self):
        est = Quadric(np.eye(3), np.array([1.0, 1.0, 1.0]), np.ones(3))
        gt = aab([1.0, 4.0, 5.0], [0.5, 0.5, 0.5])
        assert pair_metrics(est, gt).centroid_error == pytest.approx(5.0)

    def test_centroid_zero(self):
        est = Quadric(np.eye(3), np.array([0.3, -0.2, 1.0]), np.ones(3))
        gt = aab([0.3, -0.2, 1.0], [0.5, 0.5, 0.5])
        assert pair_metrics(est, gt).centroid_error == 0.0

    def test_centroid_rigid_invariance(self, rng):
        est = random_quadric(rng)
        gt = random_box(rng)
        T = random_pose(rng)
        est2 = Quadric(
            T.rotation @ est.rotation, pose_transform(T, est.t), est.s
        )
        gt2 = transformed(gt, T)
        before = pair_metrics(est, gt).centroid_error
        assert pair_metrics(est2, gt2).centroid_error == pytest.approx(before, abs=1e-9)

    def test_size_permutation_invariant(self, rng):
        s = np.array([0.1, 0.25, 0.4])
        est = Quadric(np.eye(3), np.zeros(3), s[[2, 0, 1]])
        gt = Quadric(np.eye(3), np.zeros(3), s[[1, 2, 0]])
        assert pair_metrics(est, gt).size_error == pytest.approx(0.0, abs=1e-15)

    def test_size_single_axis(self):
        est = Quadric(np.eye(3), np.zeros(3), np.array([0.1, 0.1, 0.1]))
        gt = aab([0, 0, 0], [0.1, 0.1, 0.2])
        assert pair_metrics(est, gt).size_error == pytest.approx(0.1)

    def test_size_symmetric(self, rng):
        a = rng.uniform(0.05, 0.5, size=3)
        b = rng.uniform(0.05, 0.5, size=3)
        e1 = pair_metrics(Quadric(np.eye(3), np.zeros(3), a), aab([0, 0, 0], b)).size_error
        e2 = pair_metrics(Quadric(np.eye(3), np.zeros(3), b), aab([0, 0, 0], a)).size_error
        assert e1 == pytest.approx(e2, abs=1e-15)


class TestMatching:
    def test_empty_estimates(self):
        gt = [aab([0, 0, 0], [0.5, 0.5, 0.5]), aab([2, 0, 0], [0.5, 0.5, 0.5])]
        result = match_map_to_gt(quadric_rows([]), quadric_rows(gt), threshold=0.5)
        assert (result.tp, result.fp, result.fn) == (0, 0, 2)
        assert result.matching == {}

    def test_perfect_map(self, rng):
        gt = [random_box(rng) for _ in range(4)]
        est = list(gt)
        result = match_map_to_gt(quadric_rows(est), quadric_rows(gt), threshold=0.5)
        assert (result.tp, result.fp, result.fn) == (4, 0, 0)
        assert all(result.matching[i] == i for i in range(4))

    def test_two_estimates_near_one_gt(self):
        gt = [aab([0, 0, 0], [0.3, 0.3, 0.3])]
        est = [
            Quadric(np.eye(3), np.array([0.05, 0.0, 0.0]), np.full(3, 0.3)),
            Quadric(np.eye(3), np.array([0.0, 0.1, 0.0]), np.full(3, 0.3)),
        ]
        result = match_map_to_gt(quadric_rows(est), quadric_rows(gt), threshold=0.5)
        assert (result.tp, result.fp, result.fn) == (1, 1, 0)
        # One-to-one: the closer estimate wins.
        assert result.matching == {0: 0}

    def test_threshold_rejects_distant_pairs(self):
        gt = [aab([0, 0, 0], [0.3, 0.3, 0.3])]
        est = [Quadric(np.eye(3), np.array([0.9, 0.0, 0.0]), np.full(3, 0.3))]
        result = match_map_to_gt(quadric_rows(est), quadric_rows(gt), threshold=0.5)
        assert (result.tp, result.fp, result.fn) == (0, 1, 1)

    @pytest.mark.parametrize("threshold", [0.0, -0.5, float("nan")])
    def test_threshold_must_be_positive(self, threshold):
        q = aab([0, 0, 0], [0.3, 0.3, 0.3])
        with pytest.raises(ValueError, match="threshold must be positive"):
            match_map_to_gt(quadric_rows([q]), quadric_rows([q]), threshold)

    def test_threshold_must_be_finite(self):
        q = aab([0, 0, 0], [0.3, 0.3, 0.3])
        with pytest.raises(ValueError, match="threshold must be finite, got inf"):
            match_map_to_gt(quadric_rows([q]), quadric_rows([q]), np.inf)

    def test_count_identities(self, rng):
        for _ in range(20):
            n_est, n_gt = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            est = [
                Quadric(np.eye(3), rng.uniform(-1, 1, size=3), np.full(3, 0.2))
                for _ in range(n_est)
            ]
            gt = [aab(rng.uniform(-1, 1, size=3), [0.2, 0.2, 0.2]) for _ in range(n_gt)]
            r = match_map_to_gt(quadric_rows(est), quadric_rows(gt), threshold=0.5)
            assert r.tp + r.fp == n_est
            assert r.tp + r.fn == n_gt
            for i, j in r.matching.items():
                assert np.linalg.norm(est[i].t - gt[j].t) <= 0.5


class TestATE:
    def test_identical(self, rng):
        traj = [random_pose(rng) for _ in range(8)]
        assert ate_rmse(traj, traj) == pytest.approx(0.0, abs=1e-12)

    def test_rigid_transform_is_removed(self, rng):
        gt = [random_pose(rng) for _ in range(10)]
        T = random_pose(rng)
        est = [compose(T, p) for p in gt]
        assert ate_rmse(est, gt) == pytest.approx(0.0, abs=1e-9)

    def test_single_offset_pose_matches_oracle(self):
        gt = [Pose(np.eye(3), np.array([float(i), 0.0, 0.0])) for i in range(9)]
        est = [
            Pose(
                np.eye(3),
                np.array([float(i), 0.3 if i == 4 else 0.0, 0.0]),
            )
            for i in range(9)
        ]
        expected = horn_quaternion_rmse(
            np.array([p.translation for p in est]),
            np.array([p.translation for p in gt]),
        )
        got = ate_rmse(est, gt)
        assert got == pytest.approx(expected, abs=1e-9)
        assert 0.0 < got <= 0.3

    def test_random_trajectories_match_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 12))
            est = [random_pose(rng) for _ in range(n)]
            gt = [random_pose(rng) for _ in range(n)]
            expected = horn_quaternion_rmse(
                np.array([p.translation for p in est]),
                np.array([p.translation for p in gt]),
            )
            assert ate_rmse(est, gt) == pytest.approx(expected, abs=1e-9)

    def test_length_mismatch(self, rng):
        a = [random_pose(rng) for _ in range(3)]
        b = [random_pose(rng) for _ in range(4)]
        with pytest.raises(LengthMismatch):
            ate_rmse(a, b)
        with pytest.raises(LengthMismatch):
            ate_rmse([], [])


class TestReport:
    def test_evaluate_map_perfect(self, rng):
        gt = [random_box(rng) for _ in range(3)]
        est = list(gt)
        report = evaluate_map(quadric_rows(est), quadric_rows(gt), threshold=0.5)
        assert (report.tp, report.fp, report.fn) == (3, 0, 0)
        for m in report.objects:
            assert m.iou == pytest.approx(1.0, abs=1e-9)
            assert m.centroid_error == pytest.approx(0.0, abs=1e-12)
            assert m.size_error == pytest.approx(0.0, abs=1e-12)
        assert report.mean_iou == pytest.approx(1.0, abs=1e-9)

    def test_report_to_json_is_deterministic(self, rng):
        gt = [random_box(rng) for _ in range(3)]
        est = list(gt)
        r1 = evaluate_map(quadric_rows(est), quadric_rows(gt), threshold=0.5)
        r2 = evaluate_map(quadric_rows(est), quadric_rows(gt), threshold=0.5)
        assert report_document(r1) == report_document(r2)
        assert report_document(r1)["counts"] == {"tp": 3, "fp": 0, "fn": 0}

    def test_mean_metrics_none_without_matches(self):
        report = evaluate_map(quadric_rows([]), quadric_rows([aab([0, 0, 0], [0.3, 0.3, 0.3])]), threshold=0.5)
        assert report.mean_iou is None
        assert report.mean_centroid_error is None
        assert report.mean_size_error is None


class TestIoUSeries:
    def test_perfect_map_is_all_zero(self, rng):
        gt = [random_box(rng) for _ in range(2)]
        est = tuple(gt)
        snapshots = [(0, quadric_rows(est)), (1, quadric_rows(est)), (5, quadric_rows(est))]
        series = iou_error_series(snapshots, quadric_rows(gt), threshold=0.5)
        assert [kf for kf, _, _ in series] == [0, 1, 5]
        for _, mean, std in series:
            assert mean == pytest.approx(0.0, abs=1e-9)
            assert std == pytest.approx(0.0, abs=1e-9)

    def test_empty_snapshot_marked_absent(self, rng):
        gt = [aab([0, 0, 0], [0.3, 0.3, 0.3])]
        good = (Quadric(np.eye(3), np.zeros(3), np.full(3, 0.3)),)
        series = iou_error_series([(0, quadric_rows(())), (1, quadric_rows(good))], quadric_rows(gt), threshold=0.5)
        assert series[0][1] is None and series[0][2] is None
        assert series[1][1] == pytest.approx(0.0, abs=1e-9)

    def test_improving_map_gives_decreasing_series(self):
        gt = [aab([0, 0, 0], [0.3, 0.3, 0.3])]
        snapshots = []
        for k, offset in enumerate([0.25, 0.15, 0.05, 0.0]):
            q = Quadric(np.eye(3), np.array([offset, 0.0, 0.0]), np.full(3, 0.3))
            snapshots.append((k, quadric_rows([q])))
        series = iou_error_series(snapshots, quadric_rows(gt), threshold=0.5)
        means = [m for _, m, _ in series]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_mean_and_std_match_per_object_ious(self):
        gt = [aab([0, 0, 0], [0.3, 0.3, 0.3]), aab([2, 0, 0], [0.3, 0.3, 0.3])]
        est = (
            Quadric(np.eye(3), np.array([0.1, 0.0, 0.0]), np.full(3, 0.3)),
            Quadric(np.eye(3), np.array([2.0, 0.05, 0.0]), np.full(3, 0.3)),
        )
        series = iou_error_series([(0, quadric_rows(est))], quadric_rows(gt), threshold=0.5)
        errs = [
            1.0 - iou(est[0], gt[0]),
            1.0 - iou(est[1], gt[1]),
        ]
        assert series[0][1] == pytest.approx(np.mean(errs), abs=1e-12)
        assert series[0][2] == pytest.approx(np.std(errs), abs=1e-12)

    def test_csv_writer(self, tmp_path):
        rows = ((0, 0.25, 0.1), (1, None, None), (2, 0.125, 0.0))
        out = tmp_path / "series.csv"
        write_iou_series_csv(rows, out)
        text = out.read_text().splitlines()
        assert text[0] == "keyframe_index,mean_iou_error,std_iou_error"
        assert text[1] == "0,0.25,0.1"
        assert text[2] == "1,nan,nan"
        assert text[3] == "2,0.125,0.0"
