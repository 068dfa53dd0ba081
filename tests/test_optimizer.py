from __future__ import annotations

import dataclasses
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from objslam.association import AssociationResult
from objslam.dataset import Detection
from objslam.factors import (
    BBoxFactor,
    CentroidPriorFactor,
    Factor,
    NoiseModel,
    Scored,
    SizePriorFactor,
)
from objslam.geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    NonPositiveDepth,
    Pose,
    Quadric,
    between,
    compose,
    so3_exp,
)
from objslam import factors, optimizer
from objslam.optimizer import (
    FactorGraph,
    Flags,
    GraphValues,
    MissingVariable,
    SingularSystem,
    SolverConfig,
    _apply_step,
    add_keyframe,
    cost_breakdown,
    initialize_landmark,
    solve_batch,
    solve_incremental,
)
from objslam.priors import OrientationClass, PriorRecord, PriorTable

import noise_oracle
from conftest import random_pose, random_quadric
from helpers import (
    bbox_factor,
    centroid_prior_factor,
    noise_of,
    odometry_factor,
    orientation_prior_factor,
    pose_matrix,
    size_prior_factor,
    variable_keys,
)
from projection_oracle import predict_bbox
from solver_helpers import batch_rows, graph_of, linearize, total_cost, values_of


def looking_at_poses() -> list[Pose]:
    """Three nearby viewpoints with the quadric at (0, 0, 2) in front."""
    return [
        Pose.identity(),
        Pose.from_rotvec(np.array([0.0, -0.12, 0.0]), np.array([0.25, 0.0, 0.0])),
        Pose.from_rotvec(np.array([0.06, 0.10, 0.02]), np.array([-0.2, 0.1, -0.05])),
    ]


# Upright (local z along world z) at a heading of 0.3 rad, which is where its
# orientation prior is zero.
GT_QUADRIC = Quadric(Rotation.from_euler("XYZ", [0.0, 0.0, 0.3]).as_matrix(),
                     np.array([0.0, 0.0, 2.0]), np.array([0.2, 0.3, 0.4]))


def three_view_factors(camera, noise_px: float = 0.0, rng=None):
    """Noise-free (or lightly noisy) single-quadric factors with GT priors,
    and their values."""
    poses = looking_at_poses()
    fs: list[Factor] = []
    values = values_of(dict(enumerate(poses)), {0: GT_QUADRIC})
    odom_noise = NoiseModel(np.array([1e-4] * 3 + [1e-4] * 3))
    bbox_noise = NoiseModel.isotropic(4, 10.0)
    for i in range(2):
        fs.append(odometry_factor(i, i + 1, between(poses[i], poses[i + 1]), odom_noise))
    for i, x in enumerate(poses):
        box = predict_bbox(x, camera, GT_QUADRIC).as_array()
        if noise_px > 0.0:
            box = box + rng.normal(0.0, noise_px, size=4)
        fs.append(bbox_factor(i, 0, BoundingBox2D(*box), camera, bbox_noise))
    fs.append(size_prior_factor(0, np.sort(GT_QUADRIC.s), NoiseModel.isotropic(3, 0.1)))
    fs.append(orientation_prior_factor(0, NoiseModel.isotropic(2, 0.2)))
    fs.append(centroid_prior_factor(0, GT_QUADRIC.t, NoiseModel.isotropic(3, 0.5)))
    return fs, values


def three_view_graph(camera, noise_px: float = 0.0, rng=None):
    """The graph of ``three_view_factors``, and their values."""
    fs, values = three_view_factors(camera, noise_px, rng)
    return graph_of(fs), values


def perturbed(values: GraphValues, rng: np.random.Generator) -> GraphValues:
    """Fresh values: the same poses, and quadric 0 moved by a random step."""
    q = values.get(("quadric", 0))
    delta = np.zeros(9)
    delta[0:3] = rng.normal(0.0, 0.05, size=3)
    delta[3:6] = 0.2 * rng.standard_normal(3) / np.sqrt(3)
    delta[6:9] = rng.normal(0.0, 0.05, size=3)
    poses = {i: values.get(("pose", i)) for i in values.pose_ids.tolist()}
    return values_of(poses, {0: q.retract(delta)})


class TestTotalCost:
    def test_zero_at_ground_truth(self, camera):
        graph, values = three_view_graph(camera)
        assert total_cost(graph, values) == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force_mahalanobis(self, camera, rng):
        fs, values = three_view_factors(camera)
        graph = graph_of(fs)
        values = perturbed(values, rng)
        expected = 0.0
        for f in fs:
            r = f.residual_at(*[values.get(k) for k in variable_keys(f)])
            if r is None:
                continue
            expected += float(r @ np.linalg.inv(np.diag(noise_of(f).variances)) @ r)
        assert total_cost(graph, values) == pytest.approx(expected, rel=1e-12)

    def test_doubling_covariance_halves_contribution(self):
        values = values_of(quadrics={0: Quadric(np.eye(3), np.zeros(3), np.ones(3))})
        target = np.array([1.0, 1.0, 2.0])
        g1, g2 = FactorGraph(), FactorGraph()
        g1.add(centroid_prior_factor(0, target, NoiseModel.isotropic(3, 1.0)))
        g2.add(centroid_prior_factor(0, target, NoiseModel(np.full(3, 2.0))))
        assert total_cost(g2, values) == pytest.approx(total_cost(g1, values) / 2.0)

    def test_missing_variable(self):
        graph = FactorGraph()
        graph.add(centroid_prior_factor(3, np.zeros(3), NoiseModel.isotropic(3, 1.0)))
        with pytest.raises(MissingVariable):
            total_cost(graph, GraphValues())

    def test_breakdown_keys(self, camera):
        graph, values = three_view_graph(camera)
        breakdown = cost_breakdown(graph, values).breakdown
        assert set(breakdown) == {
            "odometry", "bbox", "size_prior", "orientation_prior", "centroid",
        }


class TestInitializeLandmark:
    def test_pinhole_example(self):
        K = CameraIntrinsics(100.0, 100.0, 320.0, 240.0)
        det = Detection(BoundingBox2D(300, 220, 340, 260), "mug", 0.9, center_depth=5.0)
        q = initialize_landmark(det, Pose.identity(), K)
        np.testing.assert_allclose(q.t, [0.0, 0.0, 5.0], atol=1e-12)
        np.testing.assert_allclose(q.s[:2], [1.0, 1.0], atol=1e-12)
        assert q.s[2] == pytest.approx(1.0)
        np.testing.assert_allclose(q.rotation, np.eye(3), atol=1e-12)

    def test_translated_camera_same_world_centroid(self):
        K = CameraIntrinsics(100.0, 100.0, 320.0, 240.0)
        det = Detection(BoundingBox2D(300, 220, 340, 260), "mug", 0.9, center_depth=5.0)
        x = Pose(np.eye(3), np.array([1.0, -2.0, 0.5]))
        q = initialize_landmark(det, x, K)
        np.testing.assert_allclose(q.t, [1.0, -2.0, 5.5], atol=1e-12)

    def test_missing_depth(self):
        K = CameraIntrinsics(100.0, 100.0, 320.0, 240.0)
        det = Detection(BoundingBox2D(300, 220, 340, 260), "mug", 0.9)
        with pytest.raises(NonPositiveDepth):
            initialize_landmark(det, Pose.identity(), K)

    def test_prior_rotation_applied(self):
        K = CameraIntrinsics(100.0, 100.0, 320.0, 240.0)
        # Wide box: the longest initial semi-axis is the camera x axis, so a
        # vertical prior must rotate it onto the world vertical.
        det = Detection(BoundingBox2D(200, 220, 440, 260), "bottle", 0.9, center_depth=5.0)
        record = PriorRecord("bottle", 0.1, 0.1, 0.3, OrientationClass.VERTICAL)
        q = initialize_landmark(det, Pose.identity(), K, record)
        R = q.rotation
        longest = np.argmax(q.s)
        assert abs(R[:, longest] @ np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0, abs=1e-9)


def det_at(box: BoundingBox2D, label="mug", conf=0.8, depth=2.0) -> Detection:
    return Detection(box, label, conf, center_depth=depth)


def no_matches(n: int) -> AssociationResult:
    return AssociationResult({}, tuple(range(n)))


class TestAddKeyframe:
    def test_first_keyframe_counts(self, camera):
        graph, values = FactorGraph(), GraphValues()
        priors = PriorTable()
        priors.add(PriorRecord("mug", 0.1, 0.1, 0.12, OrientationClass.VERTICAL))
        dets = [det_at(BoundingBox2D(300, 220, 340, 260))]
        mapping = add_keyframe(
            graph, values, 0, Pose.identity(), None, dets, no_matches(1), priors, camera
        )
        assert mapping == {0: 0}
        assert len(values.pose_ids) == 1 and len(values.quadric_ids) == 1
        assert graph.counts_by_kind() == {
            "bbox": 1, "size_prior": 1, "orientation_prior": 1, "centroid": 1,
        }

    def test_reobservation_adds_only_bbox(self, camera):
        graph, values = FactorGraph(), GraphValues()
        dets = [det_at(BoundingBox2D(300, 220, 340, 260))]
        add_keyframe(graph, values, 0, Pose.identity(), None, dets, no_matches(1), None, camera)
        before = graph.counts_by_kind()
        mapping = add_keyframe(
            graph, values, 1, Pose.identity(), Pose.identity(), dets,
            AssociationResult({0: 0}, ()), None, camera,
        )
        after = graph.counts_by_kind()
        assert mapping == {0: 0}
        assert after["bbox"] == before["bbox"] + 1
        assert after["odometry"] == 1
        assert len(values.quadric_ids) == 1

    def test_empty_frame_adds_only_odometry(self, camera):
        graph, values = FactorGraph(), GraphValues()
        add_keyframe(graph, values, 0, Pose.identity(), None, [], no_matches(0), None, camera)
        assert sum(graph.counts_by_kind().values()) == 0
        u = Pose.from_rotvec(np.array([0.0, 0.01, 0.0]), np.array([0.1, 0.0, 0.0]))
        x = compose(values.get(("pose", 0)), u)
        add_keyframe(graph, values, 1, x, u, [], no_matches(0), None, camera)
        assert graph.counts_by_kind() == {"odometry": 1}
        np.testing.assert_allclose(
            pose_matrix(values.get(("pose", 1))),
            pose_matrix(compose(values.get(("pose", 0)), u)),
            atol=1e-12,
        )

    def test_flags_disable_prior_factors(self, camera):
        priors = PriorTable()
        priors.add(PriorRecord("mug", 0.1, 0.1, 0.12, OrientationClass.VERTICAL))
        dets = [det_at(BoundingBox2D(300, 220, 340, 260))]
        flags = Flags(size_prior=False, orientation_prior=False, centroid_factor=False)
        graph, values = FactorGraph(), GraphValues()
        add_keyframe(
            graph, values, 0, Pose.identity(), None, dets, no_matches(1), priors, camera,
            flags=flags,
        )
        assert graph.counts_by_kind() == {"bbox": 1}

    def test_no_prior_record_is_resolved_with_every_prior_off(self, camera):
        # With no prior factor to build, an unknown label is no fallback.
        priors = PriorTable()
        dets = [det_at(BoundingBox2D(300, 220, 340, 260), label="gizmo")]
        graph, values = FactorGraph(), GraphValues()
        add_keyframe(
            graph, values, 0, Pose.identity(), None, dets, no_matches(1), priors, camera,
            flags=Flags(False, False, False),
        )
        assert graph.counts_by_kind() == {"bbox": 1}
        assert priors.flagged == set()

    def test_one_factor_per_kind_per_keyframe(self, camera, monkeypatch):
        # Odometry, 3 matched detections and 2 spawned landmarks with priors:
        # one factor per kind, in this order, each stacking its rows.
        priors = PriorTable()
        priors.add(PriorRecord("mug", 0.1, 0.1, 0.12, OrientationClass.VERTICAL))
        boxes = [(300, 220, 340, 260), (100, 100, 160, 180), (400, 300, 450, 360),
                 (200, 150, 240, 200), (500, 50, 560, 120)]
        dets = [det_at(BoundingBox2D(*b)) for b in boxes]
        graph, values = FactorGraph(), GraphValues()
        add_keyframe(graph, values, 0, Pose.identity(), None, dets[:3], no_matches(3), priors,
                     camera)
        added = []
        add = FactorGraph.add

        def spying(self, factor):
            added.append(factor)
            add(self, factor)

        monkeypatch.setattr(FactorGraph, "add", spying)
        mapping = add_keyframe(
            graph, values, 1, Pose.identity(), Pose.identity(), dets,
            AssociationResult({2: 2, 0: 0, 1: 1}, (3, 4)), priors, camera,
        )
        assert mapping == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
        assert len(added) == 5
        assert [(f.kind, len(f.huber)) for f in added] == [
            ("odometry", 1), ("bbox", 5), ("size_prior", 2), ("orientation_prior", 2),
            ("centroid", 2),
        ]
        assert added[1].ids.tolist() == [[1] * 5, [0, 1, 2, 3, 4]]
        assert [f.ids.tolist() for f in added[2:]] == [[[3, 4]]] * 3

    def test_unknown_label_falls_back_and_flags(self, camera):
        priors = PriorTable()
        dets = [det_at(BoundingBox2D(300, 220, 340, 260), label="gizmo")]
        graph, values = FactorGraph(), GraphValues()
        add_keyframe(graph, values, 0, Pose.identity(), None, dets, no_matches(1), priors, camera)
        assert "gizmo" in priors.flagged
        assert graph.counts_by_kind()["size_prior"] == 1

    def test_detection_without_depth_is_deferred(self, camera):
        graph, values = FactorGraph(), GraphValues()
        dets = [Detection(BoundingBox2D(300, 220, 340, 260), "mug", 0.8)]
        mapping = add_keyframe(
            graph, values, 0, Pose.identity(), None, dets, no_matches(1), None, camera
        )
        assert mapping == {}
        assert len(values.quadric_ids) == 0 and sum(graph.counts_by_kind().values()) == 0

    def test_deterministic(self, camera):
        priors = PriorTable()
        priors.add(PriorRecord("mug", 0.1, 0.1, 0.12, OrientationClass.VERTICAL))
        dets = [
            det_at(BoundingBox2D(300, 220, 340, 260)),
            det_at(BoundingBox2D(100, 100, 160, 180), label="bottle", depth=3.0),
        ]
        results = []
        for _ in range(2):
            graph, values = FactorGraph(), GraphValues()
            mapping = add_keyframe(
                graph, values, 0, Pose.identity(), None, dets, no_matches(2), priors, camera
            )
            results.append((mapping, [(b.kind, b.ids.tolist()) for b in graph.batches()],
                            values.quadric_ids.tolist(), values.t.tolist()))
        assert results[0] == results[1]

    def test_duplicate_pose_id_rejected(self, camera):
        graph, values = FactorGraph(), GraphValues()
        add_keyframe(graph, values, 0, Pose.identity(), None, [], no_matches(0), None, camera)
        with pytest.raises(ValueError):
            add_keyframe(
                graph, values, 0, Pose.identity(), Pose.identity(), [], no_matches(0), None, camera
            )


def recording_dampings(monkeypatch) -> list[float]:
    """The damped matrix's first diagonal entry at every linear step the
    solver takes, recorded through its own step function."""
    dampings = []
    step = optimizer._schur_step

    def recording(damped, *args):
        dampings.append(damped[0, 0])
        return step(damped, *args)

    monkeypatch.setattr(optimizer, "_schur_step", recording)
    return dampings


class TestSolveBatch:
    def test_recovers_ground_truth(self, camera, rng):
        graph, gt_values = three_view_graph(camera)
        init = perturbed(gt_values, rng)
        solved, report = solve_batch(graph, init)
        assert report.converged
        assert report.final_cost <= report.initial_cost
        assert np.linalg.norm(solved.get(("quadric", 0)).t - GT_QUADRIC.t) < 1e-3
        np.testing.assert_allclose(
            np.sort(solved.get(("quadric", 0)).s), np.sort(GT_QUADRIC.s), atol=1e-3
        )

    def test_already_optimal_is_a_no_op(self, camera, rng):
        graph, gt_values = three_view_graph(camera)
        solved, _ = solve_batch(graph, perturbed(gt_values, rng))
        again, report = solve_batch(graph, solved)
        assert report.iterations == 0
        assert report.converged
        assert report.final_cost == pytest.approx(report.initial_cost, abs=1e-12)
        np.testing.assert_allclose(
            again.get(("quadric", 0)).t, solved.get(("quadric", 0)).t, atol=1e-12
        )

    def test_unary_only_converges_to_prior_targets(self, rng):
        # The orientation prior's target is upright at any heading; a start
        # tilted about a horizontal axis comes back to the heading it had.
        target_R = so3_exp(np.array([0.0, 0.0, rng.uniform(-np.pi, np.pi)]))
        target_t = np.array([0.4, -0.3, 1.2])
        target_s = np.array([0.1, 0.2, 0.3])
        graph = FactorGraph()
        graph.add(size_prior_factor(7, target_s, NoiseModel.isotropic(3, 0.1)))
        graph.add(orientation_prior_factor(7, NoiseModel.isotropic(2, 0.1)))
        graph.add(centroid_prior_factor(7, target_t, NoiseModel.isotropic(3, 0.1)))
        start = Quadric(
            target_R @ so3_exp(np.array([0.05, -0.03, 0.0])),
            target_t + np.array([0.1, 0.05, -0.08]),
            target_s[[1, 0, 2]] * 1.3,
        )
        values = values_of(quadrics={7: start})
        solved, report = solve_batch(graph, values)
        q = solved.get(("quadric", 7))
        assert report.converged
        np.testing.assert_allclose(np.sort(q.s), target_s, atol=1e-6)
        np.testing.assert_allclose(q.t, target_t, atol=1e-6)
        np.testing.assert_allclose(q.rotation, target_R, atol=1e-6)

    def test_roundoff_step_is_not_taken(self, camera):
        # The first solve ends on the 1e-5 decrease rule while the heading,
        # which only the boxes hold, still moves; a second one settles it.
        # On this seed the trial step from there lowers the cost by 3e-9 of
        # it, under the 1e-8 the solver counts as roundoff: the re-solve
        # converges without moving rather than accepting it.
        rng = np.random.default_rng(2)
        graph, gt_values = three_view_graph(camera, noise_px=2.0, rng=rng)
        settled, _ = solve_batch(graph, perturbed(gt_values, rng))
        settled, _ = solve_batch(graph, settled)
        again, report = solve_batch(graph, settled)
        assert report.iterations == 0 and report.converged
        assert report.final_cost == report.initial_cost > 1e-12
        for a in ("R", "t", "s"):
            np.testing.assert_array_equal(getattr(again, a), getattr(settled, a))

    def test_first_pose_stays_anchored(self, camera, rng):
        graph, gt_values = three_view_graph(camera)
        init = perturbed(gt_values, rng)
        anchor = init.get(("pose", 0))
        solved, _ = solve_batch(graph, init)
        np.testing.assert_array_equal(solved.get(("pose", 0)).rotation, anchor.rotation)
        np.testing.assert_array_equal(solved.get(("pose", 0)).translation, anchor.translation)

    def test_semi_axes_stay_clamped(self):
        graph = FactorGraph()
        tiny = np.full(3, 1e-4)
        graph.add(size_prior_factor(0, tiny, NoiseModel.isotropic(3, 0.01)))
        values = values_of(quadrics={0: Quadric(np.eye(3), np.zeros(3), np.full(3, 0.3))})
        solved, _ = solve_batch(graph, values)
        assert np.all(solved.get(("quadric", 0)).s >= 1e-4 - 1e-15)

    def test_singular_system(self, monkeypatch):
        # The size-prior kind's batched functions replaced by a constant-slope
        # Jacobian over a residual that only grows: every trial is rejected,
        # so the damping climbs tenfold from 1e-4 and the solve gives up once
        # it passes 1e8, after 13 factorizations. H's first diagonal entry is
        # zero, so the damped matrix's is the damping.
        def growing(c, q):
            r = 1.0 + np.sqrt(np.abs(q[1][:, :1]))
            return Scored(r, np.ones(len(r), dtype=bool), ())

        def lying(c, scored, q):
            J = np.zeros((len(scored.r), 1, 9))
            J[:, 0, 3] = 1.0
            return J

        dampings = recording_dampings(monkeypatch)
        monkeypatch.setattr(SizePriorFactor, "residuals", staticmethod(growing))
        monkeypatch.setattr(SizePriorFactor, "jacobians", staticmethod(lying))
        graph = FactorGraph()
        graph.add(size_prior_factor(0, np.full(3, 0.1), NoiseModel.isotropic(1, 1.0)))
        values = values_of(quadrics={0: Quadric(np.eye(3), np.zeros(3), np.ones(3))})
        with pytest.raises(SingularSystem):
            solve_batch(graph, values)
        np.testing.assert_allclose(dampings, 10.0 ** np.arange(-4, 9), rtol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)


class TestDampingSchedule:
    """The damping of every factorization, read from the damped matrix's first
    diagonal entry: quadric 0 has no factor, so its columns of H are zero."""

    @staticmethod
    def solve_recording(monkeypatch, graph, quadric):
        dampings = recording_dampings(monkeypatch)
        free = Quadric(np.eye(3), np.zeros(3), np.ones(3))
        solved, report = solve_batch(graph, values_of(quadrics={0: free, 1: quadric}))
        np.testing.assert_array_equal(solved.get(("quadric", 0)).t, free.t)
        return dampings, report

    def test_floor_after_an_accepted_step(self, monkeypatch):
        # An orientation prior on a quadric tilted 0.9 rad from upright:
        # every step is accepted. The first trial is near Gauss-Newton; after
        # it the damping never falls below 1.
        tilt = 0.9 * np.array([0.6, 0.8, 0.0])
        graph = FactorGraph()
        graph.add(orientation_prior_factor(1, NoiseModel.isotropic(2, 0.1)))
        start = Quadric(
            so3_exp(tilt) @ so3_exp(np.array([0.0, 0.0, 0.3])), np.zeros(3), np.full(3, 0.2)
        )
        dampings, report = self.solve_recording(monkeypatch, graph, start)
        assert report.converged and report.iterations >= 2
        assert dampings[0] == 1e-4
        assert len(dampings) > 1 and min(dampings[1:]) >= 1.0

    def test_a_step_that_no_longer_pays_ends_the_solve(self, monkeypatch):
        # Two centroid priors 0.2 m apart leave a cost of 2 at their midpoint;
        # a start 0.1 mm off it adds 2e-6, so the first step lowers the cost
        # by 1e-6 of it, more than roundoff: kept, and the solve ends there
        # as converged.
        graph = FactorGraph()
        for z in (-0.1, 0.1):
            graph.add(
                centroid_prior_factor(1, np.array([0.0, 0.0, z]), NoiseModel.isotropic(3, 0.1))
            )
        start = Quadric(np.eye(3), np.array([0.0, 0.0, 1e-4]), np.full(3, 0.2))
        dampings, report = self.solve_recording(monkeypatch, graph, start)
        assert report.final_cost < report.initial_cost
        assert report.initial_cost - report.final_cost <= 1e-5 * report.initial_cost
        assert report.converged and report.iterations == 1
        assert dampings == [1e-4]


def block_structured(rng, poses: int, quadrics: int) -> np.ndarray:
    """A random positive definite matrix laid out as H is, 6 columns per
    free pose then 9 per quadric, with no quadric-quadric coupling."""
    p, n = 6 * poses, 6 * poses + 9 * quadrics
    J = rng.normal(size=(2 * n + 3, n))
    A = J.T @ J
    coupled = np.kron(np.eye(quadrics, dtype=bool), np.ones((9, 9), dtype=bool))
    A[p:, p:] *= coupled
    return A + 0.1 * np.eye(n)


class TestSchurStep:
    """``_schur_step`` solves the damped system exactly, given its layout."""

    @pytest.mark.parametrize("poses, quadrics", [(0, 3), (4, 0), (1, 1), (5, 3), (29, 10)])
    def test_equals_a_dense_solve(self, rng, poses, quadrics):
        for _ in range(5):
            A = block_structured(rng, poses, quadrics)
            b = rng.normal(size=len(A))
            want = np.linalg.solve(A, b)
            got = optimizer._schur_step(A, b, quadrics)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())

    def test_empty_system(self):
        assert optimizer._schur_step(np.empty((0, 0)), np.empty(0), 0).shape == (0,)

    def test_a_block_not_positive_definite(self, rng):
        A = block_structured(rng, 2, 3)
        p = 12 + 9
        A[p + 4, p + 4] = -1.0  # the second quadric's block has a negative pivot
        with pytest.raises(np.linalg.LinAlgError):
            optimizer._schur_step(A, np.ones(len(A)), 3)

    def test_a_schur_complement_not_positive_definite(self, rng):
        # Positive definite 9x9 blocks, but a pose-quadric coupling larger
        # than both diagonals: S = A_pp - A_pq Q^-1 A_qp has a negative pivot.
        A = block_structured(rng, 2, 3)
        A[:12, 12:] = 0.0
        A[12:, :12] = 0.0
        A[0, 12] = A[12, 0] = 2.0 * np.sqrt(A[0, 0] * A[12, 12])
        for p in range(0, 27, 9):
            np.linalg.cholesky(A[12 + p:21 + p, 12 + p:21 + p])
        assert np.linalg.eigvalsh(A).min() < 0.0
        with pytest.raises(np.linalg.LinAlgError):
            optimizer._schur_step(A, np.ones(len(A)), 3)

    def test_no_factor_kind_joins_two_quadrics(self):
        kinds = [
            c for c in vars(factors).values()
            if isinstance(c, type) and issubclass(c, Factor) and c.variables
        ]
        assert len(kinds) == 5
        for kind in kinds:
            assert kind.variables.count("quadric") <= 1, (
                f"{kind.__name__} joins two quadrics, so the quadric block of H is no "
                "longer block-diagonal and optimizer._schur_step no longer solves it: a "
                "landmark-landmark factor, such as a support plane shared by objects, must "
                "revisit the step"
            )


class TestSolveIncremental:
    def test_single_keyframe_matches_batch(self, camera, rng):
        graph = FactorGraph()
        values = GraphValues()
        priors = PriorTable()
        priors.add(PriorRecord("mug", 0.2, 0.25, 0.3, OrientationClass.UNCERTAIN))
        dets = [det_at(BoundingBox2D(290, 210, 350, 270))]
        add_keyframe(graph, values, 0, Pose.identity(), None, dets, no_matches(1), priors, camera)
        inc, _ = solve_incremental(graph, values)
        bat, _ = solve_batch(graph, values)
        np.testing.assert_allclose(inc.get(("quadric", 0)).t, bat.get(("quadric", 0)).t, atol=1e-6)
        np.testing.assert_allclose(inc.get(("quadric", 0)).s, bat.get(("quadric", 0)).s, atol=1e-6)

    def test_never_increases_cost(self, camera, rng):
        graph, gt_values = three_view_graph(camera, noise_px=2.0, rng=rng)
        values = perturbed(gt_values, rng)
        cost = total_cost(graph, values)
        for _ in range(6):
            values, report = solve_incremental(graph, values)
            assert report.final_cost <= cost + 1e-12
            cost = report.final_cost

    def test_repeated_calls_reach_batch_cost(self, camera, rng):
        graph, gt_values = three_view_graph(camera, noise_px=2.0, rng=rng)
        init = perturbed(gt_values, rng)
        _, batch_report = solve_batch(graph, init)
        values = init
        report = None
        for _ in range(30):
            values, report = solve_incremental(graph, values)
            if report.converged:
                break
        rel = abs(report.final_cost - batch_report.final_cost) / max(
            batch_report.final_cost, 1e-12
        )
        assert rel < 1e-6

    @pytest.mark.parametrize("budget", [1, 3])
    def test_keyframe_without_landmark_takes_one_step_fewer(self, camera, rng, budget):
        graph, gt_values = three_view_graph(camera, noise_px=2.0, rng=rng)
        values = perturbed(gt_values, rng)
        cfg = SolverConfig(incremental_iters_per_keyframe=budget)
        _, full = solve_incremental(graph, values, cfg)
        _, fewer = solve_incremental(graph, values, cfg, adds_landmark=False)
        assert full.iterations == budget
        assert fewer.iterations == max(1, budget - 1)

    def test_multi_keyframe_pipeline_matches_batch(self, camera, rng):
        gt_q = Quadric(Rotation.from_euler("XYZ", [0.0, 0.1, -0.1]).as_matrix(),
                       np.array([0.0, 0.0, 2.0]), np.array([0.15, 0.2, 0.3]))
        priors = PriorTable()
        priors.add(PriorRecord("mug", 0.3, 0.4, 0.6, OrientationClass.UNCERTAIN))
        n = 8
        poses = []
        for i in range(n):
            angle = 0.05 * i
            poses.append(
                Pose.from_rotvec(
                    np.array([0.0, -angle, 0.0]),
                    np.array([0.5 * np.sin(angle * 2), 0.02 * i, -0.05 * i]),
                )
            )

        def frames():
            for i, x in enumerate(poses):
                box = predict_bbox(x, camera, gt_q).as_array()
                box = box + rng.normal(0.0, 1.0, size=4)
                yield i, x, [det_at(BoundingBox2D(*box))]

        def build(solve_each: bool):
            graph, values = FactorGraph(), GraphValues()
            for i, _, dets in frames():
                odom = None if i == 0 else between(poses[i - 1], poses[i])
                x = Pose.identity() if i == 0 else compose(values.get(("pose", i - 1)), odom)
                assoc = (
                    no_matches(1) if i == 0
                    else AssociationResult({0: 0}, ())
                )
                add_keyframe(graph, values, i, x, odom, dets, assoc, priors, camera)
                if solve_each:
                    values, _ = solve_incremental(graph, values)
            return graph, values

        rng_state = rng.bit_generator.state
        graph_inc, values_inc = build(solve_each=True)
        rng.bit_generator.state = rng_state
        graph_bat, values_bat = build(solve_each=False)
        values_bat, _ = solve_batch(graph_bat, values_bat)
        np.testing.assert_allclose(
            values_inc.get(("quadric", 0)).t, values_bat.get(("quadric", 0)).t, atol=0.05
        )


class TestSolveReport:
    def test_breakdown_scores_the_returned_estimate(self, camera, rng):
        graph, gt_values = three_view_graph(camera, noise_px=2.0, rng=rng)
        init = perturbed(gt_values, rng)
        batch = solve_batch(graph, init)
        incremental = solve_incremental(graph, init)
        # A re-solve from a settled estimate takes no step. One more solve
        # settles the heading, which only the boxes hold.
        no_step = solve_batch(graph, solve_batch(graph, batch[0])[0])
        assert batch[1].iterations > 0 and incremental[1].iterations > 0
        assert no_step[1].iterations == 0 and no_step[1].final_cost > 1e-12
        for solved, report in (batch, incremental, no_step):
            assert report.breakdown == cost_breakdown(graph, solved).breakdown


class TestDeactivation:
    def test_step_behind_camera_is_rejected(self, camera):
        # A tight centroid prior pulls the landmark behind the only camera.
        # The Gauss-Newton step goes straight there, which would make the
        # bbox factor invalid and drop its cost; LM must not accept it.
        q0 = Quadric(np.eye(3), np.array([0.0, 0.0, 2.0]), np.full(3, 0.1))
        box = predict_bbox(Pose.identity(), camera, q0)
        graph = FactorGraph()
        graph.add(
            bbox_factor(
                0, 0,
                BoundingBox2D(box.xmin + 5.0, box.ymin, box.xmax + 5.0, box.ymax),
                camera, NoiseModel.isotropic(4, 10.0),
            )
        )
        graph.add(
            centroid_prior_factor(0, np.array([0.0, 0.0, -1.0]), NoiseModel.isotropic(3, 0.01))
        )
        values = values_of(poses={0: Pose.identity()}, quadrics={0: q0})
        solved, report = solve_batch(graph, values)
        assert solved.get(("quadric", 0)).t[2] > 0.0
        assert "bbox" in report.breakdown
        assert report.final_cost <= report.initial_cost
        assert cost_breakdown(graph, solved).active.all()


class TestArrayState:
    def test_solves_build_no_objects(self, camera, rng, monkeypatch):
        graph, gt_values = three_view_graph(camera, noise_px=2.0, rng=rng)
        init = perturbed(gt_values, rng)
        calls: Counter = Counter()
        for owner, name in [(Pose, "__post_init__"), (Quadric, "__post_init__"),
                            (Factor, "residual_at"), (Factor, "jacobian_at")]:
            def counting(*args, _fn=getattr(owner, name), _key=f"{owner.__name__}.{name}"):
                calls[_key] += 1
                return _fn(*args)

            monkeypatch.setattr(owner, name, counting)
        batch = solve_batch(graph, init)
        incremental = solve_incremental(graph, init)
        assert batch[1].iterations > 0 and incremental[1].iterations > 0
        assert calls == Counter()
        # The values leave the solver through get, which builds and checks.
        batch[0].get(("quadric", 0))
        assert calls == Counter({"Quadric.__post_init__": 1})

    def test_apply_step_is_the_retraction(self, rng):
        values = values_of(
            {3: random_pose(rng), 1: random_pose(rng), 2: random_pose(rng)},
            {5: random_quadric(rng), 0: random_quadric(rng)},
        )
        delta = rng.normal(0.0, 0.3, size=2 * 6 + 2 * 9)
        delta[-2:] = -1.0  # drives two semi-axes of quadric 5 below the floor
        out = _apply_step(values, delta)
        anchor, moved = values.get(("pose", 1)), out.get(("pose", 1))
        np.testing.assert_array_equal(moved.rotation, anchor.rotation)
        np.testing.assert_array_equal(moved.translation, anchor.translation)
        offset = 0
        for key in [("pose", 2), ("pose", 3), ("quadric", 0), ("quadric", 5)]:
            before, after = values.get(key), out.get(key)
            d = delta[offset : offset + (6 if key[0] == "pose" else 9)]
            offset += len(d)
            np.testing.assert_allclose(
                after.rotation, before.rotation @ so3_exp(d[:3]), rtol=0.0, atol=1e-15
            )
            if key[0] == "pose":
                np.testing.assert_array_equal(after.translation, before.translation + d[3:])
            else:
                np.testing.assert_array_equal(after.t, before.t + d[3:6])
                np.testing.assert_array_equal(after.s, np.maximum(before.s + d[6:], 1e-4))
        assert np.count_nonzero(out.get(("quadric", 5)).s == 1e-4) == 2


def reference_ordering(values):
    """The solver's column layout, key by key: the lowest-id pose anchored,
    the other poses by id (6 columns each), then the quadrics by id (9)."""
    keys = [("pose", int(i)) for i in values.pose_ids[1:]]
    keys += [("quadric", int(j)) for j in values.quadric_ids]
    index, offset = {}, 0
    for key in keys:
        dim = 6 if key[0] == "pose" else 9
        index[key] = (offset, dim)
        offset += dim
    return index, offset


def reference_linearize(factors, values, index, n):
    """The per-factor loop: each factor's own jacobian_at, block by block."""
    H = np.zeros((n, n))
    g = np.zeros(n)
    for f in factors:
        keys = variable_keys(f)
        out = f.jacobian_at(*[values.get(k) for k in keys])
        if out is None:
            continue
        r, blocks = out
        w = noise_oracle.sqrt_weight(noise_of(f), r)
        wr = w * noise_oracle.whiten(noise_of(f), r)
        wJ = [w * noise_oracle.whiten(noise_of(f), J) for J in blocks]
        for a, ka in enumerate(keys):
            if ka not in index:
                continue
            ia, da = index[ka]
            g[ia : ia + da] += wJ[a].T @ wr
            for b in range(a, len(keys)):
                kb = keys[b]
                if kb not in index:
                    continue
                ib, db = index[kb]
                Hab = wJ[a].T @ wJ[b]
                H[ia : ia + da, ib : ib + db] += Hab
                if b != a:
                    H[ib : ib + db, ia : ia + da] += Hab.T
    return H, g


def reference_cost_breakdown(factors, values):
    """The per-factor walk: residual_at and the scalar robust cost. Returns
    the cost per kind and which factors were scored, in the factors' order."""
    out, active = {}, []
    for f in factors:
        r = f.residual_at(*[values.get(k) for k in variable_keys(f)])
        active.append(r is not None)
        if r is not None:
            out[f.kind] = out.get(f.kind, 0.0) + noise_oracle.cost(noise_of(f), r)
    return out, np.array(active)


def mixed_factors(camera):
    """Anchored pose, 77 bbox factors, an invalid and a Huber-clipped bbox
    factor and non-robust priors, and their values."""
    rng = np.random.default_rng(71)
    poses = looking_at_poses() + [
        Pose.from_rotvec(np.array([0.0, np.pi, 0.0]), np.zeros(3))  # looks away
    ]
    grid = [
        Quadric(Rotation.from_euler("XYZ", rng.normal(0.0, 0.2, size=3)).as_matrix(),
                np.array([x, y, 3.0 + 0.1 * x]), rng.uniform(0.05, 0.15, size=3))
        for x in np.linspace(-0.6, 0.6, 5)
        for y in np.linspace(-0.4, 0.4, 5)
    ]
    values = values_of(dict(enumerate(poses)), dict(enumerate(grid)))
    fs: list[Factor] = []
    odom_noise = NoiseModel(np.array([1e-4] * 3 + [4e-4] * 3))
    for i in range(len(poses) - 1):
        u = between(poses[i], poses[i + 1]).retract(rng.normal(0.0, 0.01, size=6))
        fs.append(odometry_factor(i, i + 1, u, odom_noise))
    bbox_noise = NoiseModel.isotropic(4, 2.0, huber=2.0)
    for i, x in enumerate(poses[:3]):
        for j, q in enumerate(grid):
            box = predict_bbox(x, camera, q).as_array() + rng.normal(0.0, 1.0, size=4)
            fs.append(bbox_factor(i, j, BoundingBox2D(*box), camera, bbox_noise, (640.0, 480.0)))
    clipped = predict_bbox(poses[2], camera, grid[3]).as_array() + 40.0
    fs.append(bbox_factor(2, 3, BoundingBox2D(*clipped), camera, bbox_noise))
    fs.append(bbox_factor(3, 5, BoundingBox2D(100, 100, 140, 150), camera, bbox_noise))
    for j, q in list(enumerate(grid))[::4]:
        fs.append(size_prior_factor(j, np.sort(q.s) * 1.1, NoiseModel.isotropic(3, 0.05)))
        fs.append(orientation_prior_factor(j, NoiseModel.isotropic(2, 0.2)))
        fs.append(centroid_prior_factor(j, q.t + 0.05, NoiseModel.isotropic(3, 0.1)))
    return fs, values


def mixed_graph(camera):
    """The graph of ``mixed_factors``, and their values."""
    fs, values = mixed_factors(camera)
    return graph_of(fs), values


class TestBatchedLinearization:
    """The production linearization and cost against the per-factor loops."""

    RTOL, ATOL = 1e-5, 1e-6

    def test_graph_covers_the_cases(self, camera):
        fs, values = mixed_factors(camera)
        bbox = [f for f in fs if f.kind == "bbox"]
        assert len(bbox) > 64
        scored = [f.residual_at(*[values.get(k) for k in variable_keys(f)]) for f in bbox]
        assert any(r is None for r in scored)
        assert any(
            r is not None and noise_oracle.sqrt_weight(noise_of(f), r) < 1.0
            for f, r in zip(bbox, scored)
        )

    def test_normal_equations_match_reference(self, camera):
        fs, values = mixed_factors(camera)
        index, n = reference_ordering(values)
        H, g = linearize(graph_of(fs), values)
        H_ref, g_ref = reference_linearize(fs, values, index, n)
        np.testing.assert_allclose(H, H_ref, rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose(g, g_ref, rtol=self.RTOL, atol=self.ATOL)

    def test_breakdown_matches_reference(self, camera):
        fs, values = mixed_factors(camera)
        point = cost_breakdown(graph_of(fs), values)
        breakdown, active = point.breakdown, point.active[batch_rows(fs)]
        expected, expected_active = reference_cost_breakdown(fs, values)
        assert list(breakdown) == list(expected)
        for kind, cost in expected.items():
            assert breakdown[kind] == pytest.approx(cost, rel=self.RTOL, abs=self.ATOL)
        np.testing.assert_array_equal(active, expected_active)

    def test_linearizes_exactly_the_scored_factors(self, camera):
        # mixed_graph, and a landmark whose near side sits 5e-7 m in front of
        # camera 0's plane: its projection is valid, a 1e-6 step in depth is
        # not.
        fs, values = mixed_factors(camera)
        values.append(("quadric", 99), Quadric(np.eye(3), np.array([1.0, 1.0, 0.1 + 5e-7]),
                                            np.full(3, 0.1)))
        fs.append(bbox_factor(0, 99, BoundingBox2D(100, 100, 140, 150), camera,
                             NoiseModel.isotropic(4, 2.0, huber=2.0)))
        active = cost_breakdown(graph_of(fs), values).active[batch_rows(fs)]
        bbox = [i for i, f in enumerate(fs) if f.kind == "bbox"]
        kept = [linearize(graph_of([fs[i]]), values)[0].any() for i in bbox]
        np.testing.assert_array_equal(kept, active[bbox])
        assert active[-1] and not active[bbox].all()

    def test_solve_report_breakdown_matches_reference(self, camera):
        fs, values = mixed_factors(camera)
        solved, report = solve_batch(graph_of(fs), values, SolverConfig(max_iterations=3))
        expected, _ = reference_cost_breakdown(fs, solved)
        assert report.breakdown == pytest.approx(expected, rel=self.RTOL, abs=self.ATOL)

    def test_only_bbox_factor_invalid(self, camera):
        # The landmark sits behind the only camera: its bbox factor is
        # skipped and the centroid prior alone moves it.
        q0 = Quadric(np.eye(3), np.array([0.0, 0.0, -2.0]), np.full(3, 0.1))
        target = np.array([0.1, 0.0, -2.5])
        fs = [
            bbox_factor(0, 0, BoundingBox2D(300, 220, 340, 260), camera,
                       NoiseModel.isotropic(4, 2.0)),
            centroid_prior_factor(0, target, NoiseModel.isotropic(3, 0.1)),
        ]
        graph = graph_of(fs)
        values = values_of(poses={0: Pose.identity()}, quadrics={0: q0})
        index, n = reference_ordering(values)
        H, g = linearize(graph, values)
        H_ref, g_ref = reference_linearize(fs, values, index, n)
        np.testing.assert_allclose(H, H_ref, rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose(g, g_ref, rtol=self.RTOL, atol=self.ATOL)
        solved, report = solve_batch(graph, values)
        np.testing.assert_allclose(solved.get(("quadric", 0)).t, target, atol=1e-6)
        assert "bbox" not in report.breakdown

    def test_trailing_block_all_invalid(self, camera):
        # 64 valid bbox factors, then last a factor of a camera that looks
        # away from its landmark.
        poses = looking_at_poses() + [
            Pose.from_rotvec(np.array([0.0, np.pi, 0.0]), np.zeros(3))
        ]
        n_quadrics = 22
        quadrics = {
            j: Quadric(np.eye(3), np.array([0.05 * j - 0.5, 0.0, 3.0]), np.full(3, 0.1))
            for j in range(n_quadrics)
        }
        values = values_of(dict(enumerate(poses)), quadrics)
        fs: list[Factor] = []
        noise = NoiseModel.isotropic(4, 2.0, huber=2.0)
        pairs = [(i, j) for j in quadrics for i in range(3)][:64]
        for i, j in pairs:
            box = predict_bbox(poses[i], camera, quadrics[j]).as_array() + 1.0
            fs.append(bbox_factor(i, j, BoundingBox2D(*box), camera, noise))
        fs.append(bbox_factor(3, 0, BoundingBox2D(300, 220, 340, 260), camera, noise))
        assert fs[-1].residual_at(poses[3], quadrics[0]) is None
        index, n = reference_ordering(values)
        H, g = linearize(graph_of(fs), values)
        H_ref, g_ref = reference_linearize(fs, values, index, n)
        np.testing.assert_allclose(H, H_ref, rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose(g, g_ref, rtol=self.RTOL, atol=self.ATOL)


def assert_batches_equal(got, want):
    """Exact equality of two ``FactorGraph.batches`` lists, array by array."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b) and a.variables == b.variables
        assert len(a.inputs) == len(b.inputs)
        pairs = [(a.ids, b.ids), (a.sqrt_info, b.sqrt_info),
                 (a.huber, b.huber), *zip(a.inputs, b.inputs)]
        for x, y in pairs:
            if isinstance(y, np.ndarray):
                np.testing.assert_array_equal(x, y, strict=True)
            else:
                assert x == y


class TestGraphStructure:
    def test_appended_batches_equal_a_restack(self, camera):
        # mixed_graph's factors with the kinds interleaved, and every third
        # bbox factor seen by a second camera: two bbox batches.
        other = CameraIntrinsics(fx=400.0, fy=420.0, cx=300.0, cy=200.0)
        source, _ = mixed_factors(camera)
        order = np.random.default_rng(5).permutation(len(source))
        bbox_seen = 0
        graph, added = FactorGraph(), []
        for i in order:
            f = source[i]
            if f.kind == "bbox":
                bbox_seen += 1
                if bbox_seen % 3 == 0:
                    f = dataclasses.replace(f, inputs=(other, *f.inputs[1:]))
            graph.add(f)
            added.append(f)
            assert_batches_equal(graph.batches(), graph_of(added).batches())
        cameras = {b.inputs[0] for b in graph.batches() if type(b) is BBoxFactor}
        assert cameras == {camera, other}
        assert len({type(b) for b in graph.batches()}) == 5

    def test_batches_after_several_adds(self, camera):
        source, _ = mixed_factors(camera)
        graph = FactorGraph()
        for chunk in np.array_split(np.arange(len(source)), 7):
            for i in chunk:
                graph.add(source[i])
            assert_batches_equal(graph.batches(), graph_of(source[:chunk[-1] + 1]).batches())
        assert graph.batches() is graph.batches()

    def test_batched_factors_are_let_go(self, camera):
        # The graph holds a factor from add until batches() stacks it; len
        # and counts_by_kind count it either way, without batching it.
        graph = FactorGraph()
        f = bbox_factor(0, 0, BoundingBox2D(300, 220, 340, 260), camera,
                       NoiseModel.isotropic(4, 2.0))
        ref = weakref.ref(f)
        graph.add(f)
        del f
        assert sum(graph.counts_by_kind().values()) == 1 and graph.counts_by_kind() == {"bbox": 1}
        assert ref() is not None
        (batch,) = graph.batches()
        assert ref() is None
        assert sum(graph.counts_by_kind().values()) == 1 and graph.counts_by_kind() == {"bbox": 1}
        np.testing.assert_array_equal(batch.inputs[1], [[300.0, 220.0, 340.0, 260.0]])

    def test_rows_name_the_first_missing_id(self, rng):
        values = values_of(
            {2: random_pose(rng), 5: random_pose(rng), 9: random_pose(rng)},
            {4: random_quadric(rng), 7: random_quadric(rng)},
        )
        cases = [
            ("pose", [5, 1, 0], 1),  # below the smallest
            ("pose", [2, 3, 4], 3),  # between two
            ("pose", [9, 12, 0], 12),  # above the largest
            ("quadric", [7, 5, 4], 5),  # a pose id, not a quadric's
            ("quadric", [4, 8], 8),
        ]
        for kind, ids, missing in cases:
            with pytest.raises(MissingVariable, match=f"^'{kind} {missing} not present"):
                values.rows(kind, np.array(ids))
        for kind in ("pose", "quadric"):
            with pytest.raises(MissingVariable, match=f"^'{kind} 3 not present"):
                GraphValues().rows(kind, np.array([3, 0]))

    def test_quadric_rows_follow_the_poses(self, rng):
        values = values_of(
            {9: random_pose(rng), 2: random_pose(rng), 5: random_pose(rng)},
            {7: random_quadric(rng), 4: random_quadric(rng)},
        )
        np.testing.assert_array_equal(values.rows("pose", np.array([9, 2, 5, 2])), [2, 0, 1, 0])
        np.testing.assert_array_equal(values.rows("quadric", np.array([7, 4, 7])), [4, 3, 4])
        assert values.rows("quadric", np.empty(0, dtype=np.int64)).shape == (0,)

    def test_append_refuses_an_id_not_above_its_kinds_last(self, rng):
        x, q = random_pose(rng), random_quadric(rng)
        values = values_of({2: random_pose(rng), 5: x}, {4: q})
        for kind, idx in [("pose", 5), ("pose", 3), ("quadric", 4), ("quadric", 1)]:
            new = random_pose(rng) if kind == "pose" else random_quadric(rng)
            with pytest.raises(ValueError, match=f"^{kind} id {idx} is not above the last"):
                values.append((kind, idx), new)
        assert values.pose_ids.tolist() == [2, 5] and values.quadric_ids.tolist() == [4]
        assert len(values.R) == len(values.t) == 3 and len(values.s) == 1
        # A pose appended after the quadrics still takes its row before theirs.
        x6, q5 = random_pose(rng), random_quadric(rng)
        values.append(("pose", 6), x6)
        values.append(("quadric", 5), q5)
        np.testing.assert_array_equal(values.rows("pose", np.array([2, 5, 6])), [0, 1, 2])
        np.testing.assert_array_equal(values.rows("quadric", np.array([4, 5])), [3, 4])
        expected = [(("pose", 5), x), (("pose", 6), x6), (("quadric", 4), q), (("quadric", 5), q5)]
        for key, want in expected:
            got = values.get(key)
            np.testing.assert_array_equal(got.rotation, want.rotation)
            if key[0] == "pose":
                np.testing.assert_array_equal(got.translation, want.translation)
            else:
                np.testing.assert_array_equal(got.t, want.t)
                np.testing.assert_array_equal(got.s, want.s)


class TestScoredOnce:
    """The solver scores each point once, without derivatives, and
    differentiates only the points it builds H, g at, from what their
    scoring kept."""

    def test_each_point_is_projected_once(self, camera, monkeypatch):
        graph, values = mixed_graph(camera)
        assert sum(type(b) is BBoxFactor for b in graph.batches()) == 1
        calls: Counter = Counter()

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(BBoxFactor, "jacobians",
                            staticmethod(counting(factors.bbox_jacobians, "jacobians")))
        monkeypatch.setattr(factors, "project_bbox_batch",
                            counting(factors.project_bbox_batch, "project"))
        monkeypatch.setattr(optimizer, "cost_breakdown",
                            counting(optimizer.cost_breakdown, "cost_breakdown"))
        monkeypatch.setattr(optimizer, "_normal_equations",
                            counting(optimizer._normal_equations, "builds"))
        cfg = SolverConfig()
        _, report = solve_incremental(graph, values, cfg)
        # The solve spends its budget: the trials of its last step are
        # scored after the last build and never differentiated.
        assert report.iterations == cfg.incremental_iters_per_keyframe
        assert calls["project"] == calls["cost_breakdown"] > calls["builds"]
        assert calls["jacobians"] == calls["builds"] == report.iterations

    def test_rejected_trials_take_no_derivatives(self, camera, monkeypatch):
        # mixed_graph's batch solve of 4 steps rejects trials. Every kind's
        # derivative pass runs once per build, on the Scored passes of the
        # point H, g are built at, and never on a trial that was rejected.
        graph, values = mixed_graph(camera)
        points, built, differentiated = [], [], []

        def scoring(*args, **kwargs):
            points.append(cost_breakdown(*args, **kwargs))
            return points[-1]

        def building(workspace, point):
            built.append(point)
            return normal_equations(workspace, point)

        normal_equations = optimizer._normal_equations
        monkeypatch.setattr(optimizer, "cost_breakdown", scoring)
        monkeypatch.setattr(optimizer, "_normal_equations", building)
        for cls in {type(b) for b in graph.batches()}:
            def derivative(c, scored, *rows, fn=cls.jacobians):
                differentiated.append(scored)
                return fn(c, scored, *rows)

            monkeypatch.setattr(cls, "jacobians", staticmethod(derivative))
        solved, report = solve_batch(graph, values, SolverConfig(max_iterations=4))
        assert report.iterations == len(built) == 4 and built[0] is points[0]
        assert len(graph.batches()) == 5
        assert len(differentiated) == len(built) * len(graph.batches())

        def passes(ps):
            return {id(scored) for p in ps for _, scored, _, _ in p.kept}

        assert {id(scored) for scored in differentiated} == passes(built)
        # The trials neither built at nor returned: the rejected ones.
        rejected = [p for p in points if p.values is not solved and not any(p is b for b in built)]
        assert len(rejected) > 0
        assert passes(rejected).isdisjoint(id(scored) for scored in differentiated)

    def test_solver_normal_equations_are_the_linearization(self, camera, monkeypatch):
        # The point after k accepted steps is solve_batch's estimate with a
        # budget of k; the solver's k-th H, g (from 0) must be linearize's
        # there, bit for bit. mixed_graph's factor of camera 3, which looks
        # away, stays invalid: without it H, g are the same bits.
        fs, values = mixed_factors(camera)
        graph = graph_of(fs)
        invalid = next(i for i, f in enumerate(fs) if f.kind == "bbox" and f.ids[0, 0] == 3)
        without = graph_of([f for i, f in enumerate(fs) if i != invalid])
        built: list = []
        scored: Counter = Counter()

        def recording(workspace, point):
            built.append(normal_equations(workspace, point))
            scored["at_last_build"] = scored["points"]
            return built[-1]

        def counting(*args, **kwargs):
            scored["points"] += 1
            return cost_breakdown(*args, **kwargs)

        normal_equations = optimizer._normal_equations
        monkeypatch.setattr(optimizer, "_normal_equations", recording)
        monkeypatch.setattr(optimizer, "cost_breakdown", counting)
        steps = 4
        _, report = solve_batch(graph, values, SolverConfig(max_iterations=steps))
        assert report.iterations == steps and len(built) == steps
        # A trial was rejected before the last build: a scored pass that H, g
        # must not come from.
        assert scored["at_last_build"] > steps
        monkeypatch.undo()
        for k, (H, g) in enumerate(built):
            at = solve_batch(graph, values, SolverConfig(max_iterations=k))[0] if k else values
            active = cost_breakdown(graph, at).active[batch_rows(fs)]
            assert not active[invalid] and active.sum() == sum(graph.counts_by_kind().values()) - 1
            for reference in (linearize(graph, at), linearize(without, at)):
                np.testing.assert_array_equal(H, reference[0], strict=True)
                np.testing.assert_array_equal(g, reference[1], strict=True)


class TestWorkspace:
    """A solve places its batches and buffers once and reuses them; what it
    hands out, H and g, is new on every build."""

    def recorded_solve(self, camera, monkeypatch, steps=4):
        """mixed_graph solved for ``steps`` steps: the _place calls, and per
        build the workspace, H and g and copies of H and g made then."""
        graph, values = mixed_graph(camera)
        places, builds = [], []
        place, normal_equations = optimizer._place, optimizer._normal_equations

        def placing(*args):
            places.append(place(*args))
            return places[-1]

        def recording(workspace, point):
            H, g = normal_equations(workspace, point)
            builds.append((workspace, H, g, H.copy(), g.copy()))
            return H, g

        monkeypatch.setattr(optimizer, "_place", placing)
        monkeypatch.setattr(optimizer, "_normal_equations", recording)
        _, report = solve_batch(graph, values, SolverConfig(max_iterations=steps))
        assert report.iterations == steps and len(builds) == steps
        return places, builds

    def test_a_solve_builds_its_workspace_once(self, camera, monkeypatch):
        places, builds = self.recorded_solve(camera, monkeypatch)
        assert len(places) == 1
        workspace = places[0]
        for ws, *_ in builds:
            assert ws is workspace
            assert ws.JtJ is workspace.JtJ and ws.Jtr is workspace.Jtr
        # Each batch's products are its slice of the one buffer.
        for p in workspace.placed:
            assert p.JtJ.base is workspace.JtJ and p.Jtr.base is workspace.Jtr
        assert sum(p.JtJ.size for p in workspace.placed) == workspace.JtJ.size

    def test_builds_do_not_alias(self, camera, monkeypatch):
        _, builds = self.recorded_solve(camera, monkeypatch)
        for i, (ws, H, g, H_then, g_then) in enumerate(builds):
            np.testing.assert_array_equal(H, H_then, strict=True)
            np.testing.assert_array_equal(g, g_then, strict=True)
            for buffer in (ws.JtJ, ws.Jtr):
                assert not np.shares_memory(H, buffer) and not np.shares_memory(g, buffer)
            for _, H_later, g_later, _, _ in builds[i + 1:]:
                assert not np.shares_memory(H, H_later) and not np.shares_memory(g, g_later)
        # The builds differ, so an overwritten H would have shown.
        assert not np.array_equal(builds[0][1], builds[1][1])

    @staticmethod
    def nan_jacobians_after(monkeypatch, clean: int) -> None:
        """The centroid kind's Jacobians with a NaN row once ``clean`` calls
        have passed."""
        calls = Counter()

        def poisoned(c, scored, q):
            J = factors.centroid_jacobians(c, scored, q)
            calls["jacobians"] += 1
            if calls["jacobians"] > clean:
                J[0, 1] = np.nan
            return J

        monkeypatch.setattr(CentroidPriorFactor, "jacobians", staticmethod(poisoned))

    def test_nan_jacobian_at_the_start_is_singular(self, camera, monkeypatch):
        graph, values = mixed_graph(camera)
        self.nan_jacobians_after(monkeypatch, 0)
        with pytest.raises(SingularSystem):
            solve_batch(graph, values, SolverConfig(max_iterations=4))

    def test_nan_jacobian_after_a_step_ends_the_solve_there(self, camera, monkeypatch):
        # The first accepted trial is differentiated with a NaN row: every
        # step from its H, g fails, and the solve returns that point.
        graph, values = mixed_graph(camera)
        self.nan_jacobians_after(monkeypatch, 1)
        solved, report = solve_batch(graph, values, SolverConfig(max_iterations=4))
        assert report.iterations == 1 and not report.converged
        assert np.isfinite(report.final_cost) and report.final_cost < report.initial_cost
        for a in (solved.R, solved.t, solved.s):
            assert np.all(np.isfinite(a))
