from __future__ import annotations

import numpy as np
import pytest

from objslam.association import AssociationResult
from objslam.dataset import Detection
from objslam.factors import (
    BBoxFactor,
    CentroidPriorFactor,
    NoiseModel,
    OdometryFactor,
    OrientationPriorFactor,
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
    predict_bbox,
    so3_exp,
)
from objslam.optimizer import (
    _BBOX_BLOCK,
    FactorGraph,
    FactorPolicy,
    GraphValues,
    MissingVariable,
    SingularSystem,
    SolverConfig,
    _linearize,
    _ordering,
    add_keyframe,
    cost_breakdown,
    initialize_landmark,
    solve_batch,
    solve_incremental,
    total_cost,
)
from objslam.priors import OrientationClass, PriorRecord, PriorTable

from conftest import random_rotation


def looking_at_poses() -> list[Pose]:
    """Three nearby viewpoints with the quadric at (0, 0, 2) in front."""
    return [
        Pose.identity(),
        Pose.from_rotvec(np.array([0.0, -0.12, 0.0]), np.array([0.25, 0.0, 0.0])),
        Pose.from_rotvec(np.array([0.06, 0.10, 0.02]), np.array([-0.2, 0.1, -0.05])),
    ]


GT_QUADRIC = Quadric(np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.0, 2.0]),
                     np.array([0.2, 0.3, 0.4]))


def three_view_graph(camera, noise_px: float = 0.0, rng=None):
    """Noise-free (or lightly noisy) single-quadric graph with GT priors."""
    poses = looking_at_poses()
    graph = FactorGraph()
    values = GraphValues()
    for i, x in enumerate(poses):
        values.poses[i] = x
    values.quadrics[0] = GT_QUADRIC
    odom_noise = NoiseModel.diagonal(np.array([1e-4] * 3 + [1e-4] * 3))
    bbox_noise = NoiseModel.isotropic(4, 10.0)
    for i in range(2):
        graph.add(OdometryFactor(i, i + 1, between(poses[i], poses[i + 1]), odom_noise))
    for i, x in enumerate(poses):
        box = predict_bbox(x, camera, GT_QUADRIC).as_array()
        if noise_px > 0.0:
            box = box + rng.normal(0.0, noise_px, size=4)
        graph.add(BBoxFactor(i, 0, BoundingBox2D(*box), camera, bbox_noise))
    graph.add(SizePriorFactor(0, np.sort(GT_QUADRIC.s), NoiseModel.isotropic(3, 0.1)))
    graph.add(
        OrientationPriorFactor(
            0, GT_QUADRIC.rotation_matrix(), NoiseModel.isotropic(3, 0.2)
        )
    )
    graph.add(CentroidPriorFactor(0, GT_QUADRIC.t, NoiseModel.isotropic(3, 0.5)))
    return graph, values


def perturbed(values: GraphValues, rng: np.random.Generator) -> GraphValues:
    out = values.copy()
    q = out.quadrics[0]
    delta = np.zeros(9)
    delta[0:3] = rng.normal(0.0, 0.05, size=3)
    delta[3:6] = 0.2 * rng.standard_normal(3) / np.sqrt(3)
    delta[6:9] = rng.normal(0.0, 0.05, size=3)
    out.quadrics[0] = q.retract(delta)
    return out


class TestTotalCost:
    def test_zero_at_ground_truth(self, camera):
        graph, values = three_view_graph(camera)
        assert total_cost(graph, values) == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force_mahalanobis(self, camera, rng):
        graph, values = three_view_graph(camera)
        values = perturbed(values, rng)
        expected = 0.0
        for f in graph:
            r = f.residual_at(*[values.get(k) for k in f.variable_keys()])
            if r is None:
                continue
            expected += float(r @ np.linalg.inv(np.asarray(f.noise.covariance)) @ r)
        assert total_cost(graph, values) == pytest.approx(expected, rel=1e-12)

    def test_doubling_covariance_halves_contribution(self):
        values = GraphValues(quadrics={0: Quadric(np.zeros(3), np.zeros(3), np.ones(3))})
        target = np.array([1.0, 1.0, 2.0])
        g1, g2 = FactorGraph(), FactorGraph()
        g1.add(CentroidPriorFactor(0, target, NoiseModel.isotropic(3, 1.0)))
        g2.add(CentroidPriorFactor(0, target, NoiseModel(2.0 * np.eye(3))))
        assert total_cost(g2, values) == pytest.approx(total_cost(g1, values) / 2.0)

    def test_missing_variable(self):
        graph = FactorGraph()
        graph.add(CentroidPriorFactor(3, np.zeros(3), NoiseModel.isotropic(3, 1.0)))
        with pytest.raises(MissingVariable):
            total_cost(graph, GraphValues())

    def test_breakdown_keys(self, camera):
        graph, values = three_view_graph(camera)
        breakdown = cost_breakdown(graph, values)
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
        np.testing.assert_allclose(q.rotation_matrix(), np.eye(3), atol=1e-12)

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
        R = q.rotation_matrix()
        longest = np.argmax(q.s)
        assert abs(R[:, longest] @ np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0, abs=1e-9)


def det_at(box: BoundingBox2D, label="mug", conf=0.8, depth=2.0) -> Detection:
    return Detection(box, label, conf, center_depth=depth)


def no_matches(n: int) -> AssociationResult:
    return AssociationResult({}, tuple(range(n)), {})


class TestAddKeyframe:
    def test_first_keyframe_counts(self, camera):
        graph, values = FactorGraph(), GraphValues()
        priors = PriorTable()
        priors.add(PriorRecord("mug", 0.1, 0.1, 0.12, OrientationClass.VERTICAL))
        dets = [det_at(BoundingBox2D(300, 220, 340, 260))]
        mapping = add_keyframe(
            graph, values, 0, None, dets, no_matches(1), priors, camera
        )
        assert mapping == {0: 0}
        assert len(values.poses) == 1 and len(values.quadrics) == 1
        assert graph.counts_by_kind() == {
            "bbox": 1, "size_prior": 1, "orientation_prior": 1, "centroid": 1,
        }

    def test_reobservation_adds_only_bbox(self, camera):
        graph, values = FactorGraph(), GraphValues()
        dets = [det_at(BoundingBox2D(300, 220, 340, 260))]
        add_keyframe(graph, values, 0, None, dets, no_matches(1), None, camera)
        before = graph.counts_by_kind()
        mapping = add_keyframe(
            graph, values, 1, Pose.identity(), dets,
            AssociationResult({0: 0}, (), {0: 5.0}), None, camera,
        )
        after = graph.counts_by_kind()
        assert mapping == {0: 0}
        assert after["bbox"] == before["bbox"] + 1
        assert after["odometry"] == 1
        assert len(values.quadrics) == 1

    def test_empty_frame_adds_only_odometry(self, camera):
        graph, values = FactorGraph(), GraphValues()
        add_keyframe(graph, values, 0, None, [], no_matches(0), None, camera)
        assert len(graph) == 0
        u = Pose.from_rotvec(np.array([0.0, 0.01, 0.0]), np.array([0.1, 0.0, 0.0]))
        add_keyframe(graph, values, 1, u, [], no_matches(0), None, camera)
        assert graph.counts_by_kind() == {"odometry": 1}
        np.testing.assert_allclose(
            values.poses[1].matrix(), compose(values.poses[0], u).matrix(), atol=1e-12
        )

    def test_flags_disable_prior_factors(self, camera):
        priors = PriorTable()
        priors.add(PriorRecord("mug", 0.1, 0.1, 0.12, OrientationClass.VERTICAL))
        dets = [det_at(BoundingBox2D(300, 220, 340, 260))]
        policy = FactorPolicy(
            enable_size_prior=False,
            enable_orientation_prior=False,
            enable_centroid_factor=False,
        )
        graph, values = FactorGraph(), GraphValues()
        add_keyframe(graph, values, 0, None, dets, no_matches(1), priors, camera, policy)
        assert graph.counts_by_kind() == {"bbox": 1}

    def test_unknown_label_falls_back_and_flags(self, camera):
        priors = PriorTable()
        dets = [det_at(BoundingBox2D(300, 220, 340, 260), label="gizmo")]
        graph, values = FactorGraph(), GraphValues()
        add_keyframe(graph, values, 0, None, dets, no_matches(1), priors, camera)
        assert "gizmo" in priors.flagged
        assert graph.counts_by_kind()["size_prior"] == 1

    def test_detection_without_depth_is_deferred(self, camera):
        graph, values = FactorGraph(), GraphValues()
        dets = [Detection(BoundingBox2D(300, 220, 340, 260), "mug", 0.8)]
        mapping = add_keyframe(graph, values, 0, None, dets, no_matches(1), None, camera)
        assert mapping == {}
        assert len(values.quadrics) == 0 and len(graph) == 0

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
                graph, values, 0, None, dets, no_matches(2), priors, camera
            )
            results.append((mapping, [f.kind for f in graph],
                            {k: q.t.tolist() for k, q in values.quadrics.items()}))
        assert results[0] == results[1]

    def test_duplicate_pose_id_rejected(self, camera):
        graph, values = FactorGraph(), GraphValues()
        add_keyframe(graph, values, 0, None, [], no_matches(0), None, camera)
        with pytest.raises(ValueError):
            add_keyframe(graph, values, 0, Pose.identity(), [], no_matches(0), None, camera)


class TestSolveBatch:
    def test_recovers_ground_truth(self, camera, rng):
        graph, gt_values = three_view_graph(camera)
        init = perturbed(gt_values, rng)
        solved, report = solve_batch(graph, init)
        assert report.converged
        assert report.final_cost <= report.initial_cost
        assert np.linalg.norm(solved.quadrics[0].t - GT_QUADRIC.t) < 1e-3
        np.testing.assert_allclose(
            np.sort(solved.quadrics[0].s), np.sort(GT_QUADRIC.s), atol=1e-3
        )

    def test_already_optimal_is_a_no_op(self, camera, rng):
        graph, gt_values = three_view_graph(camera)
        solved, _ = solve_batch(graph, perturbed(gt_values, rng))
        again, report = solve_batch(graph, solved)
        assert report.iterations == 0
        assert report.converged
        assert report.final_cost == pytest.approx(report.initial_cost, abs=1e-12)
        np.testing.assert_allclose(
            again.quadrics[0].t, solved.quadrics[0].t, atol=1e-12
        )

    def test_unary_only_converges_to_prior_targets(self, rng):
        target_R = random_rotation(rng)
        target_t = np.array([0.4, -0.3, 1.2])
        target_s = np.array([0.1, 0.2, 0.3])
        graph = FactorGraph()
        graph.add(SizePriorFactor(7, target_s, NoiseModel.isotropic(3, 0.1)))
        graph.add(OrientationPriorFactor(7, target_R, NoiseModel.isotropic(3, 0.1)))
        graph.add(CentroidPriorFactor(7, target_t, NoiseModel.isotropic(3, 0.1)))
        start = Quadric.from_rotation(
            target_R @ so3_exp(np.array([0.05, -0.03, 0.08])),
            target_t + np.array([0.1, 0.05, -0.08]),
            target_s[[1, 0, 2]] * 1.3,
        )
        values = GraphValues(quadrics={7: start})
        solved, report = solve_batch(graph, values)
        q = solved.quadrics[7]
        assert report.converged
        np.testing.assert_allclose(np.sort(q.s), target_s, atol=1e-6)
        np.testing.assert_allclose(q.t, target_t, atol=1e-6)
        np.testing.assert_allclose(q.rotation_matrix(), target_R, atol=1e-6)

    def test_first_pose_stays_anchored(self, camera, rng):
        graph, gt_values = three_view_graph(camera)
        init = perturbed(gt_values, rng)
        anchor = init.poses[0]
        solved, _ = solve_batch(graph, init)
        np.testing.assert_array_equal(solved.poses[0].rotation, anchor.rotation)
        np.testing.assert_array_equal(solved.poses[0].translation, anchor.translation)

    def test_semi_axes_stay_clamped(self):
        graph = FactorGraph()
        tiny = np.full(3, 1e-4)
        graph.add(SizePriorFactor(0, tiny, NoiseModel.isotropic(3, 0.01)))
        values = GraphValues(quadrics={0: Quadric(np.zeros(3), np.zeros(3), np.full(3, 0.3))})
        solved, _ = solve_batch(graph, values)
        assert np.all(solved.quadrics[0].s >= 1e-4 - 1e-15)

    def test_singular_system(self):
        class LyingFactor(SizePriorFactor):
            """Constant-slope Jacobian over a residual that only grows."""

            def residual_at(self, q):
                return np.array([1.0 + np.sqrt(abs(q.t[0]))])

            def jacobian_at(self, q, step=1e-6):
                J = np.zeros((1, 9))
                J[0, 3] = 1.0
                return self.residual_at(q), [J]

        graph = FactorGraph()
        graph.add(LyingFactor(0, np.full(3, 0.1), NoiseModel.isotropic(1, 1.0)))
        values = GraphValues(quadrics={0: Quadric(np.zeros(3), np.zeros(3), np.ones(3))})
        with pytest.raises(SingularSystem):
            solve_batch(graph, values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(convergence_rel_decrease=1.5)
        with pytest.raises(ValueError):
            SolverConfig(damping_up=0.5)


class TestSolveIncremental:
    def test_single_keyframe_matches_batch(self, camera, rng):
        graph = FactorGraph()
        values = GraphValues()
        priors = PriorTable()
        priors.add(PriorRecord("mug", 0.2, 0.25, 0.3, OrientationClass.UNCERTAIN))
        dets = [det_at(BoundingBox2D(290, 210, 350, 270))]
        add_keyframe(graph, values, 0, None, dets, no_matches(1), priors, camera)
        inc, _ = solve_incremental(graph, values)
        bat, _ = solve_batch(graph, values)
        np.testing.assert_allclose(inc.quadrics[0].t, bat.quadrics[0].t, atol=1e-6)
        np.testing.assert_allclose(inc.quadrics[0].s, bat.quadrics[0].s, atol=1e-6)

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

    def test_multi_keyframe_pipeline_matches_batch(self, camera, rng):
        gt_q = Quadric(np.array([0.0, 0.1, -0.1]), np.array([0.0, 0.0, 2.0]),
                       np.array([0.15, 0.2, 0.3]))
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
            for i, x, dets in frames():
                odom = None if i == 0 else between(poses[i - 1], poses[i])
                assoc = (
                    no_matches(1) if i == 0
                    else AssociationResult({0: 0}, (), {0: 5.0})
                )
                add_keyframe(graph, values, i, odom, dets, assoc, priors, camera)
                if solve_each:
                    values, _ = solve_incremental(graph, values)
            return graph, values

        rng_state = rng.bit_generator.state
        graph_inc, values_inc = build(solve_each=True)
        rng.bit_generator.state = rng_state
        graph_bat, values_bat = build(solve_each=False)
        values_bat, _ = solve_batch(graph_bat, values_bat)
        np.testing.assert_allclose(
            values_inc.quadrics[0].t, values_bat.quadrics[0].t, atol=0.05
        )


class TestDeactivation:
    def test_step_behind_camera_is_rejected(self, camera):
        # A tight centroid prior pulls the landmark behind the only camera.
        # The Gauss-Newton step goes straight there, which would make the
        # bbox factor invalid and drop its cost; LM must not accept it.
        q0 = Quadric(np.zeros(3), np.array([0.0, 0.0, 2.0]), np.full(3, 0.1))
        box = predict_bbox(Pose.identity(), camera, q0)
        graph = FactorGraph()
        graph.add(
            BBoxFactor(
                0, 0,
                BoundingBox2D(box.xmin + 5.0, box.ymin, box.xmax + 5.0, box.ymax),
                camera, NoiseModel.isotropic(4, 10.0),
            )
        )
        graph.add(CentroidPriorFactor(0, np.array([0.0, 0.0, -1.0]), NoiseModel.isotropic(3, 0.01)))
        values = GraphValues(poses={0: Pose.identity()}, quadrics={0: q0})
        solved, report = solve_batch(graph, values)
        assert solved.quadrics[0].t[2] > 0.0
        assert "bbox" in report.breakdown
        assert report.final_cost <= report.initial_cost
        active = np.zeros(len(graph), dtype=bool)
        cost_breakdown(graph, solved, active)
        assert active.all()


def reference_linearize(graph, values, index, n, step):
    """The per-factor loop: each factor's own jacobian_at, block by block."""
    H = np.zeros((n, n))
    g = np.zeros(n)
    for f in graph:
        keys = f.variable_keys()
        out = f.jacobian_at(*[values.get(k) for k in keys], step=step)
        if out is None:
            continue
        r, blocks = out
        w = f.noise.robust_sqrt_weight(r)
        wr = w * (f.noise.sqrt_information @ r)
        wJ = [w * (f.noise.sqrt_information @ J) for J in blocks]
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


def reference_cost_breakdown(graph, values):
    """The per-factor walk: residual_at and the scalar robust cost."""
    out, active = {}, []
    for f in graph:
        r = f.residual_at(*[values.get(k) for k in f.variable_keys()])
        active.append(r is not None)
        if r is not None:
            out[f.kind] = out.get(f.kind, 0.0) + f.noise.cost(r)
    return out, np.array(active)


class ScaledBBoxFactor(BBoxFactor):
    """A BBoxFactor subclass with its own jacobian_at: it must be linearized
    through the override, not the batched path of the base class."""

    def jacobian_at(self, x, q, step=1e-6):
        out = super().jacobian_at(x, q, step=step)
        if out is None:
            return None
        r, blocks = out
        return r, [3.0 * J for J in blocks]


def mixed_graph(camera):
    """Anchored pose, more bbox factors than one block, an invalid and a
    Huber-clipped bbox factor, a jacobian_at override and non-robust priors."""
    rng = np.random.default_rng(71)
    poses = looking_at_poses() + [
        Pose.from_rotvec(np.array([0.0, np.pi, 0.0]), np.zeros(3))  # looks away
    ]
    grid = [
        Quadric(rng.normal(0.0, 0.2, size=3), np.array([x, y, 3.0 + 0.1 * x]),
                rng.uniform(0.05, 0.15, size=3))
        for x in np.linspace(-0.6, 0.6, 5)
        for y in np.linspace(-0.4, 0.4, 5)
    ]
    values = GraphValues(dict(enumerate(poses)), dict(enumerate(grid)))
    graph = FactorGraph()
    odom_noise = NoiseModel.diagonal(np.array([1e-4] * 3 + [4e-4] * 3))
    for i in range(len(poses) - 1):
        u = between(poses[i], poses[i + 1]).retract(rng.normal(0.0, 0.01, size=6))
        graph.add(OdometryFactor(i, i + 1, u, odom_noise))
    bbox_noise = NoiseModel.isotropic(4, 2.0, huber_width=4.0)
    for i, x in enumerate(poses[:3]):
        for j, q in values.quadrics.items():
            box = predict_bbox(x, camera, q).as_array() + rng.normal(0.0, 1.0, size=4)
            cls = ScaledBBoxFactor if (i, j) == (1, 7) else BBoxFactor
            graph.add(cls(i, j, BoundingBox2D(*box), camera, bbox_noise, (640.0, 480.0)))
    clipped = predict_bbox(poses[2], camera, grid[3]).as_array() + 40.0
    graph.add(BBoxFactor(2, 3, BoundingBox2D(*clipped), camera, bbox_noise))
    graph.add(BBoxFactor(3, 5, BoundingBox2D(100, 100, 140, 150), camera, bbox_noise))
    for j, q in list(values.quadrics.items())[::4]:
        graph.add(SizePriorFactor(j, np.sort(q.s) * 1.1, NoiseModel.isotropic(3, 0.05)))
        graph.add(OrientationPriorFactor(
            j, q.rotation_matrix() @ so3_exp(rng.normal(0.0, 0.1, size=3)),
            NoiseModel.isotropic(3, 0.2),
        ))
        graph.add(CentroidPriorFactor(j, q.t + 0.05, NoiseModel.isotropic(3, 0.1)))
    return graph, values


class TestBatchedLinearization:
    """The production linearization and cost against the per-factor loops."""

    RTOL, ATOL = 1e-5, 1e-6

    def test_graph_covers_the_cases(self, camera):
        graph, values = mixed_graph(camera)
        bbox = [f for f in graph if type(f) is BBoxFactor]
        assert len(bbox) > _BBOX_BLOCK
        scored = [f.residual_at(*[values.get(k) for k in f.variable_keys()]) for f in bbox]
        assert any(r is None for r in scored)
        assert any(
            r is not None and f.noise.robust_sqrt_weight(r) < 1.0
            for f, r in zip(bbox, scored)
        )

    def test_normal_equations_match_reference(self, camera):
        graph, values = mixed_graph(camera)
        _, index, n = _ordering(values)
        H, g = _linearize(graph, values, index, n, 1e-6)
        H_ref, g_ref = reference_linearize(graph, values, index, n, 1e-6)
        np.testing.assert_allclose(H, H_ref, rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose(g, g_ref, rtol=self.RTOL, atol=self.ATOL)

    def test_breakdown_matches_reference(self, camera):
        graph, values = mixed_graph(camera)
        active = np.zeros(len(graph), dtype=bool)
        breakdown = cost_breakdown(graph, values, active)
        expected, expected_active = reference_cost_breakdown(graph, values)
        assert list(breakdown) == list(expected)
        for kind, cost in expected.items():
            assert breakdown[kind] == pytest.approx(cost, rel=self.RTOL, abs=self.ATOL)
        np.testing.assert_array_equal(active, expected_active)

    def test_solve_report_breakdown_matches_reference(self, camera):
        graph, values = mixed_graph(camera)
        solved, report = solve_batch(graph, values, SolverConfig(max_iterations=3))
        expected, _ = reference_cost_breakdown(graph, solved)
        assert report.breakdown == pytest.approx(expected, rel=self.RTOL, abs=self.ATOL)

    def test_only_bbox_factor_invalid(self, camera):
        # The landmark sits behind the only camera: its bbox factor is
        # skipped and the centroid prior alone moves it.
        q0 = Quadric(np.zeros(3), np.array([0.0, 0.0, -2.0]), np.full(3, 0.1))
        graph = FactorGraph()
        graph.add(BBoxFactor(0, 0, BoundingBox2D(300, 220, 340, 260), camera,
                             NoiseModel.isotropic(4, 2.0)))
        target = np.array([0.1, 0.0, -2.5])
        graph.add(CentroidPriorFactor(0, target, NoiseModel.isotropic(3, 0.1)))
        values = GraphValues(poses={0: Pose.identity()}, quadrics={0: q0})
        _, index, n = _ordering(values)
        H, g = _linearize(graph, values, index, n, 1e-6)
        H_ref, g_ref = reference_linearize(graph, values, index, n, 1e-6)
        np.testing.assert_allclose(H, H_ref, rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose(g, g_ref, rtol=self.RTOL, atol=self.ATOL)
        solved, report = solve_batch(graph, values)
        np.testing.assert_allclose(solved.quadrics[0].t, target, atol=1e-6)
        assert "bbox" not in report.breakdown

    def test_trailing_block_all_invalid(self, camera):
        # One block of valid bbox factors, then a block holding only a
        # factor of a camera that looks away from its landmark.
        poses = looking_at_poses() + [
            Pose.from_rotvec(np.array([0.0, np.pi, 0.0]), np.zeros(3))
        ]
        n_quadrics = -(-_BBOX_BLOCK // 3)
        quadrics = {
            j: Quadric(np.zeros(3), np.array([0.05 * j - 0.5, 0.0, 3.0]), np.full(3, 0.1))
            for j in range(n_quadrics)
        }
        values = GraphValues(dict(enumerate(poses)), quadrics)
        graph = FactorGraph()
        noise = NoiseModel.isotropic(4, 2.0, huber_width=4.0)
        pairs = [(i, j) for j in quadrics for i in range(3)][:_BBOX_BLOCK]
        for i, j in pairs:
            box = predict_bbox(poses[i], camera, quadrics[j]).as_array() + 1.0
            graph.add(BBoxFactor(i, j, BoundingBox2D(*box), camera, noise))
        graph.add(BBoxFactor(3, 0, BoundingBox2D(300, 220, 340, 260), camera, noise))
        assert graph.factors[-1].residual_at(poses[3], quadrics[0]) is None
        _, index, n = _ordering(values)
        H, g = _linearize(graph, values, index, n, 1e-6)
        H_ref, g_ref = reference_linearize(graph, values, index, n, 1e-6)
        np.testing.assert_allclose(H, H_ref, rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose(g, g_ref, rtol=self.RTOL, atol=self.ATOL)
