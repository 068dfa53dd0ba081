from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from objslam.factors import (
    BBoxFactor,
    CentroidPriorFactor,
    NoiseModel,
    NonFiniteResidual,
    OdometryFactor,
    OrientationPriorFactor,
    SizePriorFactor,
    bbox_residual,
    centroid_residual,
    numeric_jacobian,
    odometry_residual,
    orientation_prior_residual,
    size_prior_residual,
)
from objslam.geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    Pose,
    Quadric,
    between,
    compose,
    euler_xyz_to_matrix,
    predict_bbox,
    so3_exp,
)

from conftest import random_pose, random_quadric, random_rotation


def scipy_split_log(err_matrix: np.ndarray) -> np.ndarray:
    """Oracle: rotation log via scipy, translation read off the 4x4 error."""
    w = ScipyRotation.from_matrix(err_matrix[:3, :3]).as_rotvec()
    return np.concatenate([w, err_matrix[:3, 3]])


def frobenius_rel(A: np.ndarray, B: np.ndarray) -> float:
    denom = max(np.linalg.norm(A), np.linalg.norm(B), 1e-12)
    return float(np.linalg.norm(A - B) / denom)


def visible_setup(rng: np.random.Generator, camera: CameraIntrinsics):
    """Random pose and quadric with the quadric well inside the view."""
    x = random_pose(rng, t_scale=0.5)
    q = random_quadric(rng)
    p_world = x.transform(
        np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4), rng.uniform(3.0, 7.0)])
    )
    return x, Quadric(q.theta, p_world, q.s)


class TestOdometryResidual:
    def test_zero_when_consistent(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x_i = random_pose(rng)
            u = random_pose(rng)
            x_j = compose(x_i, u)
            np.testing.assert_allclose(odometry_residual(x_i, x_j, u), np.zeros(6), atol=1e-9)

    def test_pure_translation_example(self):
        x_i = Pose.identity()
        x_j = Pose(np.eye(3), np.array([0.1, 0.0, 0.0]))
        r = odometry_residual(x_i, x_j, Pose.identity())
        np.testing.assert_allclose(r, [0, 0, 0, 0.1, 0, 0], atol=1e-12)

    def test_translation_expressed_in_body_frame(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x_i = random_pose(rng)
            delta = rng.normal(size=3)
            x_j = Pose(x_i.rotation, x_i.translation + delta)
            r = odometry_residual(x_i, x_j, Pose.identity())
            np.testing.assert_allclose(r[:3], np.zeros(3), atol=1e-12)
            np.testing.assert_allclose(r[3:], x_i.rotation.T @ delta, atol=1e-12)

    def test_matches_independent_log_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x_i, x_j, u = random_pose(rng), random_pose(rng), random_pose(rng)
            err = np.linalg.inv(compose(x_i, u).matrix()) @ x_j.matrix()
            np.testing.assert_allclose(
                odometry_residual(x_i, x_j, u), scipy_split_log(err), atol=1e-7
            )

    def test_rotation_norm_symmetric_under_reversal(self):
        # Swapping the pose pair and inverting the measurement conjugates the
        # error pose, which preserves the rotation-log norm exactly.
        rng = np.random.default_rng(11)
        for _ in range(300):
            x_i, x_j, u = random_pose(rng), random_pose(rng), random_pose(rng)
            r_fwd = odometry_residual(x_i, x_j, u)
            r_rev = odometry_residual(x_j, x_i, u.inverse())
            assert abs(np.linalg.norm(r_fwd[:3]) - np.linalg.norm(r_rev[:3])) < 1e-9

    def test_full_norm_symmetric_for_rotation_consistent_measurements(self):
        # When the measured rotation agrees with the relative rotation the
        # reversed problem's error is exactly the inverse error, so the whole
        # 6-vector norm is preserved.
        rng = np.random.default_rng(13)
        for _ in range(300):
            x_i, x_j = random_pose(rng), random_pose(rng)
            u = Pose(between(x_i, x_j).rotation, rng.normal(size=3))
            r_fwd = odometry_residual(x_i, x_j, u)
            r_rev = odometry_residual(x_j, x_i, u.inverse())
            assert abs(np.linalg.norm(r_fwd) - np.linalg.norm(r_rev)) < 1e-9


class TestBBoxResidual:
    def test_subtraction_order(self, camera):
        rng = np.random.default_rng(17)
        x, q = visible_setup(rng, camera)
        predicted = predict_bbox(x, camera, q)
        measured = BoundingBox2D(
            predicted.xmin - 2.0, predicted.ymin - 2.0,
            predicted.xmax + 2.0, predicted.ymax + 2.0,
        )
        r = bbox_residual(x, q, measured, camera)
        np.testing.assert_allclose(r, [-2.0, -2.0, 2.0, 2.0], atol=1e-9)

    def test_zero_at_perfect_prediction(self, camera):
        rng = np.random.default_rng(19)
        for _ in range(50):
            x, q = visible_setup(rng, camera)
            b = predict_bbox(x, camera, q)
            np.testing.assert_allclose(bbox_residual(x, q, b, camera), np.zeros(4), atol=1e-9)

    def test_skipped_behind_camera(self, camera):
        q = Quadric(np.zeros(3), np.array([0.0, 0.0, -4.0]), np.full(3, 0.3))
        b = BoundingBox2D(10, 10, 50, 50)
        assert bbox_residual(Pose.identity(), q, b, camera) is None

    def test_border_components_zeroed(self, camera):
        rng = np.random.default_rng(23)
        x, q = visible_setup(rng, camera)
        predicted = predict_bbox(x, camera, q)
        measured = BoundingBox2D(0.0, predicted.ymin + 1.0, predicted.xmax + 3.0, 480.0)
        r = bbox_residual(x, q, measured, camera, image_size=(640.0, 480.0))
        assert r[0] == 0.0 and r[3] == 0.0
        assert r[1] != 0.0 and r[2] != 0.0


class TestPriorResiduals:
    def test_size_sorted_difference(self):
        q = Quadric(np.zeros(3), np.zeros(3), np.array([0.2, 0.2, 0.2]))
        r = size_prior_residual(q, np.array([0.1, 0.2, 0.3]))
        np.testing.assert_allclose(r, [0.1, 0.0, -0.1], atol=1e-12)

    def test_size_invariant_to_axis_order(self):
        rng = np.random.default_rng(29)
        target = np.array([0.1, 0.2, 0.3])
        s = np.array([0.5, 0.15, 0.3])
        base = size_prior_residual(Quadric(np.zeros(3), np.zeros(3), s), target)
        for perm in ([0, 2, 1], [1, 0, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]):
            r = size_prior_residual(Quadric(np.zeros(3), np.zeros(3), s[perm]), target)
            np.testing.assert_allclose(r, base, atol=1e-12)

    def test_orientation_ten_degrees_about_z(self):
        angle = np.deg2rad(10.0)
        q = Quadric(np.array([0.0, 0.0, angle]), np.zeros(3), np.ones(3))
        r = orientation_prior_residual(q, np.eye(3))
        np.testing.assert_allclose(r, [0.0, 0.0, angle], atol=1e-6)

    def test_orientation_zero_at_target(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            R = random_rotation(rng)
            q = Quadric.from_rotation(R, np.zeros(3), np.ones(3))
            r = orientation_prior_residual(q, R)
            assert np.linalg.norm(r) < 1e-9

    def test_centroid_difference(self):
        q = Quadric(np.zeros(3), np.array([1.0, 2.0, 3.0]), np.ones(3))
        np.testing.assert_allclose(
            centroid_residual(q, np.array([1.0, 1.0, 1.0])), [0.0, 1.0, 2.0]
        )


class TestNumericJacobian:
    def test_linear_function_exact(self):
        # Centroid residual is linear in the centroid block.
        q = Quadric(np.zeros(3), np.array([0.5, -0.2, 1.0]), np.ones(3))
        J = numeric_jacobian(lambda qq: centroid_residual(qq, np.zeros(3)), [q])[0]
        expected = np.hstack([np.zeros((3, 3)), np.eye(3), np.zeros((3, 3))])
        np.testing.assert_allclose(J, expected, atol=1e-8)

    def test_odometry_translation_block_identity_chart(self):
        x_i, x_j = Pose.identity(), Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        u = Pose.identity()
        J_i, J_j = numeric_jacobian(lambda a, b: odometry_residual(a, b, u), [x_i, x_j])
        np.testing.assert_allclose(J_j[3:, 3:], np.eye(3), atol=1e-8)
        np.testing.assert_allclose(J_i[3:, 3:], -np.eye(3), atol=1e-6)

    def test_raises_on_skipped_residual(self, camera):
        q = Quadric(np.zeros(3), np.array([0.0, 0.0, -4.0]), np.full(3, 0.3))
        b = BoundingBox2D(10, 10, 50, 50)
        with pytest.raises(NonFiniteResidual):
            numeric_jacobian(
                lambda qq: bbox_residual(Pose.identity(), qq, b, camera), [q]
            )

    def test_raises_on_non_finite(self):
        q = Quadric(np.zeros(3), np.zeros(3), np.ones(3))
        with pytest.raises(NonFiniteResidual):
            numeric_jacobian(lambda qq: np.array([np.inf, 0.0, 0.0]), [q])


class TestFactorJacobians:
    """Half-step consistency: a correct central-difference Jacobian changes by
    O(step^2), so full-step and half-step evaluations must agree tightly."""

    def test_bbox_fast_path_matches_generic(self, camera):
        rng = np.random.default_rng(37)
        noise = NoiseModel.isotropic(4, 10.0)
        for _ in range(30):
            x, q = visible_setup(rng, camera)
            b = predict_bbox(x, camera, q)
            measured = BoundingBox2D(b.xmin - 1.0, b.ymin + 0.5, b.xmax + 2.0, b.ymax + 1.0)
            factor = BBoxFactor(0, 0, measured, camera, noise)
            r_fast, (Jx_fast, Jq_fast) = factor.jacobian_at(x, q)
            blocks = numeric_jacobian(factor.residual_at, [x, q])
            np.testing.assert_allclose(r_fast, factor.residual_at(x, q), atol=1e-12)
            # Same formula, different rounding path: the generic route round-
            # trips perturbed rotations through Euler storage, so agreement is
            # limited by machine epsilon amplified by the 1/(2 step) division.
            np.testing.assert_allclose(Jx_fast, blocks[0], rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(Jq_fast, blocks[1], rtol=1e-5, atol=1e-6)

    def test_bbox_half_step_consistency(self, camera):
        rng = np.random.default_rng(41)
        noise = NoiseModel.isotropic(4, 10.0)
        for _ in range(20):
            x, q = visible_setup(rng, camera)
            b = predict_bbox(x, camera, q)
            factor = BBoxFactor(0, 0, b, camera, noise)
            _, full = factor.jacobian_at(x, q, step=1e-6)
            _, half = factor.jacobian_at(x, q, step=5e-7)
            assert frobenius_rel(full[0], half[0]) < 1e-4
            assert frobenius_rel(full[1], half[1]) < 1e-4

    def test_all_factor_types_half_step_consistency(self, camera):
        rng = np.random.default_rng(43)
        for _ in range(10):
            x_i, x_j, u = random_pose(rng), random_pose(rng), random_pose(rng)
            odo = OdometryFactor(0, 1, u, NoiseModel.isotropic(6, 0.1))
            r, full = odo.jacobian_at(x_i, x_j)
            _, half = odo.jacobian_at(x_i, x_j, step=5e-7)
            assert frobenius_rel(np.hstack(full), np.hstack(half)) < 1e-4

            q = random_quadric(rng)
            target = np.sort(rng.uniform(0.05, 0.5, size=3))
            size = SizePriorFactor(0, np.array([0.1, 0.2, 0.3]), NoiseModel.isotropic(3, 0.1))
            _, full = size.jacobian_at(q)
            _, half = size.jacobian_at(q, step=5e-7)
            assert frobenius_rel(full[0], half[0]) < 1e-4

            orient = OrientationPriorFactor(0, random_rotation(rng), NoiseModel.isotropic(3, 0.2))
            _, full = orient.jacobian_at(q)
            _, half = orient.jacobian_at(q, step=5e-7)
            assert frobenius_rel(full[0], half[0]) < 1e-4

            cent = CentroidPriorFactor(0, rng.normal(size=3), NoiseModel.isotropic(3, 0.2))
            _, full = cent.jacobian_at(q)
            _, half = cent.jacobian_at(q, step=5e-7)
            assert frobenius_rel(full[0], half[0]) < 1e-4

    def test_bbox_jacobian_skipped_when_projection_invalid(self, camera):
        q = Quadric(np.zeros(3), np.array([0.0, 0.0, -4.0]), np.full(3, 0.3))
        factor = BBoxFactor(0, 0, BoundingBox2D(1, 1, 2, 2), camera, NoiseModel.isotropic(4, 10.0))
        assert factor.jacobian_at(Pose.identity(), q) is None


def oracle_error(factor, variables) -> float:
    """Largest closed-form minus numeric_jacobian entry, relative to the
    largest numeric entry floored at 1 (the measure of criterion 2)."""
    _, got = factor.jacobian_at(*variables)
    want = numeric_jacobian(factor.residual_at, list(variables))
    scale = max(1.0, max(np.abs(w).max() for w in want))
    return max(np.abs(g - w).max() for g, w in zip(got, want)) / scale


class TestClosedFormJacobians:
    """Closed forms against the finite-difference oracle where their series
    and branches switch: the rotation log near angle 0 and near pi."""

    TOL = 1e-4

    @pytest.mark.parametrize("angle", [0.0, 1e-9, 1e-6, 1e-4, np.pi - 1e-2])
    def test_orientation_prior_edges(self, angle):
        # Near pi the oracle itself loses precision (the log's roundoff over
        # the step grows like 1/(pi - angle)); at pi - 1e-2 it is ~1e-6.
        rng = np.random.default_rng(59)
        for _ in range(10):
            q = random_quadric(rng)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            target = q.rotation_matrix() @ so3_exp(angle * axis).T
            factor = OrientationPriorFactor(0, target, NoiseModel.isotropic(3, 0.1))
            r, _ = factor.jacobian_at(q)
            assert np.linalg.norm(r) == pytest.approx(angle, abs=1e-8)
            assert oracle_error(factor, (q,)) < self.TOL

    def test_odometry_at_zero_error(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            x_i, u = random_pose(rng), random_pose(rng)
            factor = OdometryFactor(0, 1, u, NoiseModel.isotropic(6, 0.1))
            x_j = compose(x_i, u)
            r, blocks = factor.jacobian_at(x_i, x_j)
            np.testing.assert_allclose(r, np.zeros(6), atol=1e-9)
            np.testing.assert_allclose(blocks[1][:3, :3], np.eye(3), atol=1e-9)
            assert oracle_error(factor, (x_i, x_j)) < self.TOL

    def test_size_prior_follows_sort(self):
        noise = NoiseModel.isotropic(3, 0.1)
        factor = SizePriorFactor(0, np.array([0.1, 0.2, 0.3]), noise)
        q = Quadric(np.zeros(3), np.zeros(3), np.array([0.5, 0.15, 0.3]))
        r, (J,) = factor.jacobian_at(q)
        np.testing.assert_allclose(r, [0.05, 0.1, 0.2], atol=1e-12)
        expected = np.zeros((3, 9))
        expected[[0, 1, 2], [7, 8, 6]] = 1.0
        np.testing.assert_array_equal(J, expected)
        assert oracle_error(factor, (q,)) < self.TOL

    def test_residual_matches_residual_at(self):
        rng = np.random.default_rng(67)
        x_i, x_j, u = random_pose(rng), random_pose(rng), random_pose(rng)
        odo = OdometryFactor(0, 1, u, NoiseModel.isotropic(6, 0.1))
        np.testing.assert_array_equal(odo.jacobian_at(x_i, x_j)[0], odo.residual_at(x_i, x_j))
        q = random_quadric(rng)
        for factor in (
            SizePriorFactor(0, np.array([0.1, 0.2, 0.3]), NoiseModel.isotropic(3, 0.1)),
            OrientationPriorFactor(0, random_rotation(rng), NoiseModel.isotropic(3, 0.1)),
            CentroidPriorFactor(0, rng.normal(size=3), NoiseModel.isotropic(3, 0.1)),
        ):
            np.testing.assert_array_equal(factor.jacobian_at(q)[0], factor.residual_at(q))


class TestNoiseModel:
    def test_cost_is_mahalanobis(self):
        noise = NoiseModel.diagonal(np.array([4.0, 9.0]))
        r = np.array([2.0, 3.0])
        assert noise.cost(r) == pytest.approx(1.0 + 1.0)

    def test_doubling_covariance_halves_cost(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            var = rng.uniform(0.5, 2.0, size=3)
            r = rng.normal(size=3)
            c1 = NoiseModel.diagonal(var).cost(r)
            c2 = NoiseModel.diagonal(2.0 * var).cost(r)
            assert c2 == pytest.approx(0.5 * c1, rel=1e-12)

    def test_cost_non_negative(self):
        rng = np.random.default_rng(53)
        noise = NoiseModel.isotropic(4, 3.0)
        for _ in range(100):
            assert noise.cost(rng.normal(size=4)) >= 0.0

    def test_huber_linear_tail(self):
        sigma, width = 10.0, 20.0
        noise = NoiseModel.isotropic(4, sigma, huber_width=width)
        small = np.array([1.0, 0.0, 0.0, 0.0])
        assert noise.cost(small) == pytest.approx(0.01)
        big = np.array([100.0, 0.0, 0.0, 0.0])
        # Whitened norm 10, threshold 2: cost = 2*2*10 - 4 = 36.
        assert noise.cost(big) == pytest.approx(36.0)
        assert noise.robust_sqrt_weight(big) == pytest.approx(np.sqrt(2.0 / 10.0))

    def test_huber_requires_isotropic(self):
        with pytest.raises(ValueError):
            NoiseModel.diagonal(np.array([1.0, 2.0]), huber_width=1.0)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            NoiseModel(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_whiten(self):
        noise = NoiseModel.diagonal(np.array([4.0, 25.0]))
        np.testing.assert_allclose(noise.whiten(np.array([2.0, 5.0])), [1.0, 1.0])


class TestFactorValidation:
    def test_size_target_must_be_ascending_positive(self):
        noise = NoiseModel.isotropic(3, 0.1)
        with pytest.raises(ValueError):
            SizePriorFactor(0, np.array([0.3, 0.2, 0.1]), noise)
        with pytest.raises(ValueError):
            SizePriorFactor(0, np.array([-0.1, 0.2, 0.3]), noise)

    def test_orientation_target_must_be_rotation(self):
        noise = NoiseModel.isotropic(3, 0.1)
        with pytest.raises(ValueError):
            OrientationPriorFactor(0, np.ones((3, 3)), noise)

    def test_variable_keys(self):
        noise4 = NoiseModel.isotropic(4, 10.0)
        f = BBoxFactor(3, 7, BoundingBox2D(0, 0, 1, 1), CameraIntrinsics(500, 500, 320, 240), noise4)
        assert f.variable_keys() == (("pose", 3), ("quadric", 7))
        o = OdometryFactor(1, 2, Pose.identity(), NoiseModel.isotropic(6, 0.1))
        assert o.variable_keys() == (("pose", 1), ("pose", 2))
