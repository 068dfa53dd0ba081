from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from objslam.factors import (
    BBoxFactor,
    NoiseModel,
    bbox_jacobians,
    bbox_residuals,
    robust_whiten,
    stack_noises,
)
from objslam.geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    Pose,
    Quadric,
    between,
    compose,
    so3_exp,
)

import noise_oracle
from conftest import random_pose, random_quadric, random_rotation
from helpers import (
    bbox_factor,
    centroid_prior_factor,
    odometry_factor,
    orientation_prior_factor,
    pose_inverse,
    pose_matrix,
    pose_transform,
    size_prior_factor,
)
from jacobian_oracle import NonFiniteResidual, bbox_jacobians_reference, numeric_jacobian
from projection_oracle import predict_bbox, project_quadric


def odometry_residual(x_i: Pose, x_j: Pose, u: Pose) -> np.ndarray:
    return odometry_factor(0, 1, u, NoiseModel.isotropic(6, 1.0)).residual_at(x_i, x_j)


def bbox_residual(x, q, measurement, K, image_size=None) -> np.ndarray | None:
    factor = bbox_factor(0, 0, measurement, K, NoiseModel.isotropic(4, 1.0), image_size)
    return factor.residual_at(x, q)


def size_prior_residual(q: Quadric, target: np.ndarray) -> np.ndarray:
    return size_prior_factor(0, target, NoiseModel.isotropic(3, 1.0)).residual_at(q)


def orientation_prior_residual(q: Quadric) -> np.ndarray:
    return orientation_prior_factor(0, NoiseModel.isotropic(2, 1.0)).residual_at(q)


def centroid_residual(q: Quadric, target: np.ndarray) -> np.ndarray:
    return centroid_prior_factor(0, target, NoiseModel.isotropic(3, 1.0)).residual_at(q)


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
    p_world = pose_transform(
        x, np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4), rng.uniform(3.0, 7.0)])
    )
    return x, Quadric(q.rotation, p_world, q.s)


def stacked_rows(variables) -> list[tuple]:
    """Per variable slot of k factors' variables, their rows stacked: (R, t)
    for poses, (R, t, s) for quadrics."""
    out = []
    for slot in zip(*variables):
        pose = isinstance(slot[0], Pose)
        fields = ("rotation", "translation") if pose else ("rotation", "t", "s")
        out.append(tuple(np.array([getattr(v, a) for v in slot]) for a in fields))
    return out


def assert_bbox_jacobians_equal_reference(bbox: list[BBoxFactor], pairs: list) -> None:
    """``bbox_jacobians`` of these factors at these (pose, quadric) pairs,
    stacked in one batch, is the full-derivative reference bit for bit."""
    x, q = stacked_rows(pairs)
    c = bbox[0].joined(bbox[1:]).inputs
    scored = bbox_residuals(c, x, q)
    got = (scored.r, bbox_jacobians(c, scored, x, q), scored.valid)
    for got, want in zip(got, bbox_jacobians_reference(c, x, q)):
        np.testing.assert_array_equal(got, want, strict=True)


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
            err = np.linalg.inv(pose_matrix(compose(x_i, u))) @ pose_matrix(x_j)
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
            r_rev = odometry_residual(x_j, x_i, pose_inverse(u))
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
            r_rev = odometry_residual(x_j, x_i, pose_inverse(u))
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
        q = Quadric(np.eye(3), np.array([0.0, 0.0, -4.0]), np.full(3, 0.3))
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
        q = Quadric(np.eye(3), np.zeros(3), np.array([0.2, 0.2, 0.2]))
        r = size_prior_residual(q, np.array([0.1, 0.2, 0.3]))
        np.testing.assert_allclose(r, [0.1, 0.0, -0.1], atol=1e-12)

    def test_size_invariant_to_axis_order(self):
        rng = np.random.default_rng(29)
        target = np.array([0.1, 0.2, 0.3])
        s = np.array([0.5, 0.15, 0.3])
        base = size_prior_residual(Quadric(np.eye(3), np.zeros(3), s), target)
        for perm in ([0, 2, 1], [1, 0, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]):
            r = size_prior_residual(Quadric(np.eye(3), np.zeros(3), s[perm]), target)
            np.testing.assert_allclose(r, base, atol=1e-12)

    def test_orientation_ten_degrees_about_z(self):
        # A turn about world z is no tilt: alone it scores zero, and after a
        # tilt about x it leaves that tilt's residual (0, sin 10 deg).
        angle = np.deg2rad(10.0)
        R = ScipyRotation.from_euler("XYZ", [0.0, 0.0, angle]).as_matrix()
        q = Quadric(R, np.zeros(3), np.ones(3))
        r = orientation_prior_residual(q)
        np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-6)
        tilted = ScipyRotation.from_euler("xz", [angle, angle]).as_matrix()
        r = orientation_prior_residual(Quadric(tilted, np.zeros(3), np.ones(3)))
        np.testing.assert_allclose(r, [0.0, np.sin(angle)], atol=1e-12)

    def test_orientation_zero_at_target(self):
        # The target is upright: local z along world z, up or down, at any
        # heading.
        rng = np.random.default_rng(31)
        for _ in range(100):
            R = so3_exp(np.array([0.0, 0.0, rng.uniform(-np.pi, np.pi)]))
            if rng.random() < 0.5:
                R = R @ np.diag([1.0, -1.0, -1.0])
            q = Quadric(R, np.zeros(3), np.ones(3))
            r = orientation_prior_residual(q)
            assert np.linalg.norm(r) < 1e-9

    def test_centroid_difference(self):
        q = Quadric(np.eye(3), np.array([1.0, 2.0, 3.0]), np.ones(3))
        np.testing.assert_allclose(
            centroid_residual(q, np.array([1.0, 1.0, 1.0])), [0.0, 1.0, 2.0]
        )


class TestNumericJacobian:
    def test_linear_function_exact(self):
        # Centroid residual is linear in the centroid block.
        q = Quadric(np.eye(3), np.array([0.5, -0.2, 1.0]), np.ones(3))
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
        q = Quadric(np.eye(3), np.array([0.0, 0.0, -4.0]), np.full(3, 0.3))
        b = BoundingBox2D(10, 10, 50, 50)
        with pytest.raises(NonFiniteResidual):
            numeric_jacobian(
                lambda qq: bbox_residual(Pose.identity(), qq, b, camera), [q]
            )

    def test_raises_on_non_finite(self):
        q = Quadric(np.eye(3), np.zeros(3), np.ones(3))
        with pytest.raises(NonFiniteResidual):
            numeric_jacobian(lambda qq: np.array([np.inf, 0.0, 0.0]), [q])


class TestFactorJacobians:
    """The bbox closed form against the central-difference oracle, and the
    oracle's own half-step consistency: a correct central difference changes
    by O(step^2), so full-step and half-step evaluations must agree tightly."""

    def test_bbox_fast_path_matches_generic(self, camera):
        rng = np.random.default_rng(37)
        noise = NoiseModel.isotropic(4, 10.0)
        for _ in range(30):
            x, q = visible_setup(rng, camera)
            b = predict_bbox(x, camera, q)
            measured = BoundingBox2D(b.xmin - 1.0, b.ymin + 0.5, b.xmax + 2.0, b.ymax + 1.0)
            factor = bbox_factor(0, 0, measured, camera, noise)
            r_fast, (Jx_fast, Jq_fast) = factor.jacobian_at(x, q)
            blocks = numeric_jacobian(factor.residual_at, [x, q])
            np.testing.assert_allclose(r_fast, factor.residual_at(x, q), atol=1e-12)
            # Closed form against central differences: agreement is limited by
            # the O(step^2) truncation and by roundoff over 2 step.
            np.testing.assert_allclose(Jx_fast, blocks[0], rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(Jq_fast, blocks[1], rtol=1e-5, atol=1e-6)

    def test_bbox_closed_form_on_hard_rows(self, camera):
        # Each case is one camera and one ellipsoid in its frame, all turned
        # by one random rotation: (centroid, semi-axes, tilt of the axes,
        # measured box, image size).
        rng = np.random.default_rng(83)
        R0, t0 = random_rotation(rng), rng.normal(size=3)
        x = Pose(R0, t0)
        box, border = (1.0, 2.0, 30.0, 40.0), (0.0, 20.0, 300.0, 480.0)
        cases = {
            "close": ([0.1, -0.05, 0.5], [0.2, 0.15, 0.3], 0.05, box, None),
            # u's discriminant 6e-3 of its terms, which nearly cancel: the
            # ellipsoid is seen far off the optical axis.
            "small discriminant": ([5.0, 0.4, 3.0], [0.2, 0.15, 0.3], 0.0, box, None),
            "axis at the floor": ([0.2, -0.1, 2.0], [1.5e-4, 0.12, 0.2], 0.3, box, None),
            "axes at the floor": ([0.2, -0.1, 2.0], [1.5e-4, 1.5e-4, 2e-4], 0.3, box, None),
            "border": ([0.1, 0.05, 2.0], [0.2, 0.15, 0.3], 0.3, border, (640.0, 480.0)),
        }
        # Ellipsoids that straddle the camera's principal plane (C22 > 0):
        # their conics are no ellipses, so the factors are skipped.
        for c in ([0.5, 0.4, 0.1], [0.1887, 0.4, 0.1]):
            q = Quadric(R0, R0 @ np.array(c) + t0, np.array([0.2, 0.15, 0.3]))
            factor = bbox_factor(0, 0, BoundingBox2D(*box), camera, NoiseModel.isotropic(4, 1.0))
            assert project_quadric(x, camera, q).matrix[2, 2] > 0.0
            assert factor.jacobian_at(x, q) is None
        hard = []
        for name, (c, s, tilt, measured, image_size) in cases.items():
            q = Quadric(R0 @ so3_exp(rng.normal(0.0, tilt, size=3)), R0 @ np.array(c) + t0, s)
            factor = bbox_factor(
                0, 0, BoundingBox2D(*measured), camera, NoiseModel.isotropic(4, 1.0), image_size
            )
            hard.append((factor, (x, q)))
            C = project_quadric(x, camera, q).matrix
            assert C[2, 2] < 0.0, name
            if name == "small discriminant":
                disc = C[0, 2] ** 2 - C[0, 0] * C[2, 2]
                assert 0.0 < disc < 1e-2 * (C[0, 2] ** 2 + abs(C[0, 0] * C[2, 2]))
            assert oracle_error(factor, (x, q)) < 1e-4, name
            if image_size is not None:
                # xmin and ymax touch the border: exactly zero rows.
                J = np.hstack(factor.jacobian_at(x, q)[1])
                np.testing.assert_array_equal(J[[0, 3]], 0.0)
                assert np.abs(J[[1, 2]]).max(axis=1).min() > 0.0
        assert_bbox_jacobians_equal_reference(*map(list, zip(*hard)))

    def test_bbox_jacobians_equal_the_reference_on_a_random_batch(self, camera):
        # 300 rows in one batch: centroids from 1 m behind to 6 m in front of
        # their cameras, boxes that touch the border of a 640 x 480 image on
        # about a fifth of their sides, half of them with that image size.
        rng = np.random.default_rng(89)
        noise = NoiseModel.isotropic(4, 2.0)
        bbox, pairs = [], []
        for i in range(300):
            x = random_pose(rng, t_scale=0.5)
            c = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 6.0)])
            q = Quadric(random_rotation(rng), pose_transform(x, c), rng.uniform(0.05, 0.6, size=3))
            lo = rng.uniform(0.0, 250.0, size=2) * (rng.random(2) > 0.2)
            hi = np.minimum(lo + rng.uniform(10.0, 400.0, size=2), [640.0, 480.0])
            image_size = (640.0, 480.0) if i % 2 else None
            bbox.append(bbox_factor(0, i, BoundingBox2D(*lo, *hi), camera, noise, image_size))
            pairs.append((x, q))
        keep = bbox[0].joined(bbox[1:]).inputs[2]
        assert 0 < keep.sum() < keep.size
        valid = [f.residual_at(*v) is not None for f, v in zip(bbox, pairs)]
        assert 0 < sum(valid) < len(valid)
        assert_bbox_jacobians_equal_reference(bbox, pairs)

    def test_all_factor_types_half_step_consistency(self, camera):
        # The numeric oracle the closed forms are checked against.
        rng = np.random.default_rng(43)
        for _ in range(10):
            x_i, x_j, u = random_pose(rng), random_pose(rng), random_pose(rng)
            q = random_quadric(rng)
            odo = odometry_factor(0, 1, u, NoiseModel.isotropic(6, 0.1))
            size = size_prior_factor(0, np.array([0.1, 0.2, 0.3]), NoiseModel.isotropic(3, 0.1))
            orient = orientation_prior_factor(0, NoiseModel.isotropic(2, 0.2))
            cent = centroid_prior_factor(0, rng.normal(size=3), NoiseModel.isotropic(3, 0.2))
            for factor, variables in [(odo, [x_i, x_j]), (size, [q]), (orient, [q]), (cent, [q])]:
                full = numeric_jacobian(factor.residual_at, variables, step=1e-6)
                half = numeric_jacobian(factor.residual_at, variables, step=5e-7)
                assert frobenius_rel(np.hstack(full), np.hstack(half)) < 1e-4

    def test_bbox_jacobian_skipped_when_projection_invalid(self, camera):
        q = Quadric(np.eye(3), np.array([0.0, 0.0, -4.0]), np.full(3, 0.3))
        factor = bbox_factor(0, 0, BoundingBox2D(1, 1, 2, 2), camera, NoiseModel.isotropic(4, 10.0))
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
    and branches switch (the rotation log near angle 0), and across the
    orientation prior's range of tilt."""

    TOL = 1e-4

    @pytest.mark.parametrize("tilt", [0.0, 1e-9, 1e-6, 1e-4, np.pi / 2, np.pi - 1e-2])
    def test_orientation_prior_edges(self, tilt):
        # Upright, barely tilted, lying and nearly upside down, at a random
        # heading: local z is `tilt` from world z, so the residual's norm is
        # sin(tilt).
        rng = np.random.default_rng(59)
        factor = orientation_prior_factor(0, NoiseModel.isotropic(2, 0.1))
        for _ in range(10):
            axis = np.array([*rng.normal(size=2), 0.0])
            axis /= np.linalg.norm(axis)
            heading = so3_exp(np.array([0.0, 0.0, rng.uniform(-np.pi, np.pi)]))
            q = random_quadric(rng)
            q = Quadric(so3_exp(tilt * axis) @ heading, q.t, q.s)
            r, _ = factor.jacobian_at(q)
            assert np.linalg.norm(r) == pytest.approx(np.sin(tilt), abs=1e-12)
            assert oracle_error(factor, (q,)) < self.TOL

    def test_odometry_at_zero_error(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            x_i, u = random_pose(rng), random_pose(rng)
            factor = odometry_factor(0, 1, u, NoiseModel.isotropic(6, 0.1))
            x_j = compose(x_i, u)
            r, blocks = factor.jacobian_at(x_i, x_j)
            np.testing.assert_allclose(r, np.zeros(6), atol=1e-9)
            np.testing.assert_allclose(blocks[1][:3, :3], np.eye(3), atol=1e-9)
            assert oracle_error(factor, (x_i, x_j)) < self.TOL

    def test_size_prior_follows_sort(self):
        noise = NoiseModel.isotropic(3, 0.1)
        factor = size_prior_factor(0, np.array([0.1, 0.2, 0.3]), noise)
        q = Quadric(np.eye(3), np.zeros(3), np.array([0.5, 0.15, 0.3]))
        r, (J,) = factor.jacobian_at(q)
        np.testing.assert_allclose(r, [0.05, 0.1, 0.2], atol=1e-12)
        expected = np.zeros((3, 9))
        expected[[0, 1, 2], [7, 8, 6]] = 1.0
        np.testing.assert_array_equal(J, expected)
        assert oracle_error(factor, (q,)) < self.TOL

    def test_residual_matches_residual_at(self):
        rng = np.random.default_rng(67)
        x_i, x_j, u = random_pose(rng), random_pose(rng), random_pose(rng)
        odo = odometry_factor(0, 1, u, NoiseModel.isotropic(6, 0.1))
        np.testing.assert_array_equal(odo.jacobian_at(x_i, x_j)[0], odo.residual_at(x_i, x_j))
        q = random_quadric(rng)
        for factor in (
            size_prior_factor(0, np.array([0.1, 0.2, 0.3]), NoiseModel.isotropic(3, 0.1)),
            orientation_prior_factor(0, NoiseModel.isotropic(2, 0.1)),
            centroid_prior_factor(0, rng.normal(size=3), NoiseModel.isotropic(3, 0.1)),
        ):
            np.testing.assert_array_equal(factor.jacobian_at(q)[0], factor.residual_at(q))


class TestDerivativePass:
    """Each kind's derivative pass from what its scoring pass kept: the
    oracle's Jacobian, and bit for bit the Jacobian of a fresh scoring of the
    same values, although other values were scored in between."""

    TOL = 1e-4

    def cases(self, camera):
        """Per kind, five factors and their variables; the last bbox factor's
        landmark is behind its camera."""
        rng = np.random.default_rng(101)
        noise = {d: NoiseModel.isotropic(d, 0.1) for d in (2, 3, 4, 6)}
        odometry, bbox, size, orientation, centroid = [], [], [], [], []
        for i in range(5):
            x_i, u = random_pose(rng), random_pose(rng)
            x_j = compose(x_i, u).retract(rng.normal(0.0, 0.2, size=6))
            odometry.append((odometry_factor(0, 1, u, noise[6]), (x_i, x_j)))
            x, q = visible_setup(rng, camera)
            if i == 4:
                q = Quadric(q.rotation, pose_transform(x, np.array([0.0, 0.0, -3.0])), q.s)
            b = predict_bbox(x, camera, q) if i < 4 else BoundingBox2D(1, 1, 20, 20)
            measured = BoundingBox2D(b.xmin - 1.0, b.ymin + 0.5, b.xmax + 2.0, b.ymax + 1.0)
            bbox.append((bbox_factor(0, 0, measured, camera, noise[4]), (x, q)))
            # Semi-axes at least 0.05 apart: the sort has no tie to cross.
            s = np.array([0.1, 0.3, 0.2]) + 0.1 * i
            q = Quadric(random_rotation(rng), rng.normal(size=3), s)
            size.append((size_prior_factor(0, np.array([0.1, 0.2, 0.3]), noise[3]), (q,)))
            orientation.append((orientation_prior_factor(0, noise[2]), (q,)))
            centroid.append((centroid_prior_factor(0, rng.normal(size=3), noise[3]), (q,)))
        return [odometry, bbox, size, orientation, centroid], rng

    def test_kept_pass_gives_the_oracle_jacobian(self, camera):
        kinds, rng = self.cases(camera)
        for case in kinds:
            factors, variables = map(list, zip(*case))
            cls = type(factors[0])
            c, rows = factors[0].joined(factors[1:]).inputs, stacked_rows(variables)
            kept = cls.residuals(c, *rows)
            # Other values (moved translations) scored with the same constants
            # in between.
            moved = [(r[0], r[1] + rng.normal(0.0, 0.1, size=r[1].shape), *r[2:]) for r in rows]
            cls.residuals(c, *moved)
            J = cls.jacobians(c, kept, *rows)
            fresh_rows = [tuple(a.copy() for a in r) for r in rows]
            fresh = cls.jacobians(c, cls.residuals(c, *fresh_rows), *fresh_rows)
            np.testing.assert_array_equal(J, fresh, strict=True)
            for k, (factor, v) in enumerate(case):
                if not kept.valid[k]:
                    assert cls is BBoxFactor and factor.residual_at(*v) is None
                    np.testing.assert_array_equal(J[k], 0.0)
                    continue
                want = np.hstack(numeric_jacobian(factor.residual_at, list(v)))
                scale = max(1.0, np.abs(want).max())
                assert np.abs(J[k] - want).max() / scale < self.TOL, (cls.kind, k)
            assert kept.valid.sum() == (4 if cls is BBoxFactor else 5)


def robust_one(noise: NoiseModel, r) -> tuple[np.ndarray, float, float]:
    """robust_whiten on a batch of one: whitened residual, cost, sqrt weight."""
    e, cost, weight = robust_whiten(*stack_noises([noise]), np.asarray(r, dtype=np.float64)[None])
    return e[0], float(cost[0]), float(weight[0])


class TestNoiseModel:
    def test_cost_is_mahalanobis(self):
        noise = NoiseModel(np.array([4.0, 9.0]))
        r = np.array([2.0, 3.0])
        assert robust_one(noise, r)[1] == pytest.approx(1.0 + 1.0)

    def test_doubling_covariance_halves_cost(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            var = rng.uniform(0.5, 2.0, size=3)
            r = rng.normal(size=3)
            c1 = robust_one(NoiseModel(var), r)[1]
            c2 = robust_one(NoiseModel(2.0 * var), r)[1]
            assert c2 == pytest.approx(0.5 * c1, rel=1e-12)

    def test_cost_non_negative(self):
        rng = np.random.default_rng(53)
        noise = NoiseModel.isotropic(4, 3.0)
        _, cost, _ = robust_whiten(*stack_noises([noise] * 100), rng.normal(size=(100, 4)))
        assert np.all(cost >= 0.0)

    def test_huber_linear_tail(self):
        noise = NoiseModel.isotropic(4, 10.0, huber=2.0)
        small = np.array([1.0, 0.0, 0.0, 0.0])
        assert robust_one(noise, small)[1] == pytest.approx(0.01)
        big = np.array([100.0, 0.0, 0.0, 0.0])
        # Whitened norm 10, threshold 2: cost = 2*2*10 - 4 = 36.
        _, cost, weight = robust_one(noise, big)
        assert cost == pytest.approx(36.0)
        assert weight == pytest.approx(np.sqrt(2.0 / 10.0))

    def test_mixed_batch_matches_scalar_oracle(self):
        # Whitened threshold 2, a whitened norm of 4 / 2 exact in binary: the
        # second row sits on it (quadratic branch), the third just past it
        # (linear branch).
        huber = NoiseModel.isotropic(4, 2.0, huber=2.0)
        plain = NoiseModel(np.array([1.0, 4.0, 9.0, 16.0]))
        noises = [plain, huber, huber, plain, huber]
        r = np.array([
            [30.0, -20.0, 10.0, 5.0],
            [4.0, 0.0, 0.0, 0.0],
            [4.0 + 1e-9, 0.0, 0.0, 0.0],
            [0.5, 0.25, -1.0, 2.0],
            [-40.0, 12.0, 3.0, -7.0],
        ])
        e, cost, weight = robust_whiten(*stack_noises(noises), r)
        for i, (nm, ri) in enumerate(zip(noises, r)):
            np.testing.assert_allclose(e[i], noise_oracle.whiten(nm, ri), rtol=1e-15)
            assert cost[i] == pytest.approx(noise_oracle.cost(nm, ri), rel=1e-12)
            assert weight[i] == pytest.approx(noise_oracle.sqrt_weight(nm, ri), rel=1e-12)
        assert (cost[1], weight[1]) == (4.0, 1.0)
        assert cost[2] > 4.0 and weight[2] < 1.0
        assert weight[0] == weight[3] == 1.0 and cost[0] > 100.0

    @pytest.mark.parametrize(
        "variances",
        [[1.0, 0.0], [1.0, -1.0], [1.0, np.nan], [np.inf, 1.0], 4.0, [[1.0, 0.0], [0.0, 1.0]]],
        ids=["zero", "negative", "nan", "inf", "scalar", "matrix"],
    )
    def test_rejects_invalid_variances(self, variances):
        with pytest.raises(ValueError):
            NoiseModel(np.array(variances))

    @pytest.mark.parametrize("huber", [0.0, -1.0, np.nan])
    def test_rejects_non_positive_huber(self, huber):
        with pytest.raises(ValueError):
            NoiseModel(np.ones(2), huber)

    def test_fields(self):
        noise = NoiseModel(np.array([4.0, 25.0]), 1.5)
        np.testing.assert_array_equal(noise.variances, [4.0, 25.0])
        np.testing.assert_array_equal(noise.sqrt_information, [0.5, 0.2])
        assert noise.threshold == 1.5
        assert NoiseModel(np.ones(2)).threshold == np.inf
        with pytest.raises(ValueError):
            noise.variances[0] = 1.0
        # The square-root information is the full-matrix L^-1's diagonal,
        # bit for bit.
        rng = np.random.default_rng(59)
        for _ in range(200):
            noise = NoiseModel(rng.uniform(1e-6, 1e2, size=6))
            S = noise_oracle.sqrt_information(noise)
            np.testing.assert_array_equal(np.diag(S), noise.sqrt_information, strict=True)
            np.testing.assert_array_equal(S, np.diag(noise.sqrt_information), strict=True)

    def test_whiten(self):
        noise = NoiseModel(np.array([4.0, 25.0]))
        np.testing.assert_allclose(robust_one(noise, [2.0, 5.0])[0], [1.0, 1.0])


class TestFactorValidation:
    def test_variable_keys(self):
        noise4 = NoiseModel.isotropic(4, 10.0)
        K = CameraIntrinsics(500, 500, 320, 240)
        f = bbox_factor(3, 7, BoundingBox2D(0, 0, 1, 1), K, noise4)
        assert f.variables == ("pose", "quadric") and f.ids.tolist() == [[3], [7]]
        o = odometry_factor(1, 2, Pose.identity(), NoiseModel.isotropic(6, 0.1))
        assert o.variables == ("pose", "pose") and o.ids.tolist() == [[1], [2]]

    def test_array_holders_compare_by_identity(self):
        # Field-wise == over ndarray fields would raise: two instances built
        # from the same content are distinct, equal only to themselves, and
        # hashable.
        def build():
            noise = NoiseModel.isotropic(3, 0.1)
            box = BoundingBox2D(10, 20, 30, 40)
            K = CameraIntrinsics(500, 500, 320, 240)
            return [
                noise,
                Pose.identity(),
                Quadric(np.eye(3), np.zeros(3), np.full(3, 0.2)),
                odometry_factor(0, 1, Pose.identity(), NoiseModel.isotropic(6, 0.1)),
                bbox_factor(0, 0, box, K, NoiseModel.isotropic(4, 1.0), (640.0, 480.0)),
                size_prior_factor(0, np.array([0.1, 0.2, 0.3]), noise),
                orientation_prior_factor(0, NoiseModel.isotropic(2, 0.1)),
                centroid_prior_factor(0, np.zeros(3), noise),
            ]

        for a, b in zip(build(), build()):
            assert a == a and not a == b and a != b, type(a).__name__
            assert len({a, b, a}) == 2 and hash(a) == hash(a)
