from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from objslam.geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    NonPositiveDepth,
    Pose,
    Quadric,
    back_project_pixel,
    between,
    compose,
    project_bbox_batch,
    so3_exp,
    so3_log,
)

from conftest import random_pose, random_quadric, random_rotation
from projection_oracle import (
    BehindCamera,
    DegenerateConic,
    DualConic,
    conic_to_bbox,
    predict_bbox,
    project_quadric,
    quadric_to_dual,
)


def homogeneous_product(a: Pose, b: Pose) -> np.ndarray:
    """Oracle: composition as a plain 4x4 matrix product."""
    return a.matrix() @ b.matrix()


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestPose:
    def test_compose_matches_homogeneous_product(self):
        a = Pose(rot_z(np.pi / 2), np.array([1.0, 0.0, 0.0]))
        c = compose(a, a)
        expected = homogeneous_product(a, a)
        np.testing.assert_allclose(c.matrix(), expected, atol=1e-12)
        np.testing.assert_allclose(c.translation, [1.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(c.rotation, rot_z(np.pi), atol=1e-12)

    def test_compose_random_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            np.testing.assert_allclose(
                compose(a, b).matrix(), homogeneous_product(a, b), atol=1e-12
            )

    def test_between_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b = random_pose(rng), random_pose(rng)
            d = between(a, b)
            back = compose(a, d)
            assert np.abs(back.matrix() - b.matrix()).max() < 1e-9

    def test_compose_associative(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            a, b, c = random_pose(rng), random_pose(rng), random_pose(rng)
            left = compose(compose(a, b), c).matrix()
            right = compose(a, compose(b, c)).matrix()
            assert np.abs(left - right).max() < 1e-9

    def test_inverse(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = random_pose(rng)
            ident = compose(a, a.inverse()).matrix()
            np.testing.assert_allclose(ident, np.eye(4), atol=1e-12)

    def test_rejects_non_orthonormal(self):
        R = np.eye(3)
        R[0, 0] = 1.001
        with pytest.raises(ValueError):
            Pose(R, np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(R, np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3), np.array([np.nan, 0.0, 0.0]))

    def test_values_are_immutable(self):
        p = Pose.identity()
        with pytest.raises(ValueError):
            p.rotation[0, 0] = 2.0

    def test_retract_stays_on_manifold(self):
        rng = np.random.default_rng(19)
        p = random_pose(rng)
        for _ in range(50):
            p = p.retract(rng.normal(scale=0.3, size=6))
        R = p.rotation
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-9


class TestSO3:
    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            w = rng.normal(size=3)
            w = w / np.linalg.norm(w) * rng.uniform(1e-10, np.pi - 1e-6)
            np.testing.assert_allclose(so3_log(so3_exp(w)), w, atol=1e-7)

    def test_exp_small_angle(self):
        w = np.array([1e-10, 0.0, 0.0])
        R = so3_exp(w)
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-15

    def test_log_identity(self):
        np.testing.assert_allclose(so3_log(np.eye(3)), np.zeros(3), atol=1e-15)

    def test_log_near_pi(self):
        for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                     np.array([0.6, 0, 0.8])):
            w = axis * (np.pi - 1e-8)
            R = so3_exp(w)
            w_back = so3_log(R)
            np.testing.assert_allclose(so3_exp(w_back), R, atol=1e-6)

    @pytest.mark.parametrize("e", [1.01e-6, 2e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    def test_log_round_trip_approaching_pi(self, e):
        # The general branch divides by sin(angle), which loses precision
        # well before pi; the symmetric-part branch must take over in time.
        rng = np.random.default_rng(29)
        axes = rng.normal(size=(2000, 3))
        w = axes / np.linalg.norm(axes, axis=1, keepdims=True) * (np.pi - e)
        assert np.abs(so3_log(so3_exp(w)) - w).max() < 1e-9


def rebuilt(R: np.ndarray) -> np.ndarray:
    """R rebuilt from its Quadric.theta by scipy's intrinsic X-Y-Z convention."""
    theta = Quadric(R, np.zeros(3), np.ones(3)).theta
    return Rotation.from_euler("XYZ", theta).as_matrix()


class TestEuler:
    def test_round_trip_from_matrix(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            R = random_rotation(rng)
            assert np.abs(rebuilt(R) - R).max() < 1e-9

    def test_intrinsic_xyz_order(self):
        # R = Rx @ Ry @ Rz checked against explicit single-axis matrices.
        tx, ty, tz = 0.3, -0.5, 1.1
        Rx = np.array(
            [[1, 0, 0], [0, np.cos(tx), -np.sin(tx)], [0, np.sin(tx), np.cos(tx)]]
        )
        Ry = np.array(
            [[np.cos(ty), 0, np.sin(ty)], [0, 1, 0], [-np.sin(ty), 0, np.cos(ty)]]
        )
        Rz = rot_z(tz)
        np.testing.assert_allclose(
            Rotation.from_euler("XYZ", [tx, ty, tz]).as_matrix(), Rx @ Ry @ Rz, atol=1e-12
        )
        q = Quadric(Rx @ Ry @ Rz, np.zeros(3), np.ones(3))
        np.testing.assert_allclose(q.theta, [tx, ty, tz], atol=1e-12)

    def test_gimbal_branch(self):
        theta = np.array([0.4, np.pi / 2, 0.7])
        R = Rotation.from_euler("XYZ", theta).as_matrix()
        assert np.abs(rebuilt(R) - R).max() < 1e-9

    def test_theta_rebuilds_rotation_to_1e_12(self):
        rng = np.random.default_rng(41)
        rotations = [random_rotation(rng) for _ in range(1000)]
        for ty in (np.pi / 2, -np.pi / 2):
            for tx, tz in ((0.4, 0.7), (-1.2, 0.0), (2.5, -3.0)):
                rotations.append(Rotation.from_euler("XYZ", [tx, ty, tz]).as_matrix())
        for R in rotations:
            assert np.abs(rebuilt(R) - R).max() < 1e-12


class TestQuadric:
    def test_dual_matrix_explicit(self):
        # Unit sphere at (1, 0, 0): Z diag(1,1,1,-1) Z^T written out by hand.
        q = Quadric(np.eye(3), np.array([1.0, 0.0, 0.0]), np.ones(3))
        expected = np.array(
            [
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [-1.0, 0.0, 0.0, -1.0],
            ]
        )
        np.testing.assert_allclose(quadric_to_dual(q), expected, atol=1e-12)

    def test_dual_is_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            Q = quadric_to_dual(random_quadric(rng))
            assert np.abs(Q - Q.T).max() < 1e-12

    def test_rejects_non_positive_axes(self):
        with pytest.raises(ValueError):
            Quadric(np.eye(3), np.zeros(3), np.array([0.1, 0.0, 0.1]))
        with pytest.raises(ValueError):
            Quadric(np.eye(3), np.zeros(3), np.array([0.1, -0.2, 0.1]))

    @pytest.mark.parametrize(
        "rotation",
        [np.array([0.1, 0.2, 0.3]), np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan)],
        ids=["euler-3-vector", "reflection", "nan"],
    )
    def test_rejects_non_rotation(self, rotation):
        with pytest.raises(ValueError, match="rotation"):
            Quadric(rotation, np.zeros(3), np.ones(3))

    def test_retractions_stay_orthonormal(self):
        # No re-orthonormalization: 10,000 rotation steps of 0.3 rad each.
        rng = np.random.default_rng(43)
        q = random_quadric(rng)
        worst = 0.0
        for _ in range(10_000):
            axis = rng.normal(size=3)
            delta = np.zeros(9)
            delta[:3] = 0.3 * axis / np.linalg.norm(axis)
            q = q.retract(delta)
            worst = max(worst, np.abs(q.rotation.T @ q.rotation - np.eye(3)).max())
        assert worst < 1e-12

    def test_retract_round_trip(self):
        rng = np.random.default_rng(37)
        q = random_quadric(rng)
        delta = rng.normal(scale=0.1, size=9)
        q2 = q.retract(delta)
        R2 = q2.rotation
        assert np.abs(R2.T @ R2 - np.eye(3)).max() < 1e-9
        np.testing.assert_allclose(q2.t, q.t + delta[3:6], atol=1e-12)


class TestProjection:
    def test_sphere_closed_form(self, camera):
        # Unit sphere on the optical axis at depth d: the image is a disc of
        # radius f * r / sqrt(d^2 - r^2) centered on the principal point.
        K = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0)
        q = Quadric(np.eye(3), np.array([0.0, 0.0, 5.0]), np.ones(3))
        box = predict_bbox(Pose.identity(), K, q)
        half = 100.0 * 1.0 / np.sqrt(25.0 - 1.0)
        np.testing.assert_allclose(
            box.as_array(), [-half, -half, half, half], atol=1e-3
        )
        np.testing.assert_allclose(half, 20.412, atol=1e-3)

    def test_sphere_closed_form_random_depths(self, camera):
        rng = np.random.default_rng(41)
        for _ in range(50):
            r = rng.uniform(0.1, 1.0)
            d = rng.uniform(r + 0.5, 10.0)
            q = Quadric(np.eye(3), np.array([0.0, 0.0, d]), np.full(3, r))
            box = predict_bbox(Pose.identity(), camera, q)
            half_u = camera.fx * r / np.sqrt(d * d - r * r)
            np.testing.assert_allclose(box.center(), [camera.cx, camera.cy], atol=1e-6)
            np.testing.assert_allclose(box.width / 2.0, half_u, rtol=1e-9)

    def test_behind_camera_raises(self, camera):
        q = Quadric(np.eye(3), np.array([0.0, 0.0, -5.0]), np.ones(3))
        with pytest.raises(BehindCamera):
            project_quadric(Pose.identity(), camera, q)

    def test_centroid_straddling_image_plane_degenerate(self, camera):
        # Centroid barely in front but the ellipsoid pokes behind the camera:
        # the envelope has no real extremal tangents.
        q = Quadric(np.eye(3), np.array([0.0, 0.0, 0.5]), np.ones(3))
        with pytest.raises(DegenerateConic):
            conic_to_bbox(project_quadric(Pose.identity(), camera, q))

    def test_scale_invariance_of_envelope(self, camera):
        rng = np.random.default_rng(43)
        q = Quadric(np.eye(3), np.array([0.2, -0.1, 4.0]), np.array([0.3, 0.2, 0.4]))
        conic = project_quadric(Pose.identity(), camera, q)
        box1 = conic_to_bbox(conic)
        box2 = conic_to_bbox(DualConic(conic.matrix * -3.7))
        np.testing.assert_allclose(box1.as_array(), box2.as_array(), rtol=1e-9)

    def test_back_project_example(self, camera):
        pixel = np.array([camera.cx + camera.fx, camera.cy])
        p = back_project_pixel(camera, Pose.identity(), pixel, 2.0)
        np.testing.assert_allclose(p, [2.0, 0.0, 2.0], atol=1e-9)

    def test_back_project_rejects_bad_depth(self, camera):
        with pytest.raises(NonPositiveDepth):
            back_project_pixel(camera, Pose.identity(), np.zeros(2), 0.0)

    def test_back_project_project_round_trip(self, camera):
        # A small sphere centered at the back-projected point projects to a
        # box centered on the original pixel.
        rng = np.random.default_rng(47)
        for _ in range(50):
            x = random_pose(rng, t_scale=0.5)
            pixel = rng.uniform([100, 100], [540, 380])
            depth = rng.uniform(1.0, 6.0)
            p = back_project_pixel(camera, x, pixel, depth)
            q = Quadric(np.eye(3), p, np.full(3, 1e-4))
            box = predict_bbox(x, camera, q)
            np.testing.assert_allclose(box.center(), pixel, atol=1e-3)

    def test_batch_matches_scalar_path(self, camera):
        rng = np.random.default_rng(53)
        poses, quads = [], []
        for _ in range(64):
            x = random_pose(rng, t_scale=0.3)
            q = random_quadric(rng)
            # Push the quadric well in front of this camera.
            p_world = x.rotation @ np.array([0.0, 0.0, rng.uniform(3.0, 8.0)]) + x.translation
            q = Quadric(q.rotation, p_world, q.s)
            poses.append(x)
            quads.append(q)
        boxes, valid, _ = project_bbox_batch(
            np.stack([p.rotation for p in poses]),
            np.stack([p.translation for p in poses]),
            camera,
            np.stack([q.rotation for q in quads]),
            np.stack([q.t for q in quads]),
            np.stack([q.s for q in quads]),
        )
        for i, (x, q) in enumerate(zip(poses, quads)):
            assert valid[i]
            box = predict_bbox(x, camera, q)
            np.testing.assert_allclose(boxes[i], box.as_array(), rtol=1e-9, atol=1e-9)

    def test_batch_flags_behind_camera(self, camera):
        q = Quadric(np.eye(3), np.array([0.0, 0.0, -5.0]), np.ones(3))
        boxes, valid, _ = project_bbox_batch(
            np.eye(3)[None], np.zeros((1, 3)), camera,
            q.rotation[None], q.t[None], q.s[None],
        )
        assert not valid[0]
        assert np.all(np.isnan(boxes[0]))

    def test_batch_validity_matches_scalar_path(self, camera):
        # Centroids in front of, behind and straddling the camera plane: a
        # row is valid exactly when the scalar path projects it, and then
        # the boxes agree.
        rng = np.random.default_rng(59)
        poses, quads = [], []
        for depth_range in ((1.0, 8.0), (-8.0, -1.0), (-1.0, 1.0)):
            for _ in range(1000):
                x = random_pose(rng, t_scale=0.3)
                q = random_quadric(rng)
                depth = rng.uniform(*depth_range)
                if depth_range == (-1.0, 1.0):
                    depth *= q.s.max()
                p_cam = np.append(rng.normal(scale=0.3, size=2) * abs(depth), depth)
                poses.append(x)
                quads.append(Quadric(q.rotation, x.transform(p_cam), q.s))
        boxes, valid, _ = project_bbox_batch(
            np.stack([p.rotation for p in poses]),
            np.stack([p.translation for p in poses]),
            camera,
            np.stack([q.rotation for q in quads]),
            np.stack([q.t for q in quads]),
            np.stack([q.s for q in quads]),
        )
        for i, (x, q) in enumerate(zip(poses, quads)):
            try:
                box = predict_bbox(x, camera, q).as_array()
            except ValueError:
                box = None
            assert valid[i] == (box is not None), i
            if box is None:
                assert np.all(np.isnan(boxes[i]))
            else:
                np.testing.assert_allclose(boxes[i], box, rtol=1e-9, atol=1e-9)
        assert 0 < valid.sum() < len(valid)

    @pytest.mark.parametrize("semi_z, projects", [(0.5, False), (0.05, True)])
    def test_straddling_camera_plane_is_invalid(self, camera, semi_z, projects):
        # Centroid 0.1 m in front of the camera. With a 0.5 m z semi-axis the
        # ellipsoid reaches behind the camera plane (G22 = 0.24 > 0) and its
        # tangents bound none of its visible surface; with 0.05 m it lies
        # wholly in front (G22 < 0) and projects.
        q = Quadric(np.eye(3), np.array([0.5, 0.5, 0.1]), np.array([0.05, 0.05, semi_z]))
        boxes, valid, (_, _, G) = project_bbox_batch(
            np.eye(3)[None], np.zeros((1, 3)), camera,
            q.rotation[None], q.t[None], q.s[None],
        )
        assert (G[0, 2, 2] < 0.0) == projects
        assert valid[0] == projects
        assert np.all(np.isfinite(boxes[0])) == projects
        if projects:
            np.testing.assert_allclose(
                boxes[0], predict_bbox(Pose.identity(), camera, q).as_array(), rtol=1e-9
            )
        else:
            with pytest.raises(DegenerateConic):
                predict_bbox(Pose.identity(), camera, q)


class TestBoundingBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BoundingBox2D(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            BoundingBox2D(0.0, 2.0, 1.0, 1.0)

    def test_accessors(self):
        b = BoundingBox2D(1.0, 2.0, 5.0, 10.0)
        assert b.width == 4.0 and b.height == 8.0
        np.testing.assert_allclose(b.center(), [3.0, 6.0])
        assert b.area() == 32.0
