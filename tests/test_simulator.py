"""Synthetic scene generation, rendering, and odometry perturbation."""

import numpy as np
import pytest

from objslam import simulator
from objslam.dataset import load_dataset, write_dataset
from objslam.geometry import (
    CameraIntrinsics,
    Pose,
    compose,
    project_bbox_batch,
)
from objslam.priors import OrientationClass, PriorRecord
from objslam.simulator import (
    PlacementFailure,
    SceneSpec,
    SimConfig,
    default_label_pool,
    generate_scene,
    look_at_pose,
    orbit_trajectory,
    perturb_odometry,
    simulate_dataset,
)

from helpers import render_detections
from projection_oracle import predict_bbox

IMAGE = (640, 480)


def quiet_config(**kwargs) -> SimConfig:
    """All noise sources off unless overridden."""
    defaults = dict(confidence_jitter=0.0, seed=0)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestSceneGeneration:
    def test_deterministic_for_seed(self):
        spec = SceneSpec(n_objects=8)
        a = generate_scene(spec, seed=7)
        b = generate_scene(spec, seed=7)
        assert [o.label for o in a.objects] == [o.label for o in b.objects]
        for oa, ob in zip(a.objects, b.objects):
            assert np.array_equal(oa.quadric.t, ob.quadric.t)
            assert np.array_equal(oa.quadric.s, ob.quadric.s)
            assert np.array_equal(oa.quadric.rotation, ob.quadric.rotation)

    def test_different_seeds_differ(self):
        spec = SceneSpec(n_objects=5)
        a = generate_scene(spec, seed=1)
        b = generate_scene(spec, seed=2)
        assert any(
            not np.array_equal(oa.quadric.t, ob.quadric.t)
            for oa, ob in zip(a.objects, b.objects)
        )

    def test_zero_objects(self):
        scene = generate_scene(SceneSpec(n_objects=0), seed=0)
        assert scene.objects == ()

    def test_objects_do_not_overlap(self):
        scene = generate_scene(SceneSpec(n_objects=12, area=(3.0, 2.0)), seed=3)
        objs = scene.objects
        for i in range(len(objs)):
            for j in range(i + 1, len(objs)):
                sep = np.linalg.norm(objs[i].quadric.t - objs[j].quadric.t)
                min_sep = np.max(objs[i].quadric.s) + np.max(objs[j].quadric.s)
                assert sep > min_sep

    def test_objects_inside_bounds_and_resting_on_surface(self):
        spec = SceneSpec(n_objects=10, area=(2.0, 1.2), surface_height=0.7)
        scene = generate_scene(spec, seed=5)
        for obj in scene.objects:
            x, y, z = obj.quadric.t
            assert abs(x) <= 1.0 and abs(y) <= 0.6
            assert z == pytest.approx(0.7 + obj.quadric.s[2])

    def test_theta_is_exactly_yaw_only(self):
        # Readers of Quadric.theta may rely on a simulated object turning
        # about z alone, with the x and y angles exactly zero.
        scene = generate_scene(SceneSpec(n_objects=14, area=(3.0, 2.5)), seed=11)
        for obj in scene.objects:
            theta = obj.quadric.theta
            assert theta[0] == 0.0 and theta[1] == 0.0
            c, s = np.cos(theta[2]), np.sin(theta[2])
            np.testing.assert_allclose(
                obj.quadric.rotation, [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]],
                atol=1e-15,
            )

    def test_orientation_classes_respected(self):
        scene = generate_scene(SceneSpec(n_objects=14, area=(3.0, 2.5)), seed=11)
        seen = set()
        for obj in scene.objects:
            seen.add(obj.record.orientation)
            R = obj.quadric.rotation
            # yaw-only placement keeps local z vertical
            assert np.allclose(R[:, 2], [0.0, 0.0, 1.0], atol=1e-12)
            if obj.record.orientation == OrientationClass.VERTICAL:
                assert np.argmax(obj.quadric.s) == 2
            elif obj.record.orientation == OrientationClass.HORIZONTAL:
                assert np.argmax(obj.quadric.s) == 0
        assert OrientationClass.VERTICAL in seen
        assert OrientationClass.HORIZONTAL in seen

    def test_placement_failure_when_crowded(self):
        spec = SceneSpec(n_objects=40, area=(0.4, 0.4), max_retries=25)
        with pytest.raises(PlacementFailure):
            generate_scene(spec, seed=0)

    def test_prior_table_covers_scene_labels(self):
        scene = generate_scene(SceneSpec(n_objects=10), seed=9)
        table = scene.prior_table()
        for obj in scene.objects:
            record = table.records.get(obj.label)
            assert record is not None
            assert np.array_equal(record.dimensions(), obj.record.dimensions())
        assert table.flagged == set()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(n_objects=-1)
        with pytest.raises(ValueError):
            SceneSpec(area=(0.0, 1.0))
        with pytest.raises(ValueError):
            SceneSpec(n_objects=2, label_pool={})

    def test_pool_dimensions_positive(self):
        for record in default_label_pool().values():
            assert np.all(record.dimensions() > 0)


class TestTrajectory:
    def test_look_at_points_optical_axis_at_target(self):
        eye = np.array([2.0, 1.0, 1.5])
        target = np.array([0.0, 0.0, 0.2])
        x = look_at_pose(eye, target)
        R = x.rotation
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)
        direction = (target - eye) / np.linalg.norm(target - eye)
        assert np.allclose(R[:, 2], direction, atol=1e-12)
        assert np.array_equal(x.translation, eye)

    def test_look_at_coincident_raises(self):
        with pytest.raises(ValueError):
            look_at_pose(np.zeros(3), np.zeros(3))

    def test_orbit_geometry(self):
        center = np.array([0.5, -0.2, 0.1])
        poses = orbit_trajectory(12, center=center, radius=2.0, height=1.1)
        assert len(poses) == 12
        for x in poses:
            offset = x.translation - center
            assert np.hypot(offset[0], offset[1]) == pytest.approx(2.0)
            assert offset[2] == pytest.approx(1.1)
            direction = center - x.translation
            direction = direction / np.linalg.norm(direction)
            assert np.allclose(x.rotation[:, 2], direction, atol=1e-12)

    def test_orbit_empty_and_validation(self):
        assert orbit_trajectory(0) == []
        with pytest.raises(ValueError):
            orbit_trajectory(5, radius=0.0)


class TestRendering:
    def setup_method(self):
        self.K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
        self.scene = generate_scene(SceneSpec(n_objects=6), seed=4)
        self.pose = orbit_trajectory(1)[0]

    def test_noiseless_boxes_match_exact_projection(self):
        dets = render_detections(self.scene, self.pose, self.K, IMAGE, quiet_config())
        assert dets
        exact = {}
        for obj in self.scene.objects:
            try:
                box = predict_bbox(self.pose, self.K, obj.quadric)
            except Exception:
                continue
            exact[obj.label, tuple(np.round(box.as_array(), 6))] = box
        for det in dets:
            match = [
                box
                for (label, _), box in exact.items()
                if label == det.label
                and np.allclose(
                    np.clip(box.as_array(), [0, 0, 0, 0], [640, 480, 640, 480]),
                    det.bbox.as_array(),
                    atol=1e-9,
                )
            ]
            assert match, f"no exact projection matches {det.label}"

    def test_noiseless_depth_and_confidence(self):
        dets = render_detections(self.scene, self.pose, self.K, IMAGE, quiet_config())
        x = self.pose
        depths = {}
        for obj in self.scene.objects:
            d = float((obj.quadric.t - x.translation) @ x.rotation[:, 2])
            depths.setdefault(obj.label, []).append(d)
        for det in dets:
            # labels may repeat; the depth must match one same-label object
            assert any(
                det.center_depth == pytest.approx(d, abs=1e-9)
                for d in depths[det.label]
            )
            assert det.confidence == pytest.approx(0.99)

    def test_reproducible_with_noise(self):
        cfg = SimConfig(sigma_px=3.0, sigma_depth=0.05, dropout=0.2, seed=13)
        a = render_detections(self.scene, self.pose, self.K, IMAGE, cfg)
        b = render_detections(self.scene, self.pose, self.K, IMAGE, cfg)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert np.array_equal(da.bbox.as_array(), db.bbox.as_array())
            assert da.confidence == db.confidence
            assert da.center_depth == db.center_depth

    def test_noisy_boxes_stay_valid_and_inside_image(self):
        cfg = SimConfig(sigma_px=8.0, seed=21)
        for frame_pose in orbit_trajectory(5):
            for det in render_detections(self.scene, frame_pose, self.K, IMAGE, cfg):
                x_min, y_min, x_max, y_max = det.bbox.as_array()
                assert 0.0 <= x_min < x_max <= 640.0
                assert 0.0 <= y_min < y_max <= 480.0
                assert 0.0 <= det.confidence <= 1.0

    def test_tiny_objects_filtered(self):
        pea = PriorRecord("mug", 0.012, 0.012, 0.012, OrientationClass.UNCERTAIN)
        spec = SceneSpec(n_objects=3, label_pool={"mug": pea})
        scene = generate_scene(spec, seed=2)
        dets = render_detections(scene, self.pose, self.K, IMAGE, quiet_config())
        assert dets == []

    def test_behind_camera_invisible(self):
        away = look_at_pose(np.array([0.0, -3.0, 0.5]), np.array([0.0, -6.0, 0.5]))
        dets = render_detections(self.scene, away, self.K, IMAGE, quiet_config())
        assert dets == []

    def test_full_dropout(self):
        cfg = quiet_config(dropout=1.0)
        assert render_detections(self.scene, self.pose, self.K, IMAGE, cfg) == []

    def test_truncation_keeps_clipped_box_with_reduced_confidence(self):
        # one flat object directly under a downward-looking camera: the
        # projected box spills past a 320-pixel-wide image
        record = PriorRecord("book", 0.6, 0.6, 0.1, OrientationClass.UNCERTAIN)
        quadric_scene = generate_scene(
            SceneSpec(n_objects=1, label_pool={"book": record}, area=(0.2, 0.2)),
            seed=0,
        )
        K = CameraIntrinsics(500.0, 500.0, 160.0, 120.0)
        image = (320, 240)
        obj = quadric_scene.objects[0]
        eye = obj.quadric.t + np.array([0.0, 0.0, 0.8])
        pose = look_at_pose(eye, obj.quadric.t)
        full = predict_bbox(pose, K, obj.quadric).as_array()
        assert full[0] < 0.0 or full[2] > 320.0  # sanity: actually truncated

        kept = render_detections(quadric_scene, pose, K, image, quiet_config())
        assert len(kept) == 1
        x_min, y_min, x_max, y_max = kept[0].bbox.as_array()
        assert 0.0 <= x_min < x_max <= 320.0
        assert 0.0 <= y_min < y_max <= 240.0
        assert kept[0].confidence < 0.99

        dropped = render_detections(
            quadric_scene, pose, K, image, quiet_config(truncation=False)
        )
        assert dropped == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(sigma_px=-1.0)
        with pytest.raises(ValueError):
            SimConfig(dropout=1.5)
        with pytest.raises(ValueError):
            SimConfig(confidence_floor=0.8, confidence_ceiling=0.5)
        with pytest.raises(ValueError):
            SimConfig(max_observations_per_object=0)


class TestOdometry:
    def straight_line(self, n: int) -> list[Pose]:
        return [Pose(np.eye(3), np.array([0.1 * i, 0.0, 0.0])) for i in range(n)]

    def test_noiseless_is_exact(self):
        poses = orbit_trajectory(8)
        entries = perturb_odometry(poses, quiet_config())
        assert len(entries) == 7
        current = poses[0]
        for entry in entries:
            current = compose(current, entry.relative)
        assert np.allclose(current.rotation, poses[-1].rotation, atol=1e-9)
        assert np.allclose(current.translation, poses[-1].translation, atol=1e-9)

    def test_deterministic(self):
        poses = self.straight_line(10)
        cfg = SimConfig(sigma_rot=0.01, sigma_trans=0.02, seed=3)
        a = perturb_odometry(poses, cfg)
        b = perturb_odometry(poses, cfg)
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.relative.translation, eb.relative.translation)
            assert np.array_equal(ea.relative.rotation, eb.relative.rotation)

    def test_translation_drift_statistics(self):
        # pure translation noise over 100 identity-rotation steps is a 3D
        # random walk: E||drift|| = sigma * sqrt(n) * sqrt(2) * Gamma(2)/Gamma(1.5)
        poses = self.straight_line(101)
        drifts = []
        for seed in range(50):
            cfg = SimConfig(sigma_trans=0.01, seed=seed)
            current = poses[0]
            for entry in perturb_odometry(poses, cfg):
                current = compose(current, entry.relative)
            drifts.append(np.linalg.norm(current.translation - poses[-1].translation))
        mean_drift = np.mean(drifts)
        assert 0.12 < mean_drift < 0.20
        assert min(drifts) > 0.0

    def test_short_inputs(self):
        assert perturb_odometry([], quiet_config()) == []
        assert perturb_odometry(self.straight_line(1), quiet_config()) == []


class TestSimulatedDataset:
    def setup_method(self):
        self.K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)

    def test_byte_identical_for_same_seed(self, tmp_path):
        spec = SceneSpec(n_objects=5)
        cfg = SimConfig(sigma_px=2.0, sigma_rot=0.005, sigma_trans=0.01,
                        sigma_depth=0.03, dropout=0.1, seed=17)
        for name in ("a", "b"):
            dataset, _ = simulate_dataset(spec, 10, self.K, IMAGE, cfg)
            write_dataset(dataset, tmp_path / name)
        for child in sorted((tmp_path / "a").iterdir()):
            other = tmp_path / "b" / child.name
            assert child.read_bytes() == other.read_bytes()

    def test_association_is_per_frame_bijection(self):
        cfg = SimConfig(sigma_px=2.0, dropout=0.2, seed=5)
        dataset, scene = simulate_dataset(SceneSpec(n_objects=7), 12, self.K, IMAGE, cfg)
        assert dataset.gt_association is not None
        for frame in dataset.frames:
            pairs = dataset.gt_association.get(frame.frame_id, [])
            det_indices = [d for d, _ in pairs]
            obj_indices = [o for _, o in pairs]
            assert sorted(det_indices) == list(range(len(frame.detections)))
            assert len(set(obj_indices)) == len(obj_indices)
            assert all(0 <= o < len(scene.objects) for o in obj_indices)

    def test_association_points_at_matching_labels(self):
        dataset, scene = simulate_dataset(
            SceneSpec(n_objects=6), 8, self.K, IMAGE, quiet_config()
        )
        for frame in dataset.frames:
            for det_idx, obj_idx in dataset.gt_association.get(frame.frame_id, []):
                assert frame.detections[det_idx].label == scene.objects[obj_idx].label

    def test_sparse_mode_caps_observations(self):
        cfg = quiet_config(max_observations_per_object=3)
        dataset, scene = simulate_dataset(SceneSpec(n_objects=6), 15, self.K, IMAGE, cfg)
        counts = {i: 0 for i in range(len(scene.objects))}
        for pairs in dataset.gt_association.values():
            for _, obj_idx in pairs:
                counts[obj_idx] += 1
        assert all(c <= 3 for c in counts.values())
        assert any(c > 0 for c in counts.values())

    @pytest.mark.parametrize("cap", [1, 3, 5])
    def test_sparse_cap_keeps_evenly_spread_frames(self, cap):
        # quiet runs draw nothing, so capping only removes sightings
        spec = SceneSpec(n_objects=6)
        dense, _ = simulate_dataset(spec, 15, self.K, IMAGE, quiet_config())
        capped, _ = simulate_dataset(
            spec, 15, self.K, IMAGE, quiet_config(max_observations_per_object=cap)
        )

        def sightings(dataset):
            """object index -> [(frame id, box sides)] in frame order"""
            views = {}
            for frame in dataset.frames:
                for d, o in (dataset.gt_association or {}).get(frame.frame_id, []):
                    box = frame.detections[d].bbox.as_array()
                    views.setdefault(o, []).append((frame.frame_id, box))
            return views

        seen, kept = sightings(dense), sightings(capped)
        assert kept.keys() == seen.keys()
        assert any(len(views) > cap for views in seen.values())
        for o, views in seen.items():
            frames = np.array([f for f, _ in views])
            if len(frames) > cap:
                frames = frames[np.unique(np.round(np.linspace(0, len(frames) - 1, cap)).astype(int))]
            assert [f for f, _ in kept[o]] == frames.tolist()
            boxes = dict(views)
            for f, box in kept[o]:
                assert box.tobytes() == boxes[f].tobytes()

    @pytest.mark.parametrize("truncation", [True, False])
    def test_orbit_equals_one_pose_at_a_time(self, truncation):
        cfg = quiet_config(truncation=truncation)
        dataset, scene = simulate_dataset(
            SceneSpec(n_objects=8), 20, self.K, IMAGE, cfg, radius=1.4, height=0.9
        )
        poses = dict(dataset.gt_trajectory)

        def bits(detections):
            return [
                (d.bbox.as_array().tobytes(), d.confidence, d.center_depth, d.label)
                for d in detections
            ]

        confidences = set()
        for frame in dataset.frames:
            alone = render_detections(scene, poses[frame.frame_id], self.K, IMAGE, cfg)
            assert bits(frame.detections) == bits(alone)
            confidences |= {d.confidence for d in alone}
        assert len(confidences) > (1 if truncation else 0)

    def test_one_projection_per_dataset(self, monkeypatch):
        rows = []

        def counting(*args):
            rows.append(len(args[0]))
            return project_bbox_batch(*args)

        monkeypatch.setattr(simulator, "project_bbox_batch", counting)
        simulate_dataset(
            SceneSpec(n_objects=5), 12, self.K, IMAGE,
            SimConfig(sigma_px=2.0, max_observations_per_object=3, seed=1),
        )
        assert rows == [60]

    def test_sparse_cap_looser_than_visibility_changes_nothing(self):
        dense, _ = simulate_dataset(SceneSpec(n_objects=4), 6, self.K, IMAGE,
                                    quiet_config())
        capped, _ = simulate_dataset(
            SceneSpec(n_objects=4), 6, self.K, IMAGE,
            quiet_config(max_observations_per_object=100),
        )
        for fa, fb in zip(dense.frames, capped.frames):
            assert len(fa.detections) == len(fb.detections)

    def test_round_trip_through_disk(self, tmp_path):
        cfg = SimConfig(sigma_px=1.0, sigma_trans=0.01, seed=9)
        dataset, _ = simulate_dataset(SceneSpec(n_objects=5), 8, self.K, IMAGE, cfg)
        write_dataset(dataset, tmp_path / "sim")
        loaded = load_dataset(tmp_path / "sim")
        assert len(loaded.frames) == 8
        assert len(loaded.odometry) == 7
        assert len(loaded.gt_objects) == 5
        assert len(loaded.gt_trajectory) == 8
        assert loaded.gt_association.keys() == dataset.gt_association.keys()

    def test_gt_matches_scene(self):
        dataset, scene = simulate_dataset(
            SceneSpec(n_objects=4), 5, self.K, IMAGE, quiet_config()
        )
        assert [g.label for g in dataset.gt_objects] == [o.label for o in scene.objects]
        for gt, obj in zip(dataset.gt_objects, scene.objects):
            assert np.array_equal(gt.quadric.t, obj.quadric.t)

    def test_noiseless_detections_project_from_gt(self):
        dataset, scene = simulate_dataset(
            SceneSpec(n_objects=6), 6, self.K, IMAGE, quiet_config()
        )
        poses = dict(dataset.gt_trajectory)
        for frame in dataset.frames:
            x = poses[frame.frame_id]
            for det_idx, obj_idx in dataset.gt_association.get(frame.frame_id, []):
                box = predict_bbox(x, self.K, scene.objects[obj_idx].quadric)
                clipped = np.clip(box.as_array(), [0, 0, 0, 0], [640, 480, 640, 480])
                det = frame.detections[det_idx]
                assert np.allclose(det.bbox.as_array(), clipped, atol=1e-9)

    def test_empty_simulation(self):
        dataset, scene = simulate_dataset(
            SceneSpec(n_objects=0), 0, self.K, IMAGE, quiet_config()
        )
        assert dataset.frames == [] or len(dataset.frames) == 0
        assert scene.objects == ()
