from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from objslam import pipeline
from objslam.association import GATE, SEMANTIC_WEIGHT, EmbeddingTable, association_weight
from objslam.config import build_run_config
from objslam.dataset import (
    Dataset,
    Detection,
    Frame,
    OdometryEntry,
    ParseError,
    SchemaError,
    load_dataset,
    write_dataset,
)
from objslam.geometry import BoundingBox2D, Pose, Quadric
from objslam.optimizer import initialize_landmark
from objslam.pipeline import (
    Landmark,
    MapEstimate,
    PipelineError,
    evaluate_files,
    landmark_rows,
    load_map_json,
    run_gen_priors,
    run_simulate,
    run_slam,
    run_to_files,
    write_map_json,
)
from objslam.priors import FixtureLLMClient, parse_prior_csv
from objslam.simulator import SceneSpec, SimConfig, simulate_dataset

EMBEDDINGS = str(Path(__file__).parent / "data" / "embeddings_50d.txt")


@pytest.fixture(scope="module")
def small_world(camera_module):
    spec = SceneSpec(n_objects=3)
    cfg = SimConfig(sigma_px=1.0, sigma_rot=0.002, sigma_trans=0.002, seed=0)
    dataset, scene = simulate_dataset(spec, 10, camera_module, (640, 480), cfg)
    return dataset, scene


@pytest.fixture(scope="module")
def camera_module():
    from objslam.geometry import CameraIntrinsics

    return CameraIntrinsics(500.0, 500.0, 320.0, 240.0)


def _run_config(**over):
    doc = {
        "noise": {
            "bbox_sigma_px": 1.0,
            "odom_sigma_rot": 0.002,
            "odom_sigma_trans": 0.002,
        },
    }
    doc.update(over)
    return build_run_config(doc)


class TestRunSlam:
    def test_incremental_snapshot_per_keyframe(self, small_world):
        dataset, scene = small_world
        estimate, report, solve = run_slam(_run_config(), dataset, scene.prior_table())
        assert len(estimate.snapshots) == len(dataset.frames)
        assert [kf for kf, _ in estimate.snapshots] == [f.frame_id for f in dataset.frames]
        assert len(estimate.trajectory) == len(dataset.frames)
        assert solve.final_cost <= solve.initial_cost

    def test_batch_single_snapshot(self, small_world):
        dataset, scene = small_world
        estimate, report, _ = run_slam(
            _run_config(mode="batch"), dataset, scene.prior_table()
        )
        assert len(estimate.snapshots) == 1
        assert report is not None and report.tp == 3 and report.fp == 0

    def test_modes_agree_on_centroids(self, small_world):
        dataset, scene = small_world
        priors = scene.prior_table()
        inc, _, _ = run_slam(_run_config(), dataset, priors)
        bat, _, _ = run_slam(_run_config(mode="batch"), dataset, priors)
        assert set(inc.labels.values()) == set(bat.labels.values())
        for a, b in zip(inc.landmarks, bat.landmarks):
            assert np.linalg.norm(np.array(a.centroid) - np.array(b.centroid)) < 0.02

    def test_incremental_budget_is_enough(self, camera_module):
        # The standard fixture scene of seed 12 (outside the acceptance
        # seeds) mapped with the default budget (two accepted steps for a
        # keyframe that adds a landmark, one for any other) and with 5 (five
        # and four): more steps per keyframe do not change the map.
        sim = SimConfig(sigma_px=2.0, sigma_rot=0.005, sigma_trans=0.005, seed=12)
        dataset, scene = simulate_dataset(SceneSpec(n_objects=10), 30, camera_module, (640, 480), sim)
        noise = {"bbox_sigma_px": 2.0, "odom_sigma_rot": 0.005, "odom_sigma_trans": 0.005}
        maps = {}
        for budget in (None, 5):
            doc = {"noise": noise}
            if budget is not None:
                doc["solver"] = {"incremental_iters_per_keyframe": budget}
            estimate, report, _ = run_slam(build_run_config(doc), dataset, scene.prior_table())
            maps[budget] = report.tp, report.fp, {
                m.gt_index: estimate.landmarks[m.est_index] for m in report.objects
            }
        (tp, fp, default), (tp5, fp5, five) = maps[None], maps[5]
        assert (tp, fp) == (tp5, fp5) == (10, 0)
        for g, lm in default.items():
            assert np.linalg.norm(np.subtract(lm.centroid, five[g].centroid)) < 1e-3, g
            np.testing.assert_allclose(
                np.sort(lm.semi_axes), np.sort(five[g].semi_axes), rtol=0, atol=5e-3
            )

    def test_only_keyframes_adding_a_landmark_take_a_second_step(
        self, camera_module, monkeypatch
    ):
        # The standard fixture scene of seed 12 (outside the acceptance
        # seeds) at the default budget of two accepted steps per keyframe.
        sim = SimConfig(sigma_px=2.0, sigma_rot=0.005, sigma_trans=0.005, seed=12)
        dataset, scene = simulate_dataset(SceneSpec(n_objects=10), 30, camera_module, (640, 480), sim)
        noise = {"bbox_sigma_px": 2.0, "odom_sigma_rot": 0.005, "odom_sigma_trans": 0.005}
        solves = []  # (landmarks in the graph, accepted steps) per solve
        solve = pipeline.solve_incremental

        def collecting(graph, values, *args, **kwargs):
            landmarks = len(values.quadric_ids)
            result = solve(graph, values, *args, **kwargs)
            solves.append((landmarks, result[1].iterations))
            return result

        monkeypatch.setattr(pipeline, "solve_incremental", collecting)
        run_slam(build_run_config({"noise": noise}), dataset, scene.prior_table())
        assert len(solves) == len(dataset.frames)
        before = [0] + [n for n, _ in solves[:-1]]
        adding = [steps for (n, steps), m in zip(solves, before) if n > m]
        other = [steps for (n, steps), m in zip(solves, before) if n == m]
        assert other and max(other) <= 1
        assert 2 in adding

    def test_keyframe_pose_is_validated_once(self, small_world, monkeypatch):
        # Each keyframe after the first is built from the previous pose's
        # rows: one validated Pose between the associations of two frames.
        dataset, scene = small_world
        validated = [0]
        at_association = []
        post_init, associate = Pose.__post_init__, pipeline.associate_long_term

        def counting(self):
            validated[0] += 1
            post_init(self)

        def associating(*args):
            at_association.append(validated[0])
            return associate(*args)

        monkeypatch.setattr(Pose, "__post_init__", counting)
        monkeypatch.setattr(pipeline, "associate_long_term", associating)
        run_slam(_run_config(), dataset, scene.prior_table())
        assert np.diff(at_association).tolist() == [1] * (len(dataset.frames) - 1)

    def test_deterministic(self, small_world):
        dataset, scene = small_world
        priors = scene.prior_table()
        a, _, _ = run_slam(_run_config(), dataset, priors)
        b, _, _ = run_slam(_run_config(), dataset, priors)
        assert a.landmarks == b.landmarks

    def test_eval_report_fields(self, small_world):
        dataset, scene = small_world
        _, report, _ = run_slam(_run_config(), dataset, scene.prior_table())
        assert report is not None
        assert report.tp == 3 and report.fn == 0
        assert report.ate is not None and report.ate < 0.05
        assert len(report.iou_series) == len(dataset.frames)

    def test_priors_from_csv_match_direct(self, small_world, tmp_path):
        from objslam.priors import write_prior_csv

        dataset, scene = small_world
        priors = scene.prior_table()
        csv_path = tmp_path / "priors.csv"
        write_prior_csv(priors, csv_path)
        direct, _, _ = run_slam(_run_config(), dataset, priors)
        via_csv, _, _ = run_slam(
            _run_config(paths={"priors_csv": str(csv_path)}), dataset
        )
        assert direct.landmarks == via_csv.landmarks

    def test_timings_populated(self, small_world):
        dataset, scene = small_world
        timings: dict[str, float] = {}
        run_slam(_run_config(), dataset, scene.prior_table(), timings=timings)
        assert {"load", "associate", "add_keyframe", "solve", "evaluate"} <= set(timings)

    def test_evaluation_validates_no_quadric(self, small_world, monkeypatch):
        # Ground-truth quadrics are validated when the dataset is built and
        # the solver's landmark records are scored as rows, so scoring a
        # mapped scene validates no quadric again.
        dataset, scene = small_world
        cfg = _run_config()
        estimate, report, _ = run_slam(cfg, dataset, scene.prior_table())
        assert len(estimate.snapshots) == len(dataset.frames)
        validated = []
        check = Quadric.__post_init__
        monkeypatch.setattr(Quadric, "__post_init__", lambda q: validated.append(q) or check(q))
        again = pipeline._evaluate_against(dataset, estimate, cfg.match_threshold)
        assert validated == []
        assert again == report

    def test_missing_dataset_rejected(self):
        with pytest.raises(ValueError, match="dataset"):
            run_slam(_run_config())

    def test_missing_odometry_names_frame(self, small_world):
        dataset, scene = small_world
        broken = dataclasses.replace(dataset, odometry=dataset.odometry[1:])
        second = dataset.frames[1].frame_id
        with pytest.raises(PipelineError, match=f"frame {second}"):
            run_slam(_run_config(), broken, scene.prior_table())

    def test_out_of_order_frame_ids_name_the_frame(self, camera_module):
        # Frames keep their file order but are relabelled 0, 2, 1, 3, 4, 5,
        # the odometry following them: frame 1 comes after frame 2.
        dataset, scene = simulate_dataset(
            SceneSpec(n_objects=3), 6, camera_module, (640, 480),
            SimConfig(sigma_px=1.0, sigma_rot=0.002, sigma_trans=0.002, seed=0),
        )
        new = dict(zip([f.frame_id for f in dataset.frames], [0, 2, 1, 3, 4, 5]))
        relabelled = dataclasses.replace(
            dataset,
            frames=[dataclasses.replace(f, frame_id=new[f.frame_id]) for f in dataset.frames],
            odometry=[
                dataclasses.replace(o, from_frame=new[o.from_frame], to_frame=new[o.to_frame])
                for o in dataset.odometry
            ],
            gt_trajectory=[(new[fid], x) for fid, x in dataset.gt_trajectory],
            gt_association=None,
        )
        assert {(o.from_frame, o.to_frame) for o in relabelled.odometry} >= {(2, 1), (1, 3)}
        for mode in ("incremental", "batch"):
            with pytest.raises(PipelineError, match=r"^frame 1: pose id 1 is not above"):
                run_slam(_run_config(mode=mode), relabelled, scene.prior_table())

    @pytest.mark.parametrize("mode", ["incremental", "batch"])
    def test_embedding_table_reaches_association(self, camera_module, mode):
        # One object seen twice from one pose, as a "mug" and then as a
        # "cup" whose box and depth place it 2 m to the side: the pair clears
        # the gate only with the semantic term, which the loaded table gives
        # (cup and mug lie 2.08 apart in it, under SEMANTIC_THRESHOLD 4.0).
        mug = Detection(BoundingBox2D(270, 190, 370, 290), "mug", 0.9, 4.0)
        cup = Detection(BoundingBox2D(20, 190, 120, 290), "cup", 0.9, 4.0)
        dataset = Dataset(
            camera_module, (640, 480), [Frame(0, (mug,)), Frame(1, (cup,))],
            [OdometryEntry(0, 1, Pose.identity())],
        )
        q = initialize_landmark(mug, Pose.identity(), camera_module)
        w = association_weight(
            [cup], (q.rotation[None], q.t[None], q.s[None]), ["mug"], Pose.identity(),
            camera_module, EmbeddingTable.empty(),
        )[0, 0]
        assert w < GATE <= w + SEMANTIC_WEIGHT
        landmarks = {}
        for table in (None, EMBEDDINGS):
            cfg = _run_config(mode=mode, paths={"embeddings": table})
            landmarks[table] = len(run_slam(cfg, dataset)[0].landmarks)
        assert landmarks == {None: 2, EMBEDDINGS: 1}

    def test_add_keyframe_builds_no_pose(self, small_world, monkeypatch):
        # run_slam decides each keyframe's pose; add_keyframe only appends it.
        dataset, scene = small_world
        built, inside = [], []
        check, add_keyframe = Pose.__post_init__, pipeline.add_keyframe

        def counting(x):
            if inside:
                built.append(x)
            check(x)

        def watched(*args, **kwargs):
            inside.append(True)
            try:
                return add_keyframe(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(Pose, "__post_init__", counting)
        monkeypatch.setattr(pipeline, "add_keyframe", watched)
        estimate, _, _ = run_slam(_run_config(mode="batch"), dataset, scene.prior_table())
        assert len(estimate.trajectory) == len(dataset.frames) == 10
        assert built == []


class TestLandmark:
    def test_quadric_round_trip(self, rng):
        lm = Landmark(3, (1.0, 0.0, 0.0, 0.0), (0.2, -0.1, 0.05), (0.1, 0.08, 0.02))
        q = lm.quadric()
        assert np.allclose(q.t, lm.centroid)
        assert np.allclose(q.s, lm.semi_axes)

    def test_rows_hold_the_quadrics_values(self, small_world):
        # Evaluation scores rows; they must carry the validated quadric's
        # bits, so that report.json does not depend on the form.
        dataset, scene = small_world
        estimate, _, _ = run_slam(_run_config(), dataset, scene.prior_table())
        landmarks = [lm for _, snap in estimate.snapshots for lm in snap]
        R, t, s = landmark_rows(landmarks)
        assert R.shape == (len(landmarks), 3, 3)
        for k, lm in enumerate(landmarks):
            q = lm.quadric()
            np.testing.assert_array_equal(R[k], q.rotation)
            np.testing.assert_array_equal(t[k], q.t)
            np.testing.assert_array_equal(s[k], q.s)
        assert [x.shape for x in landmark_rows(())] == [(0, 3, 3), (0, 3), (0, 3)]


def _set(path: list, value):
    """Mutation of a map document: set the entry at `path` to `value`."""

    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return mutate


def _repeat_first(path: list):
    """Mutation of a map document: the list at `path` repeats its entry 0 as
    its entry 1, so two entries share one key."""

    def mutate(doc):
        for key in path:
            doc = doc[key]
        doc[1] = copy.deepcopy(doc[0])

    return mutate


def _drop_centroid(doc):
    del doc["landmarks"][0]["centroid"]


# (mutation, what the error must say right after the file name)
MALFORMED_MAPS = {
    "missing-centroid": (_drop_centroid, " landmarks[0]: missing field 'centroid'"),
    "null-centroid": (_set(["landmarks", 0, "centroid"], None), " landmarks[0]:"),
    "landmarks-int": (_set(["landmarks"], 5), ": field 'landmarks' must be a list"),
    "landmark-nan-quaternion": (
        _set(["landmarks", 0, "rotation_quaternion"], [float("nan"), 0, 0, 0]),
        " landmarks[0]: field 'rotation_quaternion'",
    ),
    "trajectory-quaternion-norm-2": (
        _set(["trajectory", 1, "rotation_quaternion"], [2, 0, 0, 0]),
        " trajectory[1]: field 'rotation_quaternion'",
    ),
    "landmark-entry-int": (_set(["landmarks", 0], 5), " landmarks[0]: invalid record"),
    "landmark-negative-semi-axis": (
        _set(["landmarks", 0, "semi_axes"], [0.1, 0.1, -0.2]),
        " landmarks[0]: invalid record",
    ),
    "landmark-quaternion-norm-2": (
        _set(["landmarks", 0, "rotation_quaternion"], [2, 0, 0, 0]),
        " landmarks[0]: field 'rotation_quaternion'",
    ),
    "snapshot-negative-semi-axis": (
        _set(["snapshots", 1, "landmarks", 0, "semi_axes"], [0.1, -0.2, 0.1]),
        " snapshots[1] landmarks[0]: invalid record",
    ),
    "snapshot-quaternion-norm-2": (
        _set(["snapshots", 2, "landmarks", 0, "rotation_quaternion"], [2, 0, 0, 0]),
        " snapshots[2] landmarks[0]: field 'rotation_quaternion'",
    ),
    # Read into dicts by key, a second entry would replace the first: a
    # repeated trajectory frame moves the ATE, a repeated landmark adds an FP.
    "trajectory-duplicate-frame": (
        _repeat_first(["trajectory"]), " trajectory[1]: duplicate 'frame_id'"
    ),
    "landmark-duplicate-id": (_repeat_first(["landmarks"]), " landmarks[1]: duplicate 'id'"),
    "snapshot-duplicate-keyframe": (
        _repeat_first(["snapshots"]), " snapshots[1]: duplicate 'keyframe_index'"
    ),
    "snapshot-landmark-duplicate-id": (
        _repeat_first(["snapshots", 2, "landmarks"]),
        " snapshots[2] landmarks[1]: duplicate 'id'",
    ),
}


@pytest.fixture(scope="module")
def map_document(small_world, tmp_path_factory):
    dataset, scene = small_world
    estimate, _, _ = run_slam(_run_config(), dataset, scene.prior_table())
    path = tmp_path_factory.mktemp("map") / "map.json"
    write_map_json(estimate, path)
    doc = json.loads(path.read_text())
    assert len(doc["trajectory"]) > 1 and len(doc["snapshots"]) > 2
    return doc


class TestFileFormats:
    @pytest.mark.parametrize("case", list(MALFORMED_MAPS))
    def test_malformed_map_entries_are_schema_errors(self, map_document, tmp_path, case):
        mutate, message = MALFORMED_MAPS[case]
        doc = copy.deepcopy(map_document)
        mutate(doc)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as exc:
            load_map_json(path)
        assert f"{path}{message}" in str(exc.value)

    def test_map_json_syntax_error_names_file(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"landmarks": [\n')
        with pytest.raises(ParseError, match=f"{path}:2: invalid JSON"):
            load_map_json(path)

    def test_map_json_round_trip(self, small_world, tmp_path):
        dataset, scene = small_world
        estimate, _, _ = run_slam(_run_config(), dataset, scene.prior_table())
        path = tmp_path / "map.json"
        write_map_json(estimate, path)
        loaded = load_map_json(path)
        assert loaded.landmarks == estimate.landmarks
        assert loaded.labels == estimate.labels
        assert loaded.snapshots == estimate.snapshots
        assert len(loaded.trajectory) == len(estimate.trajectory)
        for (fa, xa), (fb, xb) in zip(loaded.trajectory, estimate.trajectory):
            assert fa == fb
            assert np.allclose(xa.rotation, xb.rotation, atol=1e-12)
            assert np.allclose(xa.translation, xb.translation, atol=1e-12)

    @pytest.mark.parametrize("mode", ["incremental", "batch"])
    def test_evaluate_reproduces_run_report(self, small_world, tmp_path, mode):
        # evaluate scores the landmarks map.json holds, which are the ones
        # run scored: the reports agree to the last bit, iou_series too.
        dataset, _ = small_world
        ds_dir = tmp_path / "ds"
        write_dataset(dataset, ds_dir)
        cfg = _run_config(
            paths={"output_dir": str(tmp_path / "out"), "dataset": str(ds_dir)}, mode=mode
        )
        out = run_to_files(cfg)
        report = evaluate_files(out / "map.json", ds_dir)
        assert report.to_json() == json.loads((out / "report.json").read_text())

    def test_run_to_files_artifacts(self, small_world, tmp_path):
        dataset, scene = small_world
        out_dir = tmp_path / "out"
        ds_dir = tmp_path / "ds"
        write_dataset(dataset, ds_dir)
        cfg = _run_config(
            paths={"output_dir": str(out_dir), "dataset": str(ds_dir)}, mode="batch"
        )
        out = run_to_files(cfg)
        for name in ("map.json", "solve.json", "report.json", "iou_series.csv"):
            assert (out / name).exists(), name
        report = evaluate_files(out / "map.json", ds_dir)
        assert report.tp == 3 and report.fp == 0

    def test_run_to_files_deterministic_bytes(self, small_world, tmp_path):
        dataset, scene = small_world
        outs = []
        for name in ("a", "b"):
            cfg = _run_config(paths={"output_dir": str(tmp_path / name)}, mode="batch")
            outs.append(run_to_files(cfg, dataset))
        assert (outs[0] / "map.json").read_bytes() == (outs[1] / "map.json").read_bytes()
        assert (
            outs[0] / "solve.json"
        ).read_bytes() == (outs[1] / "solve.json").read_bytes()

    def test_empty_ground_truth_makes_every_landmark_false(self, small_world, tmp_path):
        # Ground truth with no objects is not missing ground truth.
        dataset, _ = small_world
        landmarks = tuple(
            Landmark(i, (1.0, 0.0, 0.0, 0.0), (0.3 * i, 0.0, 0.0), (0.1, 0.1, 0.1))
            for i in range(4)
        )
        estimate = MapEstimate(
            landmarks, {i: "mug" for i in range(4)}, tuple(dataset.gt_trajectory),
            ((9, landmarks),),
        )
        write_map_json(estimate, tmp_path / "map.json")
        # Association pairs would name objects the empty file does not hold.
        empty = dataclasses.replace(dataset, gt_objects=[], gt_association=None)
        write_dataset(empty, tmp_path / "ds")
        report = evaluate_files(tmp_path / "map.json", tmp_path / "ds")
        assert (report.tp, report.fp, report.fn) == (0, 4, 0)
        assert report.objects == () and report.iou_series == ((9, None, None),)

    def test_evaluate_files_requires_ground_truth(self, small_world, tmp_path):
        dataset, scene = small_world
        estimate, _, _ = run_slam(_run_config(mode="batch"), dataset, scene.prior_table())
        write_map_json(estimate, tmp_path / "map.json")
        bare = dataclasses.replace(
            dataset, gt_objects=None, gt_trajectory=None, gt_association=None
        )
        write_dataset(bare, tmp_path / "ds")
        with pytest.raises(ValueError, match="ground-truth"):
            evaluate_files(tmp_path / "map.json", tmp_path / "ds")


class TestDrivers:
    def test_run_simulate_writes_dataset(self, tmp_path):
        cfg = build_run_config(
            {
                "scene": {"n_objects": 3, "n_frames": 5},
                "paths": {"output_dir": str(tmp_path / "sim")},
            }
        )
        out = run_simulate(cfg)
        dataset = load_dataset(out)
        assert len(dataset.frames) == 5
        assert len(dataset.gt_objects) == 3
        table = parse_prior_csv((out / "priors.csv").read_text())
        assert set(table.records) == {g.label for g in dataset.gt_objects}

    def test_run_gen_priors_fixture(self, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("mug\nbook\nlamp\n")
        response = (
            "object,length,width,height,orientation\n"
            "mug,0.12,0.085,0.1,2\n"
            "book,0.24,bad,0.035,1\n"
            "lamp,0.17,0.12,0.4,0\n"
        )
        client = FixtureLLMClient(response=response)
        out_csv = tmp_path / "priors.csv"
        table = run_gen_priors(vocab, out_csv, client)
        assert len(table) == 3
        assert table.flagged == {"book"}
        assert client.call_count == 1
        reloaded = parse_prior_csv(out_csv.read_text())
        assert set(reloaded.records) == {"mug", "book", "lamp"}
