from __future__ import annotations

import json

import numpy as np
import pytest

from objslam.dataset import (
    FRAMES_FILE,
    GT_ASSOCIATION_FILE,
    GT_OBJECTS_FILE,
    GT_TRAJECTORY_FILE,
    HEADER_FILE,
    ODOMETRY_FILE,
    Dataset,
    Detection,
    Frame,
    GroundTruthObject,
    Landmark,
    MapEstimate,
    OdometryEntry,
    ParseError,
    SchemaError,
    load_dataset,
    load_map_json,
    write_dataset,
    write_map_json,
)
from objslam.geometry import BoundingBox2D, CameraIntrinsics, Pose

from conftest import random_pose, random_quadric
from helpers import pose_matrix


def make_dataset(rng: np.random.Generator, n_frames: int = 4) -> Dataset:
    frames = []
    for i in range(n_frames):
        dets = tuple(
            Detection(
                BoundingBox2D(10.0 * i + j, 20.0, 10.0 * i + j + 30.0, 80.0),
                label=f"obj{j}",
                confidence=0.5 + 0.1 * j,
                center_depth=2.0 + j if j % 2 == 0 else None,
            )
            for j in range(i % 3)
        )
        frames.append(Frame(frame_id=i, detections=dets))
    odometry = [OdometryEntry(i, i + 1, random_pose(rng)) for i in range(n_frames - 1)]
    gt_trajectory = [(i, random_pose(rng)) for i in range(n_frames)]
    gt_objects = [
        GroundTruthObject("mug", random_quadric(rng)),
        GroundTruthObject("bottle", random_quadric(rng)),
    ]
    gt_association = {1: [(0, 0)], 2: [(0, 1), (1, 0)]}
    return Dataset(
        intrinsics=CameraIntrinsics(500.0, 480.0, 320.0, 240.0),
        image_size=(640, 480),
        frames=frames,
        odometry=odometry,
        gt_objects=gt_objects,
        gt_trajectory=gt_trajectory,
        gt_association=gt_association,
    )


def set_first_record_field(path, key, value) -> None:
    """Set one field of the header, or of the first record of a JSONL file."""
    if path.name == HEADER_FILE:
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        return
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record[key] = value
    lines[0] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path, rng):
        ds = make_dataset(rng)
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)

        assert loaded.intrinsics == ds.intrinsics
        assert loaded.image_size == ds.image_size
        assert len(loaded.frames) == len(ds.frames)
        for fa, fb in zip(loaded.frames, ds.frames):
            assert fa.frame_id == fb.frame_id
            assert len(fa.detections) == len(fb.detections)
            for da, db in zip(fa.detections, fb.detections):
                assert da.label == db.label
                assert da.confidence == pytest.approx(db.confidence)
                if db.center_depth is None:
                    assert da.center_depth is None
                else:
                    assert da.center_depth == pytest.approx(db.center_depth)
                np.testing.assert_allclose(da.bbox.as_array(), db.bbox.as_array(), atol=1e-12)
        for oa, ob in zip(loaded.odometry, ds.odometry):
            assert (oa.from_frame, oa.to_frame) == (ob.from_frame, ob.to_frame)
            np.testing.assert_allclose(oa.relative.rotation, ob.relative.rotation, atol=1e-9)
            np.testing.assert_allclose(
                oa.relative.translation, ob.relative.translation, atol=1e-12
            )
        for (ia, pa), (ib, pb) in zip(loaded.gt_trajectory, ds.gt_trajectory):
            assert ia == ib
            np.testing.assert_allclose(pa.rotation, pb.rotation, atol=1e-9)
            np.testing.assert_allclose(pa.translation, pb.translation, atol=1e-12)
        for ga, gb in zip(loaded.gt_objects, ds.gt_objects):
            assert ga.label == gb.label
            np.testing.assert_allclose(ga.quadric.s, gb.quadric.s, atol=1e-12)
            np.testing.assert_allclose(ga.quadric.t, gb.quadric.t, atol=1e-12)
            np.testing.assert_allclose(
                ga.quadric.rotation, gb.quadric.rotation, atol=1e-9
            )
        assert loaded.gt_association == ds.gt_association

    def test_round_trip_without_ground_truth(self, tmp_path, rng):
        ds = make_dataset(rng)
        ds = Dataset(ds.intrinsics, ds.image_size, ds.frames, ds.odometry)
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.gt_trajectory is None
        assert loaded.gt_objects is None
        assert loaded.gt_association is None

    def test_empty_detections_are_valid(self, tmp_path, rng):
        ds = Dataset(
            intrinsics=CameraIntrinsics(500.0, 480.0, 320.0, 240.0),
            image_size=(640, 480),
            frames=[Frame(0, ()), Frame(1, ())],
            odometry=[OdometryEntry(0, 1, random_pose(rng))],
        )
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert [f.detections for f in loaded.frames] == [(), ()]

    def test_written_bytes_are_deterministic(self, tmp_path, rng):
        ds = make_dataset(rng)
        a, b = tmp_path / "a", tmp_path / "b"
        write_dataset(ds, a)
        write_dataset(ds, b)
        for name in (HEADER_FILE, FRAMES_FILE, ODOMETRY_FILE, GT_OBJECTS_FILE, GT_TRAJECTORY_FILE):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestValidation:
    def test_detection_rejects_bad_confidence(self):
        box = BoundingBox2D(0, 0, 10, 10)
        with pytest.raises(ValueError):
            Detection(box, "mug", confidence=1.5)
        with pytest.raises(ValueError):
            Detection(box, "mug", confidence=-0.1)

    def test_detection_rejects_empty_label(self):
        with pytest.raises(ValueError):
            Detection(BoundingBox2D(0, 0, 10, 10), "", confidence=0.5)

    def test_detection_rejects_nonpositive_depth(self):
        for depth in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                Detection(BoundingBox2D(0, 0, 10, 10), "mug", 0.5, center_depth=depth)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    def test_intrinsics_reject_non_finite(self, field):
        values = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, field: np.nan}
        with pytest.raises(ValueError, match=field):
            CameraIntrinsics(**values)

    def test_non_finite_depth_in_file_is_schema_error(self, tmp_path, rng):
        # Python's json reads the NaN and Infinity literals as floats.
        write_dataset(make_dataset(rng), tmp_path)
        frames_path = tmp_path / FRAMES_FILE
        lines = frames_path.read_text().splitlines()
        record = json.loads(lines[1])
        record["detections"][0]["center_depth"] = float("nan")
        lines[1] = json.dumps(record, sort_keys=True)
        assert "NaN" in lines[1]
        frames_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path)
        assert f"{FRAMES_FILE}:2:" in str(exc.value)
        assert "center depth must be finite" in str(exc.value)

    def test_infinite_bbox_side_in_file_is_schema_error(self, tmp_path, rng):
        # An infinite side would pass xmin < xmax and read as truncated.
        write_dataset(make_dataset(rng), tmp_path)
        frames_path = tmp_path / FRAMES_FILE
        lines = frames_path.read_text().splitlines()
        record = json.loads(lines[1])
        record["detections"][0]["bbox"][0] = float("-inf")
        lines[1] = json.dumps(record, sort_keys=True)
        assert "-Infinity" in lines[1]
        frames_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path)
        assert f"{FRAMES_FILE}:2:" in str(exc.value)
        assert "box sides must be finite" in str(exc.value)

    def test_non_finite_intrinsics_in_header_is_schema_error(self, tmp_path, rng):
        write_dataset(make_dataset(rng), tmp_path)
        header = json.loads((tmp_path / HEADER_FILE).read_text())
        header["intrinsics"]["fx"] = float("nan")
        (tmp_path / HEADER_FILE).write_text(json.dumps(header))
        assert "NaN" in (tmp_path / HEADER_FILE).read_text()
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path)
        assert HEADER_FILE in str(exc.value)
        assert "fx must be finite" in str(exc.value)

    def test_parse_error_carries_line_number(self, tmp_path, rng):
        ds = make_dataset(rng)
        write_dataset(ds, tmp_path)
        frames_path = tmp_path / FRAMES_FILE
        lines = frames_path.read_text().splitlines()
        lines[2] = lines[2][:-5] + "!!!"
        frames_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(tmp_path)
        assert ":3" in str(exc.value)
        assert FRAMES_FILE in str(exc.value)

    def test_header_parse_error_names_its_line(self, tmp_path, rng):
        # The header is an indented document; the error is on line 4 of it.
        write_dataset(make_dataset(rng), tmp_path)
        header_path = tmp_path / HEADER_FILE
        lines = header_path.read_text().splitlines()
        assert len(lines) > 4
        lines[3] += " !!!"
        header_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"{header_path}:4: invalid JSON"):
            load_dataset(tmp_path)

    def test_missing_header_field(self, tmp_path, rng):
        ds = make_dataset(rng)
        write_dataset(ds, tmp_path)
        header = json.loads((tmp_path / HEADER_FILE).read_text())
        del header["intrinsics"]["fx"]
        (tmp_path / HEADER_FILE).write_text(json.dumps(header))
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path)
        assert "fx" in str(exc.value)

    def test_missing_detection_field(self, tmp_path, rng):
        ds = make_dataset(rng)
        write_dataset(ds, tmp_path)
        frames_path = tmp_path / FRAMES_FILE
        lines = frames_path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["detections"][0]["label"]
        lines[1] = json.dumps(record, sort_keys=True)
        frames_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path)
        assert "label" in str(exc.value)

    def test_frame_ids_must_increase(self, tmp_path, rng):
        ds = make_dataset(rng)
        write_dataset(ds, tmp_path)
        frames_path = tmp_path / FRAMES_FILE
        lines = frames_path.read_text().splitlines()
        lines.append(lines[1])  # duplicate an earlier frame at the end
        frames_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path)
        assert "frame_id" in str(exc.value)

    def test_odometry_must_cover_consecutive_pairs(self, tmp_path, rng):
        ds = make_dataset(rng)
        write_dataset(ds, tmp_path)
        odo_path = tmp_path / ODOMETRY_FILE
        lines = odo_path.read_text().splitlines()
        odo_path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last edge
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path)
        assert "odometry" in str(exc.value)

    def test_odometry_rejects_duplicates(self, tmp_path, rng):
        ds = make_dataset(rng)
        write_dataset(ds, tmp_path)
        odo_path = tmp_path / ODOMETRY_FILE
        lines = odo_path.read_text().splitlines()
        lines.append(lines[0])
        odo_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            load_dataset(tmp_path)

    def test_odometry_rejects_nonconsecutive_pair(self, tmp_path, rng):
        ds = make_dataset(rng)
        write_dataset(ds, tmp_path)
        odo_path = tmp_path / ODOMETRY_FILE
        lines = odo_path.read_text().splitlines()
        record = json.loads(lines[0])
        record["from_frame"], record["to_frame"] = 0, 2
        lines[0] = json.dumps(record, sort_keys=True)
        odo_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            load_dataset(tmp_path)

    def test_quaternion_norm_is_checked(self, tmp_path, rng):
        ds = make_dataset(rng)
        write_dataset(ds, tmp_path)
        odo_path = tmp_path / ODOMETRY_FILE
        lines = odo_path.read_text().splitlines()
        record = json.loads(lines[0])
        record["rotation_quaternion"] = [0.5, 0.5, 0.5, 0.6]
        lines[0] = json.dumps(record, sort_keys=True)
        odo_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path)
        assert "quaternion" in str(exc.value).lower()

    def test_blank_lines_are_skipped(self, tmp_path, rng):
        ds = make_dataset(rng)
        write_dataset(ds, tmp_path)
        frames_path = tmp_path / FRAMES_FILE
        text = frames_path.read_text()
        frames_path.write_text("\n" + text.replace("\n", "\n\n", 1))
        loaded = load_dataset(tmp_path)
        assert len(loaded.frames) == len(ds.frames)

    def test_missing_directory(self, tmp_path):
        with pytest.raises((ParseError, SchemaError)):
            load_dataset(tmp_path / "nope")

    @pytest.mark.parametrize(
        "file_name, key, value",
        [
            (HEADER_FILE, "image_size", ["a", 480]),
            (ODOMETRY_FILE, "translation", [None, 0, 0]),
            (FRAMES_FILE, "detections", 5),
            (GT_ASSOCIATION_FILE, "pairs", [[1]]),
        ],
        ids=["image-size-string", "translation-null", "detections-int", "pair-too-short"],
    )
    def test_wrong_value_types_are_schema_errors(self, tmp_path, rng, file_name, key, value):
        write_dataset(make_dataset(rng), tmp_path)
        set_first_record_field(tmp_path / file_name, key, value)
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path)
        where = file_name if file_name == HEADER_FILE else f"{file_name}:1:"
        assert where in str(exc.value)

    @pytest.mark.parametrize(
        "size",
        [[640.7, True], [640.7, 480], [640, True], [640.0, 480], [0, 480], [640, -1],
         [640], [640, 480, 3], "640x480"],
    )
    def test_image_size_must_be_two_positive_integers(self, tmp_path, rng, size):
        write_dataset(make_dataset(rng), tmp_path)
        set_first_record_field(tmp_path / HEADER_FILE, "image_size", size)
        with pytest.raises(SchemaError) as exc:
            load_dataset(tmp_path)
        assert HEADER_FILE in str(exc.value)
        assert "'image_size' must be two positive integers" in str(exc.value)


MAP_FILE = "map.json"


def make_map() -> MapEstimate:
    lm = Landmark(0, (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 2.0), (0.1, 0.1, 0.1))
    return MapEstimate((lm,), {0: "mug"}, ((0, Pose.identity()),), ((0, (lm,)),))


INTEGER_FIELDS = [
    (FRAMES_FILE, ("frame_id",), "frame_id"),
    (ODOMETRY_FILE, ("from_frame",), "from_frame"),
    (ODOMETRY_FILE, ("to_frame",), "to_frame"),
    (GT_TRAJECTORY_FILE, ("frame_id",), "frame_id"),
    (GT_ASSOCIATION_FILE, ("frame_id",), "frame_id"),
    (GT_ASSOCIATION_FILE, ("pairs", 0, 0), "pairs[0][0]"),
    (GT_ASSOCIATION_FILE, ("pairs", 0, 1), "pairs[0][1]"),
    (MAP_FILE, ("landmarks", 0, "id"), "id"),
    (MAP_FILE, ("trajectory", 0, "frame_id"), "frame_id"),
    (MAP_FILE, ("snapshots", 0, "keyframe_index"), "keyframe_index"),
    (MAP_FILE, ("snapshots", 0, "landmarks", 0, "id"), "id"),
]


@pytest.mark.parametrize("value", [0.9, 1.0, True])
@pytest.mark.parametrize(
    "file_name, path, name", INTEGER_FIELDS,
    ids=[".".join(map(str, (f.split(".")[0],) + path)) for f, path, _ in INTEGER_FIELDS],
)
def test_ids_must_be_json_integers(tmp_path, rng, file_name, path, name, value):
    """An id is read as written or refused: 0.9 is not truncated to 0 and
    true is not taken for 1."""
    write_dataset(make_dataset(rng), tmp_path)
    write_map_json(make_map(), tmp_path / MAP_FILE)
    target = tmp_path / file_name
    lines = target.read_text().splitlines()
    # The first record of a JSONL file, or the whole map document.
    doc = json.loads("".join(lines) if file_name == MAP_FILE else lines[0])
    field = doc
    for key in path[:-1]:
        field = field[key]
    field[path[-1]] = value
    if file_name == MAP_FILE:
        target.write_text(json.dumps(doc))
    else:
        target.write_text("\n".join([json.dumps(doc)] + lines[1:]) + "\n")
    with pytest.raises(SchemaError) as exc:
        load_map_json(target) if file_name == MAP_FILE else load_dataset(tmp_path)
    message = str(exc.value)
    assert (MAP_FILE if file_name == MAP_FILE else f"{file_name}:1:") in message
    assert f"field {name!r} must be an integer, got {value!r}" in message


def load_error_with(tmp_path, rng, file_name, line, path, value) -> str:
    """The SchemaError message of loading a written dataset, or map, in
    which the entry at ``path`` of one record (the JSONL file's ``line``, or
    the whole document when None) is set to ``value``."""
    write_dataset(make_dataset(rng), tmp_path)
    write_map_json(make_map(), tmp_path / MAP_FILE)
    target = tmp_path / file_name
    lines = target.read_text().splitlines()
    doc = json.loads("".join(lines) if line is None else lines[line - 1])
    field = doc
    for key in path[:-1]:
        field = field[key]
    field[path[-1]] = value
    if line is None:
        target.write_text(json.dumps(doc))
    else:
        lines[line - 1] = json.dumps(doc)
        target.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError) as exc:
        load_map_json(target) if file_name == MAP_FILE else load_dataset(tmp_path)
    return str(exc.value)


# (file, line of the record in a JSONL file or None for a whole document,
# path to the value, field name in the error). Frame 0 has no detections, so
# the detection fields are read from frame 1, on line 2.
NUMBER_FIELDS = [
    (HEADER_FILE, None, ("intrinsics", "fx"), "fx"),
    (HEADER_FILE, None, ("intrinsics", "fy"), "fy"),
    (HEADER_FILE, None, ("intrinsics", "cx"), "cx"),
    (HEADER_FILE, None, ("intrinsics", "cy"), "cy"),
    (FRAMES_FILE, 2, ("detections", 0, "bbox", 2), "bbox"),
    (FRAMES_FILE, 2, ("detections", 0, "confidence"), "confidence"),
    (FRAMES_FILE, 2, ("detections", 0, "center_depth"), "center_depth"),
    (ODOMETRY_FILE, 1, ("rotation_quaternion", 0), "rotation_quaternion"),
    (ODOMETRY_FILE, 1, ("translation", 1), "translation"),
    (GT_OBJECTS_FILE, 1, ("rotation_quaternion", 3), "rotation_quaternion"),
    (GT_OBJECTS_FILE, 1, ("center", 0), "center"),
    (GT_OBJECTS_FILE, 1, ("half_extents", 2), "half_extents"),
    (GT_TRAJECTORY_FILE, 1, ("rotation_quaternion", 1), "rotation_quaternion"),
    (GT_TRAJECTORY_FILE, 1, ("translation", 2), "translation"),
    (MAP_FILE, None, ("landmarks", 0, "rotation_quaternion", 0), "rotation_quaternion"),
    (MAP_FILE, None, ("landmarks", 0, "centroid", 2), "centroid"),
    (MAP_FILE, None, ("landmarks", 0, "semi_axes", 0), "semi_axes"),
    (MAP_FILE, None, ("trajectory", 0, "translation", 0), "translation"),
    (MAP_FILE, None, ("snapshots", 0, "landmarks", 0, "centroid", 1), "centroid"),
]


@pytest.mark.parametrize("value", [True, False, "500"])
@pytest.mark.parametrize(
    "file_name, line, path, name", NUMBER_FIELDS,
    ids=[".".join(map(str, (f.split(".")[0],) + path)) for f, _, path, _ in NUMBER_FIELDS],
)
def test_numbers_must_be_json_numbers(tmp_path, rng, file_name, line, path, name, value):
    """A number is read only from a JSON number: true is not taken for 1.0,
    false for 0.0 or "500" for 500.0."""
    message = load_error_with(tmp_path, rng, file_name, line, path, value)
    assert (file_name if line is None else f"{file_name}:{line}:") in message
    assert f"field {name!r} must be a number, got {value!r}" in message


# (file, line of the record in a JSONL file or None for a whole document,
# path to the label, where the error says it is). Frame 0 has no
# detections, so the detection label is read from frame 1, on line 2.
STRING_FIELDS = [
    (FRAMES_FILE, 2, ("detections", 0, "label"), f"{FRAMES_FILE}:2:"),
    (GT_OBJECTS_FILE, 1, ("label",), f"{GT_OBJECTS_FILE}:1:"),
    (MAP_FILE, None, ("landmarks", 0, "label"), f"{MAP_FILE} landmarks[0]:"),
]


@pytest.mark.parametrize("value", [None, 7, ["mug"]])
@pytest.mark.parametrize(
    "file_name, line, path, at", STRING_FIELDS,
    ids=[".".join(map(str, (f.split(".")[0],) + path)) for f, _, path, _ in STRING_FIELDS],
)
def test_labels_must_be_json_strings(tmp_path, rng, file_name, line, path, at, value):
    """A label is read only from a JSON string: null, 7 and ["mug"] are not
    turned into "None", "7" and "['mug']"."""
    message = load_error_with(tmp_path, rng, file_name, line, path, value)
    assert at in message
    assert f"field 'label' must be a string, got {value!r}" in message


def test_duplicate_ground_truth_frame_is_schema_error(tmp_path, rng):
    # A second record for frame 1 would silently replace the first.
    write_dataset(make_dataset(rng), tmp_path)
    target = tmp_path / GT_ASSOCIATION_FILE
    lines = target.read_text().splitlines()
    assert len(lines) == 2 and json.loads(lines[0])["frame_id"] == 1
    target.write_text("\n".join(lines + [json.dumps({"frame_id": 1, "pairs": [[0, 1]]})]) + "\n")
    with pytest.raises(SchemaError) as exc:
        load_dataset(tmp_path)
    assert f"{GT_ASSOCIATION_FILE}:3: duplicate 'frame_id' 1" in str(exc.value)


# A second-line record of gt_association.jsonl that names something the
# dataset does not hold. Frame 2 has two detections; there are two objects.
BAD_PAIRS = {
    "unknown-frame": ({"frame_id": 4, "pairs": [[0, 0]]},
                      f"frame 4 is not in {FRAMES_FILE}"),
    "detection-outside-frame": ({"frame_id": 2, "pairs": [[0, 1], [2, 0]]},
                                "field 'pairs[1][0]': frame 2 has no detection 2"),
    "object-outside-gt": ({"frame_id": 2, "pairs": [[0, 1], [1, 2]]},
                          f"field 'pairs[1][1]': object 2 is not in {GT_OBJECTS_FILE}"),
    "detection-twice": ({"frame_id": 2, "pairs": [[1, 1], [1, 0]]},
                        "field 'pairs[1][0]': detection 1 paired twice"),
}


@pytest.mark.parametrize("record, message", BAD_PAIRS.values(), ids=BAD_PAIRS.keys())
def test_ground_truth_pairs_name_what_the_dataset_holds(tmp_path, rng, record, message):
    write_dataset(make_dataset(rng), tmp_path)
    target = tmp_path / GT_ASSOCIATION_FILE
    lines = target.read_text().splitlines()
    target.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
    with pytest.raises(SchemaError) as exc:
        load_dataset(tmp_path)
    assert f"{GT_ASSOCIATION_FILE}:2: {message}" in str(exc.value)


def test_duplicate_trajectory_frame_is_schema_error(tmp_path, rng):
    # A second pose for frame 0 would silently become the start pose and
    # the frame's ATE reference.
    write_dataset(make_dataset(rng), tmp_path)
    target = tmp_path / GT_TRAJECTORY_FILE
    lines = target.read_text().splitlines()
    assert len(lines) == 4 and json.loads(lines[0])["frame_id"] == 0
    moved = dict(json.loads(lines[0]), translation=[9.0, 9.0, 9.0])
    target.write_text("\n".join(lines + [json.dumps(moved)]) + "\n")
    with pytest.raises(SchemaError) as exc:
        load_dataset(tmp_path)
    assert f"{GT_TRAJECTORY_FILE}:5: duplicate 'frame_id' 0" in str(exc.value)


class TestHelpers:
    def test_odometry_by_pair(self, rng):
        ds = make_dataset(rng)
        table = ds.odometry_by_pair()
        assert set(table) == {(0, 1), (1, 2), (2, 3)}
        np.testing.assert_allclose(
            pose_matrix(table[(1, 2)]), pose_matrix(ds.odometry[1].relative), atol=1e-12
        )
