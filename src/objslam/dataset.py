"""On-disk dataset layout and record schemas.

A dataset is a directory:

- ``header.json``: camera intrinsics and image size;
- ``frames.jsonl``: one record per keyframe with its detections;
- ``odometry.jsonl``: one relative-pose record per consecutive frame pair;
- ``gt_objects.jsonl``, ``gt_trajectory.jsonl``, ``gt_association.jsonl``
  (optional): ground truth for evaluation.

Rotations appear on disk as unit quaternions in (w, x, y, z) order.
``ParseError`` carries file and line number. ``SchemaError`` names the
file and line of the offending record, and the field where it is known; a
record whose values have the wrong type or range raises it too.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    Pose,
    Quadric,
    matrix_to_quat,
    quat_to_matrix,
)

HEADER_FILE = "header.json"
FRAMES_FILE = "frames.jsonl"
ODOMETRY_FILE = "odometry.jsonl"
GT_OBJECTS_FILE = "gt_objects.jsonl"
GT_TRAJECTORY_FILE = "gt_trajectory.jsonl"
GT_ASSOCIATION_FILE = "gt_association.jsonl"

T = TypeVar("T")


class ParseError(ValueError):
    """Malformed JSON; message includes file and line number."""


class SchemaError(ValueError):
    """Structurally valid JSON with invalid content; message names the field."""


@dataclass(frozen=True)
class Detection:
    """Single 2D detection: box, class label, confidence, optional depth of
    the box center (meters along the optical axis)."""

    bbox: BoundingBox2D
    label: str
    confidence: float
    center_depth: float | None = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("detection label must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")
        if self.center_depth is not None and not 0.0 < self.center_depth < math.inf:
            raise ValueError(f"center depth must be finite and positive, got {self.center_depth}")


@dataclass(frozen=True)
class Frame:
    frame_id: int
    detections: tuple[Detection, ...]


@dataclass(frozen=True)
class OdometryEntry:
    from_frame: int
    to_frame: int
    relative: Pose


@dataclass(frozen=True)
class GroundTruthObject:
    label: str
    quadric: Quadric


@dataclass
class Dataset:
    intrinsics: CameraIntrinsics
    image_size: tuple[int, int]
    frames: list[Frame]
    odometry: list[OdometryEntry]
    gt_objects: list[GroundTruthObject] | None = None
    gt_trajectory: list[tuple[int, Pose]] | None = None
    gt_association: dict[int, list[tuple[int, int]]] | None = None

    def odometry_by_pair(self) -> dict[tuple[int, int], Pose]:
        return {(o.from_frame, o.to_frame): o.relative for o in self.odometry}


def _dump_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "))


def _quat_list(R: np.ndarray) -> list[float]:
    return [float(v) for v in matrix_to_quat(R)]


def _vec_list(v: np.ndarray) -> list[float]:
    return [float(x) for x in np.asarray(v)]


def detection_to_json(det: Detection) -> dict:
    return {
        "bbox": _vec_list(det.bbox.as_array()),
        "label": det.label,
        "confidence": float(det.confidence),
        "center_depth": None if det.center_depth is None else float(det.center_depth),
    }


def _require(record: dict, key: str, where: str):
    if key not in record:
        raise SchemaError(f"{where}: missing field {key!r}")
    return record[key]


def _integer(record: dict, key: str, where: str) -> int:
    """The record's field ``key``, which must be a JSON integer: a float such
    as 0.9 is not truncated and a bool is not taken for 0 or 1."""
    value = _require(record, key, where)
    if type(value) is not int:
        raise SchemaError(f"{where}: field {key!r} must be an integer, got {value!r}")
    return value


def _string(record: dict, key: str, where: str) -> str:
    """The record's field ``key``, which must be a JSON string: null, 7 or
    ["mug"] is not turned into "None", "7" or "['mug']"."""
    value = _require(record, key, where)
    if type(value) is not str:
        raise SchemaError(f"{where}: field {key!r} must be a string, got {value!r}")
    return value


def _number(value, key: str, where: str) -> float:
    """``value``, the field ``key`` or one entry of it, as a float. It must
    be a JSON number: a bool is not taken for 0 or 1, nor "500" for 500."""
    if type(value) not in (int, float):
        raise SchemaError(f"{where}: field {key!r} must be a number, got {value!r}")
    return float(value)


@contextmanager
def _record(where: str) -> Iterator[None]:
    """Report a TypeError, ValueError or IndexError raised while one record
    is parsed as a SchemaError naming the record's file and line."""
    try:
        yield
    except SchemaError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"{where}: invalid record: {exc}") from exc


def detection_from_json(record: dict, where: str) -> Detection:
    bbox = _require(record, "bbox", where)
    if not (isinstance(bbox, list) and len(bbox) == 4):
        raise SchemaError(f"{where}: field 'bbox' must be a 4-element list")
    label = _string(record, "label", where)
    confidence = _require(record, "confidence", where)
    depth = record.get("center_depth")
    return Detection(
        BoundingBox2D(*[_number(v, "bbox", where) for v in bbox]),
        label,
        _number(confidence, "confidence", where),
        None if depth is None else _number(depth, "center_depth", where),
    )


def _quaternion(record: dict, where: str) -> np.ndarray:
    """The record's 'rotation_quaternion' as read: four finite numbers of
    unit norm within 1e-6, in (w, x, y, z) order."""
    quat = _require(record, "rotation_quaternion", where)
    if not (isinstance(quat, list) and len(quat) == 4):
        raise SchemaError(f"{where}: field 'rotation_quaternion' must have 4 entries")
    q = np.array([_number(v, "rotation_quaternion", where) for v in quat])
    norm = float(np.linalg.norm(q))
    if not abs(norm - 1.0) <= 1e-6:  # NaN and inf entries fail too
        raise SchemaError(
            f"{where}: field 'rotation_quaternion' must be finite and unit norm, "
            f"got norm {norm:.8f}"
        )
    return q


def _vector3(record: dict, key: str, where: str) -> np.ndarray:
    v = _require(record, key, where)
    if not (isinstance(v, list) and len(v) == 3):
        raise SchemaError(f"{where}: field {key!r} must have 3 entries")
    return np.array([_number(x, key, where) for x in v])


def _pose_from_record(record: dict, where: str) -> Pose:
    rotation = quat_to_matrix(_quaternion(record, where))
    return Pose(rotation, _vector3(record, "translation", where))


def _read_jsonl(path: Path, parse: Callable[[dict, str], T]) -> list[T]:
    """parse(record, where) of every non-blank line, where is "file:line"."""
    out = []
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: invalid JSON: {exc.msg}") from exc
            with _record(where):
                out.append(parse(record, where))
    return out


def _write_jsonl(path: Path, records: Iterable[dict]) -> None:
    """One line per record, the inverse of :func:`_read_jsonl`."""
    with open(path, "w") as f:
        for record in records:
            f.write(_dump_line(record) + "\n")


def _frame_from_json(record: dict, where: str) -> Frame:
    frame_id = _integer(record, "frame_id", where)
    dets = _require(record, "detections", where)
    return Frame(frame_id, tuple(detection_from_json(d, where) for d in dets))


def _odometry_from_json(record: dict, where: str) -> OdometryEntry:
    a, b = (_integer(record, key, where) for key in ("from_frame", "to_frame"))
    return OdometryEntry(a, b, _pose_from_record(record, where))


def _gt_object_from_json(record: dict, where: str) -> GroundTruthObject:
    label = _string(record, "label", where)
    rotation = quat_to_matrix(_quaternion(record, where))
    center = _vector3(record, "center", where)
    half = _vector3(record, "half_extents", where)
    return GroundTruthObject(label, Quadric(rotation, center, half))


def _frame_pose_from_json(record: dict, where: str) -> tuple[int, Pose]:
    return _integer(record, "frame_id", where), _pose_from_record(record, where)


def _gt_pairs_from_json(record: dict, where: str) -> tuple[int, list[tuple[int, int]]]:
    pairs = _require(record, "pairs", where)
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise SchemaError(f"{where}: field 'pairs' must hold [detection, object] pairs")
    named = [{f"pairs[{i}][{k}]": v for k, v in enumerate(p)} for i, p in enumerate(pairs)]
    return _integer(record, "frame_id", where), [
        tuple(_integer(pair, key, where) for key in pair) for pair in named
    ]


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    header = {
        "intrinsics": {
            "fx": dataset.intrinsics.fx,
            "fy": dataset.intrinsics.fy,
            "cx": dataset.intrinsics.cx,
            "cy": dataset.intrinsics.cy,
        },
        "image_size": list(dataset.image_size),
    }
    (path / HEADER_FILE).write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")

    _write_jsonl(path / FRAMES_FILE, (
        {"frame_id": frame.frame_id,
         "detections": [detection_to_json(d) for d in frame.detections]}
        for frame in dataset.frames
    ))
    _write_jsonl(path / ODOMETRY_FILE, (
        {"from_frame": entry.from_frame, "to_frame": entry.to_frame,
         "rotation_quaternion": _quat_list(entry.relative.rotation),
         "translation": _vec_list(entry.relative.translation)}
        for entry in dataset.odometry
    ))
    if dataset.gt_objects is not None:
        _write_jsonl(path / GT_OBJECTS_FILE, (
            {"label": obj.label, "rotation_quaternion": _quat_list(obj.quadric.rotation),
             "center": _vec_list(obj.quadric.t), "half_extents": _vec_list(obj.quadric.s)}
            for obj in dataset.gt_objects
        ))
    if dataset.gt_trajectory is not None:
        _write_jsonl(path / GT_TRAJECTORY_FILE, (
            {"frame_id": frame_id, "rotation_quaternion": _quat_list(pose.rotation),
             "translation": _vec_list(pose.translation)}
            for frame_id, pose in dataset.gt_trajectory
        ))
    if dataset.gt_association is not None:
        _write_jsonl(path / GT_ASSOCIATION_FILE, (
            {"frame_id": frame_id, "pairs": [list(p) for p in dataset.gt_association[frame_id]]}
            for frame_id in sorted(dataset.gt_association)
        ))


def _one_per(key: str, parse: Callable[[dict, str], T]) -> Callable[[dict, str], T]:
    """``parse`` of records that refuses a second record with the same
    ``key``, an integer field ``parse`` has checked: read into a dict by that
    key, it would silently replace the first."""
    seen: set[int] = set()

    def parse_new(record: dict, where: str) -> T:
        value = parse(record, where)
        if record[key] in seen:
            raise SchemaError(f"{where}: duplicate {key!r} {record[key]}")
        seen.add(record[key])
        return value

    return parse_new


def load_dataset(path: str | Path) -> Dataset:
    """Read and validate a dataset directory.

    Checks strictly increasing frame ids and that every consecutive frame
    pair has exactly one odometry record connecting it.
    """
    path = Path(path)
    header_path = path / HEADER_FILE
    if not header_path.exists():
        raise SchemaError(f"{header_path}: missing dataset header")
    try:
        header = json.loads(header_path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{header_path}:1: invalid JSON: {exc.msg}") from exc
    with _record(str(header_path)):
        intr = _require(header, "intrinsics", str(header_path))
        where = f"{header_path}: intrinsics"
        intrinsics = CameraIntrinsics(*(
            _number(_require(intr, key, where), key, where) for key in ("fx", "fy", "cx", "cy")
        ))
        size = _require(header, "image_size", str(header_path))
        # JSON integers only: 640.7 is not truncated and true is not taken for 1.
        if not (
            isinstance(size, list) and len(size) == 2
            and all(type(v) is int and v > 0 for v in size)
        ):
            raise SchemaError(
                f"{header_path}: field 'image_size' must be two positive integers, got {size!r}"
            )
        image_size = (size[0], size[1])

    frames = _read_jsonl(path / FRAMES_FILE, _frame_from_json)
    ids = [f.frame_id for f in frames]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise SchemaError(f"{path / FRAMES_FILE}: field 'frame_id' must be strictly increasing")

    odometry: list[OdometryEntry] = []
    odometry_path = path / ODOMETRY_FILE
    if odometry_path.exists():
        odometry = _read_jsonl(odometry_path, _odometry_from_json)
    pairs = {(o.from_frame, o.to_frame) for o in odometry}
    expected = set(zip(ids, ids[1:]))
    missing = expected - pairs
    if missing:
        raise SchemaError(
            f"{odometry_path}: missing odometry for consecutive frame pair(s) "
            f"{sorted(missing)[:3]}"
        )
    extra = pairs - expected
    if extra:
        raise SchemaError(
            f"{odometry_path}: odometry rows for non-consecutive frame pair(s) "
            f"{sorted(extra)[:3]}"
        )
    if len(odometry) != len(pairs):
        raise SchemaError(f"{odometry_path}: duplicate odometry rows")

    def optional(name: str, parse: Callable[[dict, str], T]) -> list[T] | None:
        return _read_jsonl(path / name, parse) if (path / name).exists() else None

    gt_objects = optional(GT_OBJECTS_FILE, _gt_object_from_json)
    gt_trajectory = optional(GT_TRAJECTORY_FILE, _one_per("frame_id", _frame_pose_from_json))
    gt_pairs = optional(GT_ASSOCIATION_FILE, _one_per("frame_id", _gt_pairs_from_json))
    gt_association = None if gt_pairs is None else dict(gt_pairs)
    return Dataset(
        intrinsics, image_size, frames, odometry, gt_objects, gt_trajectory, gt_association
    )
