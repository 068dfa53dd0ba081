"""Every file a run reads or writes, and the records they hold.

A dataset is a directory:

- ``header.json``: camera intrinsics and image size;
- ``frames.jsonl``: one record per keyframe with its detections;
- ``odometry.jsonl``: one relative-pose record per consecutive frame pair;
- ``gt_objects.jsonl``, ``gt_trajectory.jsonl``, ``gt_association.jsonl``
  (optional): ground truth for evaluation.

A run writes ``map.json`` (the labelled landmarks, the trajectory and the
per-keyframe landmark snapshots), ``solve.json`` (the last solve's costs)
and, when the dataset carries ground truth, ``report.json`` and
``iou_series.csv``. A map landmark is one :class:`Landmark` record, the same
in memory as in ``map.json``, for the final map and every snapshot alike;
it is validated only where it is read from a file.

Rotations appear on disk as unit quaternions in (w, x, y, z) order. Keys
are sorted and floats written by repr, so equal records give equal bytes.
``ParseError`` carries file and line number. ``SchemaError`` names the file
and line of the offending record, or the entry of a document, and the field
where it is known; a record whose values have the wrong type or range
raises it too.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    Pose,
    Quadric,
    matrix_to_quat,
    quat_to_matrix,
)

if TYPE_CHECKING:  # annotations only: these modules import this one
    from .evaluation import EvalReport, Rows
    from .optimizer import SolveReport

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


@dataclass(frozen=True)
class Landmark:
    """One mapped ellipsoid as ``map.json`` holds it: id, unit quaternion
    (w, x, y, z), centroid and semi-axes. The final map and every snapshot
    hold these records; :func:`landmark_rows` stacks them for evaluation."""

    landmark_id: int
    rotation_quaternion: tuple[float, float, float, float]
    centroid: tuple[float, float, float]
    semi_axes: tuple[float, float, float]

    def quadric(self) -> Quadric:
        """The validated quadric: ValueError for a bad rotation or a
        non-positive semi-axis."""
        R = quat_to_matrix(np.array(self.rotation_quaternion, dtype=np.float64))
        return Quadric(R, self.centroid, self.semi_axes)


@dataclass(frozen=True)
class MapEstimate:
    """Final object map with each landmark's label, trajectory, and optional
    per-keyframe landmark snapshots for convergence curves."""

    landmarks: tuple[Landmark, ...]
    labels: dict[int, str]
    trajectory: tuple[tuple[int, Pose], ...]
    snapshots: tuple[tuple[int, tuple[Landmark, ...]], ...] = ()


def landmark_rows(landmarks: Sequence[Landmark]) -> Rows:
    """Stacked rotations (n, 3, 3), centroids (n, 3) and semi-axes (n, 3) of
    landmark records: :meth:`Landmark.quadric`'s values without its check."""
    return (
        np.array([quat_to_matrix(lm.rotation_quaternion) for lm in landmarks]).reshape(-1, 3, 3),
        np.array([lm.centroid for lm in landmarks], dtype=np.float64).reshape(-1, 3),
        np.array([lm.semi_axes for lm in landmarks], dtype=np.float64).reshape(-1, 3),
    )


def _quat_list(R: np.ndarray) -> list[float]:
    return [float(v) for v in matrix_to_quat(R)]


def _vec_list(v: np.ndarray) -> list[float]:
    return [float(x) for x in np.asarray(v)]


def _pose_entry(pose: Pose, **ids: int) -> dict:
    """A pose record: the frame ids it belongs to, its rotation quaternion
    and its translation. :func:`_pose_from_record` reads it back."""
    return {
        **ids,
        "rotation_quaternion": _quat_list(pose.rotation),
        "translation": _vec_list(pose.translation),
    }


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


def _parse_each(records: Iterable[tuple[str, object]], parse: Callable[[dict, str], T]) -> list[T]:
    """parse(record, where) of each (where, record) pair, in order: a JSONL
    file's lines or the entries of a document's list."""
    out = []
    for where, record in records:
        with _record(where):
            out.append(parse(record, where))
    return out


def _decode(text: str, path: str | Path, line_no: int = 1):
    """The JSON value of `text`, which starts on line `line_no` of `path`.
    Malformed JSON is a ParseError naming the line of the fault."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{line_no + exc.lineno - 1}: invalid JSON: {exc.msg}") from exc


def _write_document(path: str | Path, doc: dict) -> None:
    """A JSON document, indented, with sorted keys."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


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


def _vector(record: dict, key: str, where: str, n: int = 3) -> np.ndarray:
    """The record's field ``key``: a list of `n` JSON numbers."""
    v = _require(record, key, where)
    if not (isinstance(v, list) and len(v) == n):
        raise SchemaError(f"{where}: field {key!r} must have {n} entries")
    return np.array([_number(x, key, where) for x in v])


def _quaternion(record: dict, where: str) -> np.ndarray:
    """The record's 'rotation_quaternion' as read: four finite numbers of
    unit norm within 1e-6, in (w, x, y, z) order."""
    q = _vector(record, "rotation_quaternion", where, 4)
    norm = float(np.linalg.norm(q))
    if not abs(norm - 1.0) <= 1e-6:  # NaN and inf entries fail too
        raise SchemaError(
            f"{where}: field 'rotation_quaternion' must be finite and unit norm, "
            f"got norm {norm:.8f}"
        )
    return q


def _pose_from_record(record: dict, where: str) -> Pose:
    rotation = quat_to_matrix(_quaternion(record, where))
    return Pose(rotation, _vector(record, "translation", where))


def _read_jsonl(path: Path, parse: Callable[[dict, str], T]) -> list[T]:
    """parse(record, where) of every non-blank line, where is "file:line"."""
    with open(path) as f:
        return _parse_each((
            (f"{path}:{line_no}", _decode(line, path, line_no))
            for line_no, line in enumerate(f, start=1) if line.strip()
        ), parse)


def _write_jsonl(path: Path, records: Iterable[dict]) -> None:
    """One line per record, the inverse of :func:`_read_jsonl`."""
    with open(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True, separators=(",", ": ")) + "\n")


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
    center = _vector(record, "center", where)
    half = _vector(record, "half_extents", where)
    return GroundTruthObject(label, Quadric(rotation, center, half))


def _frame_pose_from_json(record: dict, where: str) -> tuple[int, Pose]:
    return _integer(record, "frame_id", where), _pose_from_record(record, where)


def _gt_pairs_reader(
    frames: list[Frame], n_objects: int
) -> Callable[[dict, str], tuple[int, list[tuple[int, int]]]]:
    """A parser of ``gt_association.jsonl`` records whose pairs must name a
    frame of `frames`, each of its detections at most once, and an object
    index below `n_objects`."""
    detections = {f.frame_id: len(f.detections) for f in frames}

    def parse(record: dict, where: str) -> tuple[int, list[tuple[int, int]]]:
        pairs = _require(record, "pairs", where)
        if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise SchemaError(f"{where}: field 'pairs' must hold [detection, object] pairs")
        named = [{f"pairs[{i}][{k}]": v for k, v in enumerate(p)} for i, p in enumerate(pairs)]
        frame_id = _integer(record, "frame_id", where)
        out = [tuple(_integer(pair, key, where) for key in pair) for pair in named]
        if frame_id not in detections:
            raise SchemaError(f"{where}: frame {frame_id} is not in {FRAMES_FILE}")
        seen: set[int] = set()
        for i, (det, obj) in enumerate(out):
            if not 0 <= det < detections[frame_id]:
                raise SchemaError(
                    f"{where}: field 'pairs[{i}][0]': frame {frame_id} has no detection {det}"
                )
            if det in seen:
                raise SchemaError(f"{where}: field 'pairs[{i}][0]': detection {det} paired twice")
            if not 0 <= obj < n_objects:
                raise SchemaError(
                    f"{where}: field 'pairs[{i}][1]': object {obj} is not in {GT_OBJECTS_FILE}"
                )
            seen.add(det)
        return frame_id, out

    return parse


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
    _write_document(path / HEADER_FILE, header)

    _write_jsonl(path / FRAMES_FILE, (
        {"frame_id": frame.frame_id,
         "detections": [detection_to_json(d) for d in frame.detections]}
        for frame in dataset.frames
    ))
    _write_jsonl(path / ODOMETRY_FILE, (
        _pose_entry(entry.relative, from_frame=entry.from_frame, to_frame=entry.to_frame)
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
            _pose_entry(pose, frame_id=frame_id) for frame_id, pose in dataset.gt_trajectory
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

    Checks strictly increasing frame ids, that every consecutive frame pair
    has exactly one odometry record connecting it, and that each
    ground-truth association pair names a frame, one of its detections and
    an object of ``gt_objects.jsonl``, each detection at most once (so a
    dataset without that file can hold no pair).
    """
    path = Path(path)
    header_path = path / HEADER_FILE
    if not header_path.exists():
        raise SchemaError(f"{header_path}: missing dataset header")
    header = _decode(header_path.read_text(), header_path)
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
    gt_pairs = optional(GT_ASSOCIATION_FILE, _one_per(
        "frame_id", _gt_pairs_reader(frames, len(gt_objects or ()))
    ))
    gt_association = None if gt_pairs is None else dict(gt_pairs)
    return Dataset(
        intrinsics, image_size, frames, odometry, gt_objects, gt_trajectory, gt_association
    )


# ---------------------------------------------------------------------------
# The files a run writes: map.json, solve.json, report.json, iou_series.csv


def _landmark_entry(lm: Landmark) -> dict:
    return {
        "id": lm.landmark_id,
        "rotation_quaternion": list(lm.rotation_quaternion),
        "centroid": list(lm.centroid),
        "semi_axes": list(lm.semi_axes),
    }


def write_map_json(m: MapEstimate, path: str | Path) -> None:
    _write_document(path, {
        "landmarks": [
            {**_landmark_entry(lm), "label": m.labels[lm.landmark_id]} for lm in m.landmarks
        ],
        "trajectory": [_pose_entry(x, frame_id=fid) for fid, x in m.trajectory],
        "snapshots": [
            {"keyframe_index": kf, "landmarks": [_landmark_entry(lm) for lm in snap]}
            for kf, snap in m.snapshots
        ],
    })


def _entries(doc, key: str, where: str, parse: Callable[[dict, str], T]) -> tuple[T, ...]:
    """parse(entry, name) of each entry of the list doc[key], name being
    "<where> key[i]"; a malformed entry raises SchemaError naming it."""
    with _record(where):
        items = _require(doc, key, where)
        if not isinstance(items, list):
            raise SchemaError(f"{where}: field {key!r} must be a list")
    named = ((f"{where} {key}[{i}]", item) for i, item in enumerate(items))
    return tuple(_parse_each(named, parse))


def _landmark_from_json(entry: dict, where: str) -> Landmark:
    """A landmark entry of either list, validated through its quadric."""
    lm = Landmark(
        _integer(entry, "id", where),
        tuple(_quaternion(entry, where).tolist()),
        tuple(_vector(entry, "centroid", where).tolist()),
        tuple(_vector(entry, "semi_axes", where).tolist()),
    )
    lm.quadric()
    return lm


def _labelled_landmark_from_json(entry: dict, where: str) -> tuple[Landmark, str]:
    return _landmark_from_json(entry, where), _string(entry, "label", where)


def _snapshot_from_json(entry: dict, where: str) -> tuple[int, tuple[Landmark, ...]]:
    keyframe_index = _integer(entry, "keyframe_index", where)
    landmarks = _entries(entry, "landmarks", where, _one_per("id", _landmark_from_json))
    return keyframe_index, landmarks


def load_map_json(path: str | Path) -> MapEstimate:
    """Read a map written by :func:`write_map_json`. Malformed JSON raises
    ParseError; a malformed entry, or a second entry of one frame, landmark
    id or keyframe, raises SchemaError naming the file and the entry."""
    doc = _decode(Path(path).read_text(), path)
    where = str(path)
    # Landmarks first: past them, doc is known to be a JSON object.
    final = _entries(doc, "landmarks", where, _one_per("id", _labelled_landmark_from_json))
    trajectory = _entries(doc, "trajectory", where, _one_per("frame_id", _frame_pose_from_json))
    snapshots = ()
    if "snapshots" in doc:
        snapshots = _entries(
            doc, "snapshots", where, _one_per("keyframe_index", _snapshot_from_json)
        )
    landmarks = tuple(lm for lm, _ in final)
    labels = {lm.landmark_id: label for lm, label in final}
    return MapEstimate(landmarks, labels, trajectory, snapshots)


def write_solve_json(report: SolveReport, path: str | Path) -> None:
    _write_document(path, {
        "initial_cost": report.initial_cost,
        "final_cost": report.final_cost,
        "iterations": report.iterations,
        "converged": report.converged,
        "breakdown": dict(sorted(report.breakdown.items())),
    })


def report_document(report: EvalReport) -> dict:
    """The document ``report.json`` holds."""
    return {
        "counts": {"tp": report.tp, "fp": report.fp, "fn": report.fn},
        "objects": [
            {
                "est_index": m.est_index,
                "gt_index": m.gt_index,
                "iou": m.iou,
                "centroid_error": m.centroid_error,
                "size_error": m.size_error,
            }
            for m in report.objects
        ],
        "means": {
            "iou": report.mean_iou,
            "centroid_error": report.mean_centroid_error,
            "size_error": report.mean_size_error,
        },
        "ate_rmse": report.ate,
        "iou_series": [
            {"keyframe_index": k, "mean_iou_error": m, "std_iou_error": s}
            for k, m, s in report.iou_series
        ],
    }


def write_report_json(report: EvalReport, path: str | Path) -> None:
    _write_document(path, report_document(report))


def write_iou_series_csv(
    rows: Sequence[tuple[int, float | None, float | None]], path: str | Path
) -> None:
    """Flat CSV of the IoU-error curve; absent entries serialize as nan."""
    lines = ["keyframe_index,mean_iou_error,std_iou_error"]
    for keyframe_index, mean, std in rows:
        m = "nan" if mean is None else repr(float(mean))
        s = "nan" if std is None else repr(float(std))
        lines.append(f"{keyframe_index},{m},{s}")
    Path(path).write_text("\n".join(lines) + "\n")
