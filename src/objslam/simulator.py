"""Synthetic desk scenes, camera orbits, and noisy measurements.

Stands in for a real detector + visual-odometry front end: ellipsoid
objects are placed on a surface without overlap, a camera orbit looks at
the scene, detections are exact projected boxes corrupted by pixel noise,
border truncation, dropout, and a confidence model, and odometry is the
true relative motion right-composed with Gaussian SE(3) noise. The view of
every (frame, object) pair comes from one batched projection of the whole
orbit, held as (frames, objects) arrays; the sparse-mode cap is a mask over
them, and one loop draws the noise of the pairs it shows. Everything is
deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Dataset, Detection, Frame, OdometryEntry, GroundTruthObject
from .geometry import (
    BoundingBox2D,
    CameraIntrinsics,
    Pose,
    Quadric,
    between,
    compose,
    project_bbox_batch,
    quadric_rows,
    require_field_types,
)
from .priors import OrientationClass, PriorRecord, PriorTable

MIN_VISIBLE_EXTENT_PX = 4.0
# The default orbit: the camera's distance from the scene center's vertical
# axis and its height above the center (meters), and the arc it sweeps
# (radians).
ORBIT_RADIUS = 2.2
ORBIT_HEIGHT = 1.2
ORBIT_ARC = 5.2


class PlacementFailure(RuntimeError):
    """Could not place all objects without overlap within the retry budget."""


def default_label_pool() -> dict[str, PriorRecord]:
    """Desk objects with plausible true dimensions (meters) and orientation
    classes; labels match the bundled embedding vocabulary."""
    rows = [
        # in-plane extents kept distinct so heading is observable from boxes
        ("bottle", 0.085, 0.06, 0.24, OrientationClass.VERTICAL),
        ("can", 0.075, 0.055, 0.12, OrientationClass.VERTICAL),
        ("lamp", 0.17, 0.12, 0.4, OrientationClass.VERTICAL),
        ("plant", 0.21, 0.15, 0.32, OrientationClass.VERTICAL),
        ("keyboard", 0.44, 0.14, 0.035, OrientationClass.HORIZONTAL),
        ("monitor", 0.55, 0.2, 0.35, OrientationClass.HORIZONTAL),
        ("laptop", 0.32, 0.22, 0.025, OrientationClass.HORIZONTAL),
        ("book", 0.24, 0.16, 0.035, OrientationClass.HORIZONTAL),
        ("mouse", 0.11, 0.06, 0.04, OrientationClass.HORIZONTAL),
        ("phone", 0.15, 0.072, 0.012, OrientationClass.HORIZONTAL),
        ("mug", 0.12, 0.085, 0.1, OrientationClass.UNCERTAIN),
        ("cup", 0.105, 0.075, 0.09, OrientationClass.UNCERTAIN),
        ("clock", 0.13, 0.05, 0.11, OrientationClass.UNCERTAIN),
    ]
    return {label: PriorRecord(label, l, w, h, o) for label, l, w, h, o in rows}


@dataclass(frozen=True)
class SceneSpec:
    """Scene recipe: object count, surface area (meters, centered at the
    origin), resting height, and the label pool to draw from."""

    n_objects: int = 10
    area: tuple[float, float] = (2.0, 1.2)
    surface_height: float = 0.0
    label_pool: dict[str, PriorRecord] = field(default_factory=default_label_pool)
    max_retries: int = 200

    def __post_init__(self) -> None:
        if self.n_objects < 0:
            raise ValueError("object count must be non-negative")
        if min(self.area) <= 0.0:
            raise ValueError("area must be positive")
        if self.n_objects > 0 and not self.label_pool:
            raise ValueError("label pool must be non-empty")


@dataclass(frozen=True)
class SceneObject:
    label: str
    quadric: Quadric
    record: PriorRecord


@dataclass(frozen=True)
class Scene:
    objects: tuple[SceneObject, ...]

    def prior_table(self) -> PriorTable:
        """True-dimension priors, one record per distinct label."""
        table = PriorTable()
        for obj in self.objects:
            if obj.label not in table:
                table.add(obj.record)
        return table


def _semi_axes_for(record: PriorRecord) -> np.ndarray:
    """Half extents in the object's local frame.

    Scenes use yaw-only rotations, so local z is the world vertical: the
    vertical class puts the largest dimension on z, horizontal puts it on x
    (in-plane), uncertain keeps the listed order.
    """
    dims = np.sort(record.dimensions())
    if record.orientation == OrientationClass.VERTICAL:
        return np.array([dims[0], dims[1], dims[2]]) / 2.0
    if record.orientation == OrientationClass.HORIZONTAL:
        return np.array([dims[2], dims[1], dims[0]]) / 2.0
    return record.dimensions() / 2.0


def generate_scene(spec: SceneSpec, seed: int) -> Scene:
    """Place non-overlapping objects on the surface, deterministically.

    Overlap is judged conservatively: centroid separation must exceed the
    sum of the two maximum semi-axes.
    """
    rng = np.random.default_rng(seed)
    labels = sorted(spec.label_pool)
    half_x, half_y = spec.area[0] / 2.0, spec.area[1] / 2.0
    objects: list[SceneObject] = []
    centers: list[np.ndarray] = []
    radii: list[float] = []
    for i in range(spec.n_objects):
        label = labels[int(rng.integers(0, len(labels)))]
        record = spec.label_pool[label]
        s = _semi_axes_for(record)
        radius = float(np.max(s))
        placed = False
        for _ in range(spec.max_retries):
            # an object wider than the surface can only sit at its center
            x = rng.uniform(-half_x + radius, half_x - radius) if radius < half_x else 0.0
            y = rng.uniform(-half_y + radius, half_y - radius) if radius < half_y else 0.0
            center = np.array([x, y, spec.surface_height + s[2]])
            if all(
                np.linalg.norm(center - c) > radius + r
                for c, r in zip(centers, radii)
            ):
                placed = True
                break
        if not placed:
            raise PlacementFailure(
                f"object {i} ({label}) could not be placed after "
                f"{spec.max_retries} attempts"
            )
        yaw = float(rng.uniform(0.0, 2.0 * np.pi))
        cy, sy = np.cos(yaw), np.sin(yaw)
        rotation = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
        objects.append(SceneObject(label, Quadric(rotation, center, s), record))
        centers.append(center)
        radii.append(radius)
    return Scene(tuple(objects))


def look_at_pose(eye: np.ndarray, target: np.ndarray) -> Pose:
    """Camera pose with the optical (+z) axis pointing at the target."""
    eye = np.asarray(eye, dtype=np.float64)
    z = np.asarray(target, dtype=np.float64) - eye
    norm = np.linalg.norm(z)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    z = z / norm
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(up, z)
    if np.linalg.norm(x) < 1e-9:
        # Looking straight up/down: pick an arbitrary horizontal right axis.
        x = np.array([1.0, 0.0, 0.0])
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(np.column_stack([x, y, z]), eye)


def orbit_trajectory(
    n_frames: int,
    center: Sequence[float] = (0.0, 0.0, 0.1),
    radius: float = ORBIT_RADIUS,
    height: float = ORBIT_HEIGHT,
    arc: float = ORBIT_ARC,
) -> list[Pose]:
    """Camera poses along a circular arc, all looking at the scene center."""
    if n_frames <= 0:
        return []
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=np.float64)
    angles = np.linspace(0.0, arc, n_frames)
    poses = []
    for a in angles:
        eye = center + np.array([radius * np.cos(a), radius * np.sin(a), height])
        poses.append(look_at_pose(eye, center))
    return poses


@dataclass(frozen=True)
class SimConfig:
    """Measurement-noise recipe; all randomness derives from `seed`."""

    sigma_rot: float = 0.0
    sigma_trans: float = 0.0
    sigma_px: float = 0.0
    sigma_depth: float = 0.0
    dropout: float = 0.0
    truncation: bool = True
    confidence_floor: float = 0.3
    confidence_ceiling: float = 0.99
    confidence_jitter: float = 0.05
    max_observations_per_object: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        require_field_types(self)
        for name in ("sigma_rot", "sigma_trans", "sigma_px", "sigma_depth",
                     "confidence_jitter"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.dropout <= 1.0:
            raise ValueError("dropout must lie in [0, 1]")
        if not 0.0 <= self.confidence_floor <= self.confidence_ceiling <= 1.0:
            raise ValueError("confidence clamp bounds must be ordered in [0, 1]")
        if (
            self.max_observations_per_object is not None
            and self.max_observations_per_object <= 0
        ):
            raise ValueError("sparse-mode observation cap must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _clip(boxes: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    """Boxes (..., 4) as xmin, ymin, xmax, ymax, clipped to the image."""
    W, H = float(image_size[0]), float(image_size[1])
    return np.clip(boxes, (0.0, 0.0, -np.inf, -np.inf), (np.inf, np.inf, W, H))


def render_orbit(
    scene: Scene,
    poses: Sequence[Pose],
    K: CameraIntrinsics,
    image_size: tuple[int, int],
    cfg: SimConfig,
    rng: np.random.Generator,
) -> list[list[tuple[int, Detection]]]:
    """Noisy detections of every pose, each paired with its source object.

    One projection gives the noiseless view of every (frame, object) pair as
    (frames, objects) arrays: the box clipped to the image, visibility (a
    valid projection whose clipped box is at least MIN_VISIBLE_EXTENT_PX
    both ways), border truncation, the visible share of the box that the
    confidence starts from, and the centroid depth. The sparse cap keeps, of
    the frames that see an object, `cap` spread evenly; truncation and
    dropout filter after it. Noise is drawn frame by frame, objects by
    index, each shown pair drawing dropout, box noise, confidence jitter and
    depth noise in that order.
    """
    n_f, n_o = len(poses), len(scene.objects)
    R_wc = np.array([x.rotation for x in poses]).reshape(n_f, 3, 3)
    t_wc = np.array([x.translation for x in poses]).reshape(n_f, 3)
    R_q, t_q, s = quadric_rows([o.quadric for o in scene.objects])
    full, valid, _ = project_bbox_batch(
        np.repeat(R_wc, n_o, axis=0), np.repeat(t_wc, n_o, axis=0), K,
        np.tile(R_q, (n_f, 1, 1)), np.tile(t_q, (n_f, 1)), np.tile(s, (n_f, 1)),
    )
    full = full.reshape(n_f, n_o, 4)
    boxes = _clip(full, image_size)
    extent = boxes[..., 2:] - boxes[..., :2]
    full_extent = full[..., 2:] - full[..., :2]
    shown = valid.reshape(n_f, n_o) & np.all(extent >= MIN_VISIBLE_EXTENT_PX, axis=2)
    truncated = np.any(np.abs(boxes - full) > 1e-9, axis=2)
    confidences = np.clip(
        extent[..., 0] * extent[..., 1] / (full_extent[..., 0] * full_extent[..., 1]),
        cfg.confidence_floor, cfg.confidence_ceiling,
    )
    # one product per pose: a stacked product can round the last bit
    # differently, and every simulated dataset would change with it
    depths = np.array([(t_q - x.translation) @ x.rotation[:, 2] for x in poses])

    cap = cfg.max_observations_per_object
    if cap is not None:
        for o in range(n_o):
            seen = np.flatnonzero(shown[:, o])
            if len(seen) > cap:
                picks = np.round(np.linspace(0, len(seen) - 1, cap)).astype(int)
                shown[np.delete(seen, picks), o] = False
    if not cfg.truncation:
        shown &= ~truncated

    frames: list[list[tuple[int, Detection]]] = []
    for f in range(n_f):
        sightings = []
        for o in map(int, np.flatnonzero(shown[f])):
            if cfg.dropout > 0.0 and rng.uniform() < cfg.dropout:
                continue
            box = boxes[f, o]
            if cfg.sigma_px > 0.0:
                box = _clip(box + rng.normal(0.0, cfg.sigma_px, size=4), image_size)
                if np.any(box[2:] - box[:2] < 1.0):
                    continue
            confidence = float(confidences[f, o])
            if cfg.confidence_jitter > 0.0:
                confidence = float(
                    np.clip(confidence + rng.normal(0.0, cfg.confidence_jitter), 0.0, 1.0)
                )
            depth = float(depths[f, o])
            if cfg.sigma_depth > 0.0:
                depth = max(depth + float(rng.normal(0.0, cfg.sigma_depth)), 0.05)
            detection = Detection(
                BoundingBox2D(*box), scene.objects[o].label, confidence, center_depth=depth
            )
            sightings.append((o, detection))
        frames.append(sightings)
    return frames


def perturb_odometry(
    gt_poses: Sequence[Pose], cfg: SimConfig, rng: np.random.Generator | None = None
) -> list[OdometryEntry]:
    """Relative GT motions right-composed with Gaussian SE(3) noise."""
    if len(gt_poses) < 2:
        return []
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    entries = []
    for i in range(len(gt_poses) - 1):
        u = between(gt_poses[i], gt_poses[i + 1])
        if cfg.sigma_rot > 0.0 or cfg.sigma_trans > 0.0:
            noise = Pose.from_rotvec(
                rng.normal(0.0, cfg.sigma_rot, size=3) if cfg.sigma_rot > 0.0 else np.zeros(3),
                rng.normal(0.0, cfg.sigma_trans, size=3) if cfg.sigma_trans > 0.0 else np.zeros(3),
            )
            u = compose(u, noise)
        entries.append(OdometryEntry(i, i + 1, u))
    return entries


def simulate_dataset(
    spec: SceneSpec,
    n_frames: int,
    K: CameraIntrinsics,
    image_size: tuple[int, int],
    cfg: SimConfig,
    **orbit: float,
) -> tuple[Dataset, Scene]:
    """Full synthetic dataset: scene, orbit, noisy detections + odometry,
    ground truth, and the per-frame detection-to-object association.
    `orbit` passes radius, height or arc on to :func:`orbit_trajectory`."""
    scene = generate_scene(spec, cfg.seed)
    poses = orbit_trajectory(n_frames, **orbit)
    render_rng = np.random.default_rng([cfg.seed, 1])
    odom_rng = np.random.default_rng([cfg.seed, 2])

    frames: list[Frame] = []
    gt_association: dict[int, list[tuple[int, int]]] = {}
    for f, sightings in enumerate(render_orbit(scene, poses, K, image_size, cfg, render_rng)):
        frames.append(Frame(f, tuple(det for _, det in sightings)))
        if sightings:
            gt_association[f] = [(d, o) for d, (o, _) in enumerate(sightings)]

    dataset = Dataset(
        intrinsics=K,
        image_size=(int(image_size[0]), int(image_size[1])),
        frames=frames,
        odometry=perturb_odometry(poses, cfg, odom_rng),
        gt_objects=[GroundTruthObject(o.label, o.quadric) for o in scene.objects],
        gt_trajectory=[(f, x) for f, x in enumerate(poses)],
        gt_association=gt_association if gt_association else None,
    )
    return dataset, scene
