"""Factor graph assembly and nonlinear least-squares solving.

The map state is a set of camera poses and ellipsoid landmarks tied
together by odometry, bounding-box, and unary prior factors. Solving is
Levenberg-Marquardt on the product manifold: dense normal equations from
the factors' (whitened, robust-weighted) Jacobians, an additive damping
schedule, and per-variable retractions for the update. The first pose (by
lowest id) is held constant in every solve, which fixes the gauge.

Linearization takes each factor's Jacobian from its ``jacobian_at``, closed
forms for odometry and the unary priors, except for factors of exactly type
``BBoxFactor``: those are differentiated together by
``factors.bbox_jacobians``, in blocks of ``_BBOX_BLOCK`` observations (31
projections each) so the projection temporaries stay a few MB whatever the
graph size. Every factor's local block ``J^T J`` and ``J^T r`` is scattered
into the dense ``H`` and ``g`` with one index-array ``bincount``. A
subclass that overrides ``jacobian_at`` is linearized through its override.

Noise models and the Huber robust cost are applied in one place,
``factors.robust_whiten``, on stacks of residuals of one length:
``_normal_blocks`` turns a stack into its ``J^T J`` and ``J^T r`` blocks,
and ``cost_breakdown`` scores all bbox factors with one projection and the
other factors stacked by residual length. It marks which factors it scored.
A trial step that makes a scored factor invalid (a landmark pushed behind a
camera, say) would lower the cost only by dropping that factor's term, so LM
rejects it like a cost increase.

Incremental mode is the same solver warm-started from the current values
with a small iteration budget per keyframe; it relinearizes the whole
graph rather than maintaining a Bayes tree, which is accurate and fast at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
import scipy.linalg

from .association import AssociationResult
from .dataset import Detection
from .factors import (
    BBoxFactor,
    BBoxRows,
    CentroidPriorFactor,
    Factor,
    NoiseModel,
    OdometryFactor,
    OrientationPriorFactor,
    SizePriorFactor,
    Variable,
    VariableKey,
    bbox_jacobians,
    bbox_residuals,
    robust_whiten,
    variable_dim,
)
from .geometry import (
    CameraIntrinsics,
    NonPositiveDepth,
    Pose,
    Quadric,
    back_project_pixel,
    compose,
)
from .priors import (
    PriorConfig,
    PriorRecord,
    PriorTable,
    orientation_prior_frame,
    prior_covariances,
    size_prior_estimate,
)

# Total costs at or below this are treated as an exact fit.
_COST_FLOOR = 1e-12
_MIN_DAMPING = 1e-15
# Bbox factors differentiated per projection call: 64 x 31 rows keeps the
# batch's temporaries to a few MB whatever the graph size.
_BBOX_BLOCK = 64


class MissingVariable(KeyError):
    """A factor references a variable id absent from the values."""


class SingularSystem(RuntimeError):
    """Damping escalation exhausted without ever finding a downhill step."""


@dataclass
class GraphValues:
    """Current estimates for all variables, keyed by integer ids."""

    poses: dict[int, Pose] = field(default_factory=dict)
    quadrics: dict[int, Quadric] = field(default_factory=dict)

    def get(self, key: VariableKey) -> Variable:
        kind, idx = key
        store = self.poses if kind == "pose" else self.quadrics
        if idx not in store:
            raise MissingVariable(f"{kind} {idx} not present in values")
        return store[idx]

    def set(self, key: VariableKey, value: Variable) -> None:
        kind, idx = key
        if kind == "pose":
            self.poses[idx] = value
        else:
            self.quadrics[idx] = value

    def copy(self) -> "GraphValues":
        return GraphValues(dict(self.poses), dict(self.quadrics))


@dataclass
class FactorGraph:
    """Ordered factor container; iteration order is insertion order."""

    factors: list[Factor] = field(default_factory=list)

    def add(self, factor: Factor) -> None:
        self.factors.append(factor)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[Factor]:
        return iter(self.factors)

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.factors:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 100
    initial_damping: float = 1e-4
    damping_up: float = 10.0
    damping_down: float = 10.0
    max_damping: float = 1e8
    convergence_rel_decrease: float = 1e-8
    incremental_iters_per_keyframe: int = 5

    def __post_init__(self) -> None:
        if self.max_iterations <= 0 or self.incremental_iters_per_keyframe <= 0:
            raise ValueError("iteration budgets must be positive")
        if min(self.initial_damping, self.max_damping) <= 0.0:
            raise ValueError("damping values must be positive")
        if self.damping_up <= 1.0 or self.damping_down <= 1.0:
            raise ValueError("damping factors must exceed 1")
        if not 0.0 < self.convergence_rel_decrease < 1.0:
            raise ValueError("convergence threshold must lie in (0, 1)")


@dataclass(frozen=True)
class NoiseConfig:
    """Factor noise scales assumed by the estimator (not the simulator).

    The Huber width of the bbox factors is ``bbox_huber_multiplier`` standard
    deviations, so outlier boxes lose influence past two by default.
    """

    bbox_sigma_px: float = 10.0
    bbox_huber_multiplier: float = 2.0
    odom_sigma_rot: float = 0.01
    odom_sigma_trans: float = 0.01

    def __post_init__(self) -> None:
        if min(self.bbox_sigma_px, self.odom_sigma_rot, self.odom_sigma_trans) <= 0.0:
            raise ValueError("noise scales must be positive")
        if self.bbox_huber_multiplier <= 0.0:
            raise ValueError("huber multiplier must be positive")

    def bbox_noise(self) -> NoiseModel:
        return NoiseModel.isotropic(
            4, self.bbox_sigma_px, self.bbox_huber_multiplier * self.bbox_sigma_px
        )

    def odom_noise(self) -> NoiseModel:
        return NoiseModel.diagonal(
            np.array([self.odom_sigma_rot**2] * 3 + [self.odom_sigma_trans**2] * 3)
        )


@dataclass(frozen=True)
class Flags:
    """Prior-factor ablation switches; independent of each other."""

    size_prior: bool = True
    orientation_prior: bool = True
    centroid_factor: bool = True


@dataclass(frozen=True)
class SolveReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    breakdown: dict[str, float]


def _bbox_rows(factors: Sequence[BBoxFactor], values: GraphValues) -> BBoxRows:
    """Stacked inputs of bbox factors."""
    poses = [values.get(("pose", f.pose_id)) for f in factors]
    quadrics = [values.get(("quadric", f.quadric_id)) for f in factors]
    return BBoxRows(
        np.array([x.rotation for x in poses]),
        np.array([x.translation for x in poses]),
        np.array([q.rotation for q in quadrics]),
        np.array([q.t for q in quadrics]),
        np.array([q.s for q in quadrics]),
        np.array([f.measured for f in factors]),
        np.array([f.keep for f in factors]),
    )


def _by_camera(factors: Sequence[BBoxFactor]) -> list[tuple[CameraIntrinsics, np.ndarray]]:
    """Positions of the factors grouped by camera, cameras in first-use order."""
    groups: dict[CameraIntrinsics, list[int]] = {}
    for i, f in enumerate(factors):
        groups.setdefault(f.K, []).append(i)
    return [(K, np.array(idx)) for K, idx in groups.items()]


def _take(rows: BBoxRows, idx) -> BBoxRows:
    return BBoxRows(*(a[idx] for a in rows))


def cost_breakdown(
    graph: FactorGraph, values: GraphValues, active: np.ndarray | None = None
) -> dict[str, float]:
    """Robustified cost per factor kind; skipped residuals contribute nothing.

    When given, ``active`` (bool, one entry per factor in graph order) is set
    to the factors that were scored: a bbox factor whose projection is
    invalid is not.
    """
    factors = graph.factors
    costs = np.zeros(len(factors))
    scored = np.ones(len(factors), dtype=bool)
    bbox_at = [i for i, f in enumerate(factors) if type(f) is BBoxFactor]
    if bbox_at:
        bbox = [factors[i] for i in bbox_at]
        rows = _bbox_rows(bbox, values)
        for K, idx in _by_camera(bbox):
            r, valid = bbox_residuals(K, _take(rows, idx))
            r[~valid] = 0.0
            _, c, _ = robust_whiten([bbox[i].noise for i in idx], r)
            at = np.asarray(bbox_at)[idx]
            costs[at] = c
            scored[at] = valid
    # The other factors, stacked by residual length.
    by_length: dict[int, list[tuple[int, np.ndarray]]] = {}
    for i, f in enumerate(factors):
        if type(f) is BBoxFactor:
            continue
        r = f.residual_at(*[values.get(k) for k in f.variable_keys()])
        if r is None:
            scored[i] = False
        else:
            by_length.setdefault(len(r), []).append((i, r))
    for same in by_length.values():
        at, r = zip(*same)
        _, c, _ = robust_whiten([factors[i].noise for i in at], np.array(r))
        costs[list(at)] = c
    if active is not None:
        active[:] = scored
    out: dict[str, float] = {}
    for f, cost, kept in zip(factors, costs.tolist(), scored.tolist()):
        if kept:
            out[f.kind] = out.get(f.kind, 0.0) + cost
    return out


def total_cost(graph: FactorGraph, values: GraphValues) -> float:
    return float(sum(cost_breakdown(graph, values).values()))


def _ordering(values: GraphValues) -> tuple[list[VariableKey], dict[VariableKey, tuple[int, int]], int]:
    """Free-variable ordering with the lowest-id pose anchored (excluded)."""
    keys: list[VariableKey] = []
    pose_ids = sorted(values.poses)
    for i in pose_ids[1:]:
        keys.append(("pose", i))
    for j in sorted(values.quadrics):
        keys.append(("quadric", j))
    index: dict[VariableKey, tuple[int, int]] = {}
    offset = 0
    for key in keys:
        dim = 6 if key[0] == "pose" else 9
        index[key] = (offset, dim)
        offset += dim
    return keys, index, offset


def _linearize(
    graph: FactorGraph,
    values: GraphValues,
    index: dict[VariableKey, tuple[int, int]],
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense normal equations H, g of the robust-weighted linearization."""
    # Stacks of k factors each: the first H column of every variable (k, v;
    # -1 for the anchored pose), the variables' dims, J^T J (k, c, c) and
    # J^T r (k, c) of the whitened, robust-weighted Jacobian.
    stacks: list[tuple[np.ndarray, tuple[int, ...], np.ndarray, np.ndarray]] = []
    # Factors other than bbox, by (variable dims, residual length).
    groups: dict[tuple[tuple[int, ...], int], list] = {}
    bbox: list[BBoxFactor] = []
    for f in graph:
        if type(f) is BBoxFactor:
            bbox.append(f)
            continue
        keys = f.variable_keys()
        variables = [values.get(k) for k in keys]
        out = f.jacobian_at(*variables)
        if out is None:
            continue
        r, blocks = out
        dims = tuple(variable_dim(v) for v in variables)
        starts = [index.get(k, (-1, 0))[0] for k in keys]
        groups.setdefault((dims, len(r)), []).append((starts, f.noise, r, np.hstack(blocks)))
    for (dims, _), same in groups.items():
        starts, noises, r, J = zip(*same)
        stacks.append((np.array(starts), dims, *_normal_blocks(noises, np.array(r), np.array(J))))

    if bbox:
        rows = _bbox_rows(bbox, values)
        starts = np.array(
            [
                [index.get(("pose", f.pose_id), (-1, 0))[0],
                 index.get(("quadric", f.quadric_id), (-1, 0))[0]]
                for f in bbox
            ]
        )
        for K, idx in _by_camera(bbox):
            for first in range(0, len(idx), _BBOX_BLOCK):
                block = idx[first : first + _BBOX_BLOCK]
                r, J, valid = bbox_jacobians(K, _take(rows, block))
                if not valid.any():
                    continue
                block = block[valid]
                noises = [bbox[i].noise for i in block]
                stacks.append((starts[block], (6, 9), *_normal_blocks(noises, r[valid], J[valid])))

    if not stacks:
        return np.zeros((n, n)), np.zeros(n)
    # One scatter-add for all factors. The anchored pose's columns go to a
    # spare row and column n, cut off at the end.
    size = n + 1
    cols = [_columns(starts, dims, n) for starts, dims, _, _ in stacks]
    H = np.bincount(
        np.concatenate([(c[:, :, None] * size + c[:, None, :]).ravel() for c in cols]),
        np.concatenate([JtJ.ravel() for _, _, JtJ, _ in stacks]),
        minlength=size * size,
    )
    g = np.bincount(
        np.concatenate([c.ravel() for c in cols]),
        np.concatenate([Jtr.ravel() for _, _, _, Jtr in stacks]),
        minlength=size,
    )
    return H.reshape(size, size)[:n, :n], g[:n]


def _normal_blocks(
    noises: Sequence[NoiseModel], r: np.ndarray, J: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """J^T J (k, c, c) and J^T r (k, c) of k factors' whitened, robust-weighted
    residuals (k, d) and Jacobians (k, d, c)."""
    e, _, w = robust_whiten(noises, r)
    S = np.array([nm.sqrt_information for nm in noises])
    wJt = np.swapaxes(w[:, None, None] * (S @ J), 1, 2)
    return wJt @ np.swapaxes(wJt, 1, 2), (wJt @ (w[:, None] * e)[:, :, None])[:, :, 0]


def _columns(starts: np.ndarray, dims: tuple[int, ...], spare: int) -> np.ndarray:
    """H columns (k, sum(dims)) of k factors from the first column of each of
    their variables (k, len(dims)); the anchored pose (-1) maps to `spare`."""
    return np.concatenate(
        [
            np.where(first[:, None] < 0, spare, first[:, None] + np.arange(dim))
            for first, dim in zip(starts.T, dims)
        ],
        axis=1,
    )


def _apply_step(
    values: GraphValues,
    keys: list[VariableKey],
    index: dict[VariableKey, tuple[int, int]],
    delta: np.ndarray,
) -> GraphValues:
    out = values.copy()
    for key in keys:
        i, d = index[key]
        out.set(key, out.get(key).retract(delta[i : i + d]))
    return out


def _lm_solve(
    graph: FactorGraph, values: GraphValues, cfg: SolverConfig, max_accepted: int
) -> tuple[GraphValues, SolveReport]:
    current = values.copy()
    active = np.empty(len(graph), dtype=bool)
    breakdown = cost_breakdown(graph, current, active)
    cost = float(sum(breakdown.values()))
    initial_cost = cost
    keys, index, n = _ordering(current)
    damping = cfg.initial_damping
    accepted = 0
    converged = n == 0 or cost <= _COST_FLOOR
    stalled = False

    while not converged and not stalled and accepted < max_accepted:
        H, g = _linearize(graph, current, index, n)
        while True:
            delta = None
            try:
                factor = scipy.linalg.cho_factor(H + damping * np.eye(n))
                delta = scipy.linalg.cho_solve(factor, -g)
            except (scipy.linalg.LinAlgError, ValueError):
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                candidate = _apply_step(current, keys, index, delta)
                trial_active = np.empty(len(graph), dtype=bool)
                trial_breakdown = cost_breakdown(graph, candidate, trial_active)
                new_cost = float(sum(trial_breakdown.values()))
                # A step that deactivates a scored factor lowers the cost by
                # dropping its term, not by fitting it: reject it outright.
                keeps_active = not np.any(active & ~trial_active)
                if keeps_active and np.isfinite(new_cost) and new_cost <= cost:
                    decrease = cost - new_cost
                    if decrease <= cfg.convergence_rel_decrease * max(cost, _COST_FLOOR):
                        converged = True
                    current, cost, active = candidate, new_cost, trial_active
                    breakdown = trial_breakdown
                    accepted += 1
                    damping = max(damping / cfg.damping_down, _MIN_DAMPING)
                    break
                if (
                    keeps_active
                    and np.isfinite(new_cost)
                    and abs(new_cost - cost)
                    <= cfg.convergence_rel_decrease * max(cost, _COST_FLOOR)
                ):
                    # The best available step changes the cost by a negligible
                    # amount: terminate without moving.
                    converged = True
                    break
            damping *= cfg.damping_up
            if damping > cfg.max_damping:
                if accepted == 0:
                    raise SingularSystem(
                        "damping escalation exhausted without an accepted step"
                    )
                stalled = True
                break
        if cost <= _COST_FLOOR:
            converged = True

    report = SolveReport(
        initial_cost=initial_cost,
        final_cost=cost,
        iterations=accepted,
        converged=converged,
        breakdown=breakdown,
    )
    return current, report


def solve_batch(
    graph: FactorGraph, values: GraphValues, cfg: SolverConfig | None = None
) -> tuple[GraphValues, SolveReport]:
    """Levenberg-Marquardt to convergence (or the iteration budget)."""
    cfg = cfg or SolverConfig()
    return _lm_solve(graph, values, cfg, cfg.max_iterations)


def solve_incremental(
    graph: FactorGraph, values: GraphValues, cfg: SolverConfig | None = None
) -> tuple[GraphValues, SolveReport]:
    """Per-keyframe warm-started update with a bounded iteration budget."""
    cfg = cfg or SolverConfig()
    return _lm_solve(graph, values, cfg, cfg.incremental_iters_per_keyframe)


def initialize_landmark(
    detection: Detection,
    x: Pose,
    K: CameraIntrinsics,
    prior: PriorRecord | None = None,
) -> Quadric:
    """Single-shot ellipsoid from one detection with center depth.

    The centroid back-projects the box center at the measured depth; the two
    lateral semi-axes come from the box extent by similar triangles, and the
    unobservable depth-axis extent starts at their mean (the size prior is
    what corrects it later). The rotation starts camera-aligned, or at the
    orientation-prior target when a prior record is available.
    """
    d = detection.center_depth
    if d is None or d <= 0.0:
        raise NonPositiveDepth(f"landmark initialization needs positive depth, got {d}")
    t = back_project_pixel(K, x, detection.bbox.center(), d)
    sx = detection.bbox.width * d / (2.0 * K.fx)
    sy = detection.bbox.height * d / (2.0 * K.fy)
    s = np.maximum(np.array([sx, sy, 0.5 * (sx + sy)]), 1e-4)
    rotation = x.rotation
    if prior is not None:
        rotation, s = orientation_prior_frame(prior.orientation, rotation, s)
    return Quadric(rotation, t, s)


def add_keyframe(
    graph: FactorGraph,
    values: GraphValues,
    pose_id: int,
    odom: Pose | None,
    detections: Sequence[Detection],
    associations: AssociationResult,
    priors: PriorTable | None,
    K: CameraIntrinsics,
    noise: NoiseConfig = NoiseConfig(),
    flags: Flags = Flags(),
    prior: PriorConfig = PriorConfig(),
    image_size: tuple[float, float] | None = None,
    initial_pose: Pose | None = None,
) -> dict[int, int]:
    """Append one keyframe's variables and factors.

    The new pose starts at compose(previous, odom); the first keyframe takes
    `initial_pose` (default identity, which doubles as the gauge anchor and
    fixes the world frame - pass the gravity-aligned start pose so vertical
    priors mean what they say) and adds no odometry factor. Matched
    detections contribute a bounding-box factor each. Unmatched detections
    with depth spawn a new landmark plus its unary priors (attached exactly
    once, here). Returns the detection-index to landmark-id mapping for this
    frame, covering both matches and newly created landmarks. Box
    components on the border of an image of `image_size` are not scored.
    """
    if pose_id in values.poses:
        raise ValueError(f"pose id {pose_id} already present")
    if values.poses:
        prev_id = max(values.poses)
        if odom is None:
            raise ValueError("odometry measurement required after the first keyframe")
        values.poses[pose_id] = compose(values.poses[prev_id], odom)
        graph.add(OdometryFactor(prev_id, pose_id, odom, noise.odom_noise()))
    else:
        values.poses[pose_id] = initial_pose if initial_pose is not None else Pose.identity()
    x = values.poses[pose_id]

    mapping: dict[int, int] = {}
    bbox_noise = noise.bbox_noise()
    for det_idx in sorted(associations.matches):
        quadric_id = associations.matches[det_idx]
        graph.add(
            BBoxFactor(
                pose_id, quadric_id, detections[det_idx].bbox, K, bbox_noise, image_size
            )
        )
        mapping[det_idx] = quadric_id

    next_id = max(values.quadrics, default=-1) + 1
    for det_idx in associations.unmatched_detections:
        det = detections[det_idx]
        if det.center_depth is None:
            # No depth means no initial centroid; wait for a better view.
            continue
        record = priors.resolve(det.label) if priors is not None else None
        init_record = record if flags.orientation_prior else None
        q0 = initialize_landmark(det, x, K, init_record)
        values.quadrics[next_id] = q0
        graph.add(BBoxFactor(pose_id, next_id, det.bbox, K, bbox_noise, image_size))
        if record is not None:
            s_hat = size_prior_estimate(record, q0.s, det.confidence)
            sigma_r, sigma_t, sigma_s = prior_covariances(s_hat, prior)
            if flags.size_prior:
                graph.add(SizePriorFactor(next_id, s_hat, NoiseModel(sigma_s)))
            if flags.orientation_prior:
                # initialize_landmark already adopted orientation_prior_frame,
                # whose local z is gravity and carries the loose yaw variance
                # kz, so the target is the initial rotation itself.
                graph.add(
                    OrientationPriorFactor(
                        next_id, q0.rotation, NoiseModel(sigma_r)
                    )
                )
            if flags.centroid_factor:
                graph.add(CentroidPriorFactor(next_id, q0.t, NoiseModel(sigma_t)))
        mapping[det_idx] = next_id
        next_id += 1
    return mapping
