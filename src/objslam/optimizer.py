"""Factor graph assembly and nonlinear least-squares solving.

The map state is a set of camera poses and ellipsoid landmarks tied
together by odometry, bounding-box, and unary prior factors.
``GraphValues`` holds it as arrays (stacked rotations, translations or
centroids, and semi-axes; poses first, each kind by id). ``Pose`` and
``Quadric`` objects are built only where values leave the solver, through
``GraphValues.get``. Solving is Levenberg-Marquardt on the product
manifold: dense normal equations, an additive damping schedule, and one
``geometry.retract`` of all free rows per step. The lowest-id pose is held
constant in every solve, which fixes the gauge.

``FactorGraph.batches`` stacks the factors per kind (bbox factors per
camera), with their noise models' square-root information rows and Huber
thresholds; it stacks only the factors added since its last call and joins
them onto their batch. A solve makes one ``Workspace`` (``_place``), since a
solve never adds a variable: each batch placed in the values' layout (the
rows of its variables), the flat ``bincount`` indices of all entries in
``H`` and ``g`` concatenated once, and one buffer each for the ``J^T J``
and ``J^T r`` products, of which each batch writes its slice.

``_lm_solve`` is one loop over trial steps. ``cost_breakdown`` scores each
point, the start and every trial, once and without derivatives: each kind's
scoring pass from ``factors`` (the residuals, their validity, and what the
derivative needs, such as the projection's conics) through the noise models.
It returns a ``Point``: the values, their cost per kind, the factors it
scored, and per batch what it scored with. ``_normal_equations`` runs each
kind's derivative pass from that kept output only where ``H`` and ``g`` are
built: at the start point and at each accepted point from which another
step is taken. Rejected trials and the trials of a solve's last budgeted
step are never differentiated. Every local ``J^T J`` and ``J^T r`` is
written into the workspace's buffers and scattered with one ``bincount``;
``H`` and ``g`` themselves are new arrays on every build. A row invalid at
the point enters with zero residual and Jacobian.
``factors.robust_whiten`` applies the noise models and the Huber cost. Each
trial copies ``H`` into one (n, n) buffer of the solve, adds the damping on
its diagonal and factors it in place, without a finiteness check: a
non-finite system fails the factorization or gives a non-finite step.
Either, or a rejected trial, raises the damping. A trial that makes a
scored factor invalid (a landmark pushed behind a camera, say) would lower
the cost only by dropping that factor's term, so it is rejected like a cost
increase. A trial that changes the cost by a negligible amount, roundoff
included, ends the solve without moving.

Incremental mode is the same solver warm-started from the current values
with a budget of ``incremental_iters_per_keyframe`` accepted steps per
keyframe, 2 by default; it relinearizes the whole graph rather than
maintaining a Bayes tree, which is accurate and fast at desk scale. Each
keyframe's solve starts from the last one's result, so it continues that
solve rather than re-converging the graph (iSAM2 likewise takes one
Gauss-Newton step per update). On the standard scene the median
keyframe's first step cuts the cost by about 8 % and its second by about
0.4 %; a third to fifth step would move it by 3e-4 to 4e-6 relative and
would not change the map's accuracy. The second step is kept because a graph
built from one fresh keyframe needs it to come within 1e-6 m of the batch
solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .association import AssociationResult
from .dataset import Detection
from .factors import (
    TANGENT_DIM,
    BBoxFactor,
    CentroidPriorFactor,
    Factor,
    NoiseModel,
    OdometryFactor,
    OrientationPriorFactor,
    Scored,
    SizePriorFactor,
    VariableKey,
    robust_whiten,
    stack_noises,
)
from .geometry import (
    SEMI_AXIS_FLOOR,
    CameraIntrinsics,
    NonPositiveDepth,
    Pose,
    Quadric,
    back_project_pixel,
    compose,
    require_field_types,
    retract,
)
from .priors import (
    PriorConfig,
    PriorRecord,
    PriorTable,
    orientation_prior_frame,
    prior_variances,
    size_prior_estimate,
)

# Total costs at or below this are treated as an exact fit.
_COST_FLOOR = 1e-12
_MIN_DAMPING = 1e-15


class MissingVariable(KeyError):
    """A factor references a variable id absent from the values."""


class SingularSystem(RuntimeError):
    """Damping escalation exhausted without ever finding a downhill step."""


class GraphValues:
    """Current estimates of all variables, stacked.

    Rows of ``R`` (n, 3, 3) and ``t`` (n, 3) are the poses' rotations and
    translations, then the quadrics' rotations and centroids; ``s`` (m, 3)
    holds the quadrics' semi-axes. ``pose_ids`` and ``quadric_ids`` are the
    ids of the rows, each sorted ascending.
    """

    def __init__(
        self, poses: Mapping[int, Pose] | None = None, quadrics: Mapping[int, Quadric] | None = None
    ) -> None:
        self.pose_ids = self.quadric_ids = np.empty(0, dtype=np.int64)
        self.R, self.t, self.s = np.empty((0, 3, 3)), np.empty((0, 3)), np.empty((0, 3))
        for i, x in (poses or {}).items():
            self.set(("pose", i), x)
        for j, q in (quadrics or {}).items():
            self.set(("quadric", j), q)

    def rows(self, kind: str, ids: np.ndarray) -> np.ndarray:
        """Rows of R and t holding the variables of one kind with these ids."""
        known = self.pose_ids if kind == "pose" else self.quadric_ids
        ids = np.asarray(ids)
        at = np.searchsorted(known, ids)
        found = at < len(known)
        found[found] = known[at[found]] == ids[found]
        if not found.all():
            raise MissingVariable(f"{kind} {ids[~found][0]} not present in values")
        return at if kind == "pose" else at + len(self.pose_ids)

    def stacked(self, kind: str, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """The values in these rows: (R, t) for poses, (R, t, s) for quadrics."""
        if kind == "pose":
            return self.R[rows], self.t[rows]
        return self.R[rows], self.t[rows], self.s[rows - len(self.pose_ids)]

    def get(self, key: VariableKey) -> Pose | Quadric:
        """The validated pose or quadric of one variable."""
        kind, idx = key
        one = self.stacked(kind, self.rows(kind, [idx]))
        return (Pose if kind == "pose" else Quadric)(*(a[0] for a in one))

    def set(self, key: VariableKey, value: Pose | Quadric) -> None:
        """Overwrite a variable, or insert it at its place in id order."""
        kind, idx = key
        pose = kind == "pose"
        ids = self.pose_ids if pose else self.quadric_ids
        at = int(np.searchsorted(ids, idx))
        row = at if pose else at + len(self.pose_ids)
        if at == len(ids) or ids[at] != idx:
            ids = np.insert(ids, at, idx)
            self.R, self.t = (np.insert(a, row, 0.0, axis=0) for a in (self.R, self.t))
            if pose:
                self.pose_ids = ids
            else:
                self.quadric_ids, self.s = ids, np.insert(self.s, at, 0.0, axis=0)
        self.R[row] = value.rotation
        if pose:
            self.t[row] = value.translation
        else:
            self.t[row], self.s[at] = value.t, value.s

    def copy(self) -> "GraphValues":
        out = GraphValues()
        out.pose_ids, out.quadric_ids = self.pose_ids, self.quadric_ids
        out.R, out.t, out.s = self.R.copy(), self.t.copy(), self.s.copy()
        return out


class Batch(NamedTuple):
    """Factors of one kind (and camera) stacked for the batched functions."""

    cls: type[Factor]
    at: np.ndarray  # (k,) positions in the graph
    variables: tuple[str, ...]  # kind of each variable slot
    ids: np.ndarray  # (slots, k) variable ids
    inputs: tuple  # the kind's stack of constant inputs
    sqrt_info: np.ndarray  # (k, d) and
    huber: np.ndarray  # (k,): the noise models' stack_noises

    def joined(self, more: "Batch") -> "Batch":
        """This batch with ``more`` of the same kind and camera appended. The
        arrays of the inputs stack along their first axis; anything else
        (the camera) is shared by the whole batch."""
        return self._replace(
            at=np.concatenate([self.at, more.at]),
            ids=np.concatenate([self.ids, more.ids], axis=1),
            inputs=tuple(
                np.concatenate([a, b]) if isinstance(a, np.ndarray) else a
                for a, b in zip(self.inputs, more.inputs)
            ),
            sqrt_info=np.concatenate([self.sqrt_info, more.sqrt_info]),
            huber=np.concatenate([self.huber, more.huber]),
        )


class Placed(NamedTuple):
    """A batch placed in one values layout: fixed for a whole solve, since a
    solve moves values but never adds or removes variables."""

    batch: Batch
    rows: list[np.ndarray]  # (k,) rows of each variable slot in the values
    JtJ: np.ndarray  # (k, c, c) and
    Jtr: np.ndarray  # (k, c, 1): this batch's slices of the Workspace products


class Workspace(NamedTuple):
    """Every batch of a graph placed in one values layout, and what building
    H and g needs besides the Jacobians, made once per solve: the flat
    ``bincount`` indices of all factors' J^T J and J^T r entries, into H and
    g padded by the anchored pose's spare row and column n, batch after
    batch, and the buffers ``_normal_equations`` writes the products to."""

    placed: list[Placed]
    n: int  # the tangent dim
    h_at: np.ndarray  # (sum k c c,) flat index of each J^T J entry
    g_at: np.ndarray  # (sum k c,) index of each J^T r entry
    JtJ: np.ndarray  # (sum k c c,) and
    Jtr: np.ndarray  # (sum k c,): the products, overwritten by every build


@dataclass
class FactorGraph:
    """Ordered factor container; iteration order is insertion order.
    Factors are only ever appended."""

    factors: list[Factor] = field(default_factory=list)
    _batches: list[Batch] = field(default_factory=list, init=False, repr=False, compare=False)
    _batch_of: dict[tuple, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _batched: int = field(default=0, init=False, repr=False, compare=False)

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

    def batches(self) -> list[Batch]:
        """The factors stacked per kind and camera, in order of first
        appearance. Only the factors added since the last call are stacked,
        each group joined onto its batch."""
        if self._batched != len(self.factors):
            groups: dict[tuple, list[int]] = {}
            for i in range(self._batched, len(self.factors)):
                f = self.factors[i]
                # One projection takes one camera: bbox factors batch per K.
                groups.setdefault((type(f), getattr(f, "K", None)), []).append(i)
            batches = list(self._batches)
            for key, at in groups.items():
                fs = [self.factors[i] for i in at]
                keys = [f.variable_keys() for f in fs]
                new = Batch(
                    key[0], np.array(at), tuple(kind for kind, _ in keys[0]),
                    np.array([[i for _, i in k] for k in keys]).T,
                    key[0].stack(fs), *stack_noises([f.noise for f in fs]),
                )
                if key in self._batch_of:
                    batches[self._batch_of[key]] = batches[self._batch_of[key]].joined(new)
                else:
                    self._batch_of[key] = len(batches)
                    batches.append(new)
            self._batches, self._batched = batches, len(self.factors)
        return self._batches


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 100
    initial_damping: float = 1e-4
    damping_up: float = 10.0
    damping_down: float = 10.0
    max_damping: float = 1e8
    convergence_rel_decrease: float = 1e-8
    incremental_iters_per_keyframe: int = 2

    def __post_init__(self) -> None:
        require_field_types(self)
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
        require_field_types(self)
        if min(self.bbox_sigma_px, self.odom_sigma_rot, self.odom_sigma_trans) <= 0.0:
            raise ValueError("noise scales must be positive")
        if self.bbox_huber_multiplier <= 0.0:
            raise ValueError("huber multiplier must be positive")

    def bbox_noise(self) -> NoiseModel:
        return NoiseModel.isotropic(4, self.bbox_sigma_px, self.bbox_huber_multiplier)

    def odom_noise(self) -> NoiseModel:
        return NoiseModel(np.array([self.odom_sigma_rot**2] * 3 + [self.odom_sigma_trans**2] * 3))


@dataclass(frozen=True)
class Flags:
    """Prior-factor ablation switches; independent of each other."""

    size_prior: bool = True
    orientation_prior: bool = True
    centroid_factor: bool = True

    def __post_init__(self) -> None:
        require_field_types(self)


@dataclass(frozen=True)
class SolveReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    breakdown: dict[str, float]


def _place(graph: FactorGraph, values: GraphValues) -> Workspace:
    """Every batch of the graph placed in the layout of these values."""
    n = _tangent_dim(values)
    batches = graph.batches()
    rows = [[values.rows(kind, ids) for kind, ids in zip(b.variables, b.ids)] for b in batches]
    cols = [_columns(values, b.variables, r) for b, r in zip(batches, rows)]
    h_at = np.concatenate([np.empty(0, np.int64)] + [
        (c[:, :, None] * (n + 1) + c[:, None, :]).ravel() for c in cols
    ])
    g_at = np.concatenate([np.empty(0, np.int64)] + [c.ravel() for c in cols])
    JtJ, Jtr = np.empty(len(h_at)), np.empty(len(g_at))
    placed, h, g = [], 0, 0
    for batch, r, (k, c) in zip(batches, rows, (c.shape for c in cols)):
        placed.append(Placed(
            batch, r, JtJ[h:h + k * c * c].reshape(k, c, c), Jtr[g:g + k * c].reshape(k, c, 1)
        ))
        h, g = h + k * c * c, g + k * c
    return Workspace(placed, n, h_at, g_at, JtJ, Jtr)


def _stacked(values: GraphValues, placed: Placed) -> list[tuple]:
    """The values of each variable slot of a placed batch: (R, t) for a pose,
    (R, t, s) for a quadric."""
    return [values.stacked(kind, r) for kind, r in zip(placed.batch.variables, placed.rows)]


class Point(NamedTuple):
    """One scored LM point: the values, their robustified cost per factor
    kind, which factors were scored (bool, one per factor in graph order; a
    bbox factor whose projection is invalid is not), and per placed batch
    what ``_normal_equations`` builds H, g from: the values of its variable
    slots, the kind's ``Scored`` pass, the whitened residuals e and the IRLS
    weights w."""

    values: GraphValues
    breakdown: dict[str, float]
    active: np.ndarray
    kept: list[tuple[list[tuple], Scored, np.ndarray, np.ndarray]]

    @property
    def cost(self) -> float:
        return float(sum(self.breakdown.values()))


def cost_breakdown(
    graph: FactorGraph, values: GraphValues, workspace: Workspace | None = None
) -> Point:
    """The point scored at these values, without derivatives; skipped
    residuals contribute nothing and are zero in the point's ``Scored``.
    ``workspace`` is the graph's ``_place`` in the layout of these values,
    computed here when not given."""
    costs = np.zeros(len(graph))
    active = np.zeros(len(graph), dtype=bool)
    kind_of = np.zeros(len(graph), dtype=np.int64)
    kinds: dict[str, int] = {}
    kept = []
    for p in (_place(graph, values) if workspace is None else workspace).placed:
        batch = p.batch
        rows = _stacked(values, p)
        scored = batch.cls.residuals(batch.inputs, *rows)
        scored.r[~scored.valid] = 0.0
        e, costs[batch.at], w = robust_whiten(batch.sqrt_info, batch.huber, scored.r)
        kept.append((rows, scored, e, w))
        active[batch.at] = scored.valid
        kind_of[batch.at] = kinds.setdefault(batch.cls.kind, len(kinds))
    # Sums in graph order, kinds in order of their first scored factor.
    sums = np.bincount(kind_of[active], costs[active], minlength=len(kinds))
    present, first = np.unique(kind_of[active], return_index=True)
    names = list(kinds)
    breakdown = {names[k]: float(sums[k]) for k in present[np.argsort(first)]}
    return Point(values, breakdown, active, kept)


def _anchored(values: GraphValues) -> int:
    """Rows before the first free one: the lowest-id pose, if any."""
    return min(len(values.pose_ids), 1)


def _tangent_dim(values: GraphValues) -> int:
    """Columns of H: 6 per free pose, then 9 per quadric."""
    return 6 * (len(values.pose_ids) - _anchored(values)) + 9 * len(values.quadric_ids)


def _columns(values: GraphValues, kinds: tuple[str, ...], rows: list[np.ndarray]) -> np.ndarray:
    """H columns (k, sum of the variables' dims) of k factors whose variables
    of these kinds sit in these rows. The anchored pose maps to a spare
    column, the tangent dim n."""
    n_poses, anchored = len(values.pose_ids), _anchored(values)
    out = []
    for kind, r in zip(kinds, rows):
        pose = kind == "pose"
        first = 6 * (r - anchored) if pose else 6 * (n_poses - anchored) + 9 * (r - n_poses)
        cols = first[:, None] + np.arange(TANGENT_DIM[kind])
        out.append(np.where(r[:, None] < anchored, _tangent_dim(values), cols))
    return np.concatenate(out, axis=1)


def _normal_equations(workspace: Workspace, point: Point) -> tuple[np.ndarray, np.ndarray]:
    """H (n, n) and g (n,) at a scored point: each batch's derivative pass
    from what the point kept, then every factor's J^T J and J^T r of its
    whitened, robust-weighted Jacobian w S J, written into the workspace's
    product buffers from contiguous (w S J)^T stacks and scattered with one
    ``bincount`` each. An unscored row adds +0.0, which leaves every sum as
    it is. The anchored pose's spare row and column n are cut off at the
    end. H and g are new arrays on every call, never views of the buffers."""
    for p, (rows, scored, e, w) in zip(workspace.placed, point.kept):
        J = p.batch.cls.jacobians(p.batch.inputs, scored, *rows)
        wJ = (w[:, None] * p.batch.sqrt_info)[:, :, None] * J
        wJt = np.ascontiguousarray(np.swapaxes(wJ, 1, 2))
        np.matmul(wJt, wJ, out=p.JtJ)
        np.matmul(wJt, (w[:, None] * e)[:, :, None], out=p.Jtr)
    n = workspace.n
    size = n + 1
    H = np.bincount(workspace.h_at, workspace.JtJ, minlength=size * size)
    g = np.bincount(workspace.g_at, workspace.Jtr, minlength=size)
    return H.reshape(size, size)[:n, :n], g[:n]


def _apply_step(values: GraphValues, delta: np.ndarray) -> GraphValues:
    """The values moved by the solver's step ``delta``: one ``retract`` of
    every row but the anchored pose's."""
    out = values.copy()
    f = _anchored(values)
    out.R[f:], out.t[f:], out.s = retract(values.R[f:], values.t[f:], values.s, delta)
    return out


def _lm_solve(
    graph: FactorGraph, values: GraphValues, cfg: SolverConfig, max_accepted: int
) -> tuple[GraphValues, SolveReport]:
    workspace = _place(graph, values)
    point = cost_breakdown(graph, values.copy(), workspace)
    initial_cost = point.cost
    n = workspace.n
    # H + damping I, factored in place: in Fortran order LAPACK needs no copy.
    damped = np.empty((n, n), order="F")
    diagonal = damped.reshape(-1, order="F")[:: n + 1]
    damping = cfg.initial_damping
    accepted = 0
    converged = n == 0 or point.cost <= _COST_FLOOR
    # The point H, g were built at. The old H, g stay alive until the new ones
    # are built: freeing them first made standard-incremental 7 % slower.
    built_at = None

    while not converged and accepted < max_accepted:
        if built_at is not point:
            H, g = _normal_equations(workspace, point)
            built_at = point
        damped[...] = H
        diagonal += damping
        try:
            delta = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(damped, overwrite_a=True, check_finite=False),
                -g, check_finite=False,
            )
        except scipy.linalg.LinAlgError:
            delta = None  # H + damping I is not positive definite
        # Unchecked, a non-finite H or g fails the factorization or gives a
        # non-finite delta: a failed step either way.
        trial = None if delta is None or not np.all(np.isfinite(delta)) else cost_breakdown(
            graph, _apply_step(point.values, delta), workspace
        )
        # A step that deactivates a scored factor lowers the cost by dropping its term,
        # not by fitting it: reject it. A NaN or infinite cost fails both tests below.
        if trial is not None and not np.any(point.active & ~trial.active):
            change = abs(trial.cost - point.cost)
            if change <= cfg.convergence_rel_decrease * max(point.cost, _COST_FLOOR):
                # A negligible change, roundoff included: converge without moving.
                converged = True
                break
            if trial.cost < point.cost:
                point = trial
                accepted += 1
                damping = max(damping / cfg.damping_down, _MIN_DAMPING)
                converged = point.cost <= _COST_FLOOR
                continue
        damping *= cfg.damping_up
        if damping > cfg.max_damping:
            if accepted == 0:
                raise SingularSystem("damping escalation exhausted without an accepted step")
            break

    return point.values, SolveReport(initial_cost, point.cost, accepted, converged, point.breakdown)


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
    s = np.maximum(np.array([sx, sy, 0.5 * (sx + sy)]), SEMI_AXIS_FLOOR)
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
    if pose_id in values.pose_ids:
        raise ValueError(f"pose id {pose_id} already present")
    if len(values.pose_ids):
        prev_id = int(values.pose_ids[-1])
        if odom is None:
            raise ValueError("odometry measurement required after the first keyframe")
        x = compose(values.get(("pose", prev_id)), odom)
        graph.add(OdometryFactor(prev_id, pose_id, odom, noise.odom_noise()))
    else:
        x = initial_pose if initial_pose is not None else Pose.identity()
    values.set(("pose", pose_id), x)

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

    next_id = int(values.quadric_ids.max(initial=-1)) + 1
    for det_idx in associations.unmatched_detections:
        det = detections[det_idx]
        if det.center_depth is None:
            # No depth means no initial centroid; wait for a better view.
            continue
        record = priors.resolve(det.label) if priors is not None else None
        init_record = record if flags.orientation_prior else None
        q0 = initialize_landmark(det, x, K, init_record)
        values.set(("quadric", next_id), q0)
        graph.add(BBoxFactor(pose_id, next_id, det.bbox, K, bbox_noise, image_size))
        if record is not None:
            s_hat = size_prior_estimate(record, q0.s, det.confidence)
            var_r, var_t, var_s = prior_variances(s_hat, prior)
            if flags.size_prior:
                graph.add(SizePriorFactor(next_id, s_hat, NoiseModel(var_s)))
            if flags.orientation_prior:
                # initialize_landmark already adopted orientation_prior_frame,
                # whose local z is gravity and carries the loose yaw variance
                # kz, so the target is the initial rotation itself.
                graph.add(OrientationPriorFactor(next_id, q0.rotation, NoiseModel(var_r)))
            if flags.centroid_factor:
                graph.add(CentroidPriorFactor(next_id, q0.t, NoiseModel(var_t)))
        mapping[det_idx] = next_id
        next_id += 1
    return mapping
