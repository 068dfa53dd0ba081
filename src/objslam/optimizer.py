"""Factor graph assembly and nonlinear least-squares solving.

The map state is a set of camera poses and ellipsoid landmarks tied
together by odometry, bounding-box, and unary prior factors.
``GraphValues`` holds it as arrays (stacked rotations, translations or
centroids, and semi-axes; poses first, each kind appended in id order).
``Pose`` and ``Quadric`` objects are built only where values leave the
solver, through ``GraphValues.get``. Solving is Levenberg-Marquardt on the
product manifold: dense normal equations, damping added to their diagonal on
one fixed schedule (the module's damping constants; ``SolverConfig`` holds only
the step budgets), and one ``geometry.retract`` of all free rows per step. The
lowest-id pose is held constant in every solve, which fixes the gauge.

``FactorGraph`` stores the factors once, as one ``factors.Factor`` batch
per kind (bbox factors per camera): stacked variable ids, constant inputs,
square-root information rows and Huber thresholds. ``add_keyframe`` adds at
most one factor per kind per keyframe, and ``FactorGraph.batches`` joins
those added since its last call onto their batch. A solve makes one
``Workspace`` (``_place``), since a solve never adds a variable: each batch
placed in the values' layout (the rows of its variables), the flat
``bincount`` indices of all entries in ``H`` and ``g`` concatenated once,
and one buffer each for the ``J^T J`` and ``J^T r`` products, of which each
batch writes its slice.

``_lm_solve`` is one loop over trial steps. ``cost_breakdown`` scores each
point, the start and every trial, once and without derivatives: each kind's
scoring pass from ``factors`` (the residuals, their validity, and what the
derivative needs, such as the projection's conics) through the noise models.
It returns a ``Point``: the values, their cost per kind, the rows it scored,
and per batch what it scored with. ``_normal_equations`` runs each
kind's derivative pass from that kept output only where ``H`` and ``g`` are
built: at the start point and at each accepted point from which another
step is taken. Rejected trials and the trials of a solve's last budgeted
step are never differentiated. Every local ``J^T J`` and ``J^T r`` is
written into the workspace's buffers and scattered with one ``bincount``;
``H`` and ``g`` themselves are new arrays on every build. A row invalid at
the point enters with zero residual and Jacobian.
``factors.robust_whiten`` applies the noise models and the Huber cost. Each
trial copies ``H`` into one (n, n) buffer of the solve, adds the damping on
its diagonal and solves it by ``_schur_step``, numpy only: no factor joins
two quadrics, so the quadric block is block-diagonal in 9x9 blocks, which
one batched Cholesky factors and eliminates into the pose system (the
bundle-adjustment Schur complement; Triggs et al., "Bundle Adjustment - A
Modern Synthesis", 2000). Both Cholesky factorizations succeed exactly when
the damped system is positive definite. There is no finiteness check: a
non-finite system fails a factorization or gives a non-finite step.
Either, or a rejected trial, raises the damping. A trial that makes a
scored factor invalid (a landmark pushed behind a camera, say) would lower
the cost only by dropping that factor's term, so it is rejected like a cost
increase. A trial that changes the cost by a negligible amount, roundoff
included, ends the solve without moving; an accepted step that lowers it by
at most 1e-5 of it no longer pays, and ends the solve as converged. The
first trial of every solve is damped by 1e-4, near Gauss-Newton; an
accepted step divides the damping by ten but never below 1, which bounds
only the steps about landmark headings that no prior and few boxes hold yet
(the comment on the damping constants gives the curvatures).

Incremental mode is the same solver warm-started from the current values
with a budget of ``incremental_iters_per_keyframe`` accepted steps for a
keyframe that adds a landmark, 2 by default, and one fewer (at least one)
for a keyframe that adds none; it relinearizes the whole graph rather than
maintaining a Bayes tree, which is accurate and fast at desk scale. Each
keyframe's solve starts from the last one's result, so it continues that
solve rather than re-converging the graph (iSAM2 likewise takes one
Gauss-Newton step per update). On the standard scene the median
keyframe's first step cuts the cost by about 8 % and its second by about
0.4 %; a third to fifth step would move it by 3e-4 to 4e-6 relative and
would not change the map's accuracy. Fresh landmarks keep the second step: a
graph built from one fresh keyframe needs it to come within 1e-6 m of the
batch solution. On the standard scenes every landmark spawns in the first
keyframes, so most keyframes take one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

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
    border_mask,
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
    require_field_types,
    retract,
)
from .priors import (
    KX,
    KY,
    PriorRecord,
    PriorTable,
    orientation_prior_frame,
    prior_variances,
    size_prior_estimate,
)

# Total costs at or below this are treated as an exact fit.
_COST_FLOOR = 1e-12
# The damping schedule: start at _INITIAL_DAMPING, divide by _DAMPING_FACTOR
# after an accepted step (down to _MIN_DAMPING), multiply by it after a
# rejected trial, and give up past _MAX_DAMPING. A trial that changes the cost
# by at most _CONVERGED_REL_CHANGE of it ends the solve without moving; an
# accepted step that lowers it by at most _CONVERGED_REL_DECREASE of it is
# kept and ends the solve as converged.
#
# The first trial is near Gauss-Newton, so a fresh keyframe's one or two
# steps match a batch solve. The floor of 1 stops the damping from collapsing
# once steps are accepted: without it batch mode scores 151 points in place
# of 124 on the standard scenes of the ten suite seeds. On those scenes'
# converged maps diag(H) is at least 6.5e4 for poses, 3.0e5 for centroids,
# 5.1e3 for semi-axes and 20 for landmark rotations (smallest eigenvalue of a
# rotation block 20.2), so a damping of 1 is at most 1/20 of every curvature
# there. It bounds the steps about a fresh landmark's heading, which no prior
# holds and one or two boxes barely do (rotation curvatures down to 5e-6).
_INITIAL_DAMPING = 1e-4
_DAMPING_FACTOR = 10.0
_MIN_DAMPING = 1.0
_MAX_DAMPING = 1e8
_CONVERGED_REL_CHANGE = 1e-8
_CONVERGED_REL_DECREASE = 1e-5


class MissingVariable(KeyError):
    """A factor references a variable id absent from the values."""


class SingularSystem(RuntimeError):
    """Damping escalation exhausted without ever finding a downhill step."""


class GraphValues:
    """Current estimates of all variables, stacked.

    Rows of ``R`` (n, 3, 3) and ``t`` (n, 3) are the poses' rotations and
    translations, then the quadrics' rotations and centroids; ``s`` (m, 3)
    holds the quadrics' semi-axes. ``pose_ids`` and ``quadric_ids`` are the
    ids of the rows. Values start empty and grow only by ``append``, and each
    kind's ids increase row by row, so the last pose is the latest keyframe.
    """

    def __init__(self) -> None:
        self.pose_ids = self.quadric_ids = np.empty(0, dtype=np.int64)
        self.R, self.t, self.s = np.empty((0, 3, 3)), np.empty((0, 3)), np.empty((0, 3))

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

    def append(self, key: VariableKey, value: Pose | Quadric) -> None:
        """Add a variable after every variable of its kind. ValueError unless
        its id is above all of theirs."""
        kind, idx = key
        pose = kind == "pose"
        ids = self.pose_ids if pose else self.quadric_ids
        if len(ids) and idx <= ids[-1]:
            raise ValueError(f"{kind} id {idx} is not above the last {kind} id {ids[-1]}")
        row = len(self.pose_ids) if pose else len(self.R)
        t = value.translation if pose else value.t
        self.R = np.concatenate((self.R[:row], value.rotation[None], self.R[row:]))
        self.t = np.concatenate((self.t[:row], t[None], self.t[row:]))
        if pose:
            self.pose_ids = np.concatenate((ids, [idx]))
        else:
            self.quadric_ids = np.concatenate((ids, [idx]))
            self.s = np.concatenate((self.s, value.s[None]))

    def copy(self) -> "GraphValues":
        out = GraphValues()
        out.pose_ids, out.quadric_ids = self.pose_ids, self.quadric_ids
        out.R, out.t, out.s = self.R.copy(), self.t.copy(), self.s.copy()
        return out


class Placed(NamedTuple):
    """A batch placed in one values layout: fixed for a whole solve, since a
    solve moves values but never adds or removes variables."""

    batch: Factor
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


class FactorGraph:
    """The factors of a map, stored once as their batches: one ``Factor``
    per kind and camera, in order of first appearance. Factors are only
    ever appended; those added since the last ``batches()`` wait, per batch
    key, to be joined there."""

    def __init__(self) -> None:
        self._joined: dict[tuple, Factor] = {}
        self._new: dict[tuple, list[Factor]] = {}
        self._batches: list[Factor] = []

    def add(self, factor: Factor) -> None:
        self._new.setdefault(factor.key, []).append(factor)

    def counts_by_kind(self) -> dict[str, int]:
        """Rows per kind, joined or not."""
        out: dict[str, int] = {}
        for f in [*self._joined.values(), *(f for fs in self._new.values() for f in fs)]:
            out[f.kind] = out.get(f.kind, 0) + len(f.huber)
        return out

    def batches(self) -> list[Factor]:
        """The graph's own list of batches. The factors added since the last
        call are joined onto their batch here, one concatenation per batch."""
        if self._new:
            for key, fs in self._new.items():
                if key in self._joined:
                    fs = [self._joined[key], *fs]
                self._joined[key] = fs[0].joined(fs[1:])
            self._new = {}
            self._batches = list(self._joined.values())
        return self._batches


@dataclass(frozen=True)
class SolverConfig:
    """The solver's two budgets of accepted LM steps: a batch solve's, and a
    keyframe's in incremental mode. The damping schedule is fixed."""

    max_iterations: int = 100
    # Accepted steps of a keyframe that adds a landmark; one fewer, but at
    # least one, for a keyframe that adds none.
    incremental_iters_per_keyframe: int = 2

    def __post_init__(self) -> None:
        require_field_types(self)
        if self.max_iterations <= 0 or self.incremental_iters_per_keyframe <= 0:
            raise ValueError("iteration budgets must be positive")


# The Huber width of the bbox factors in standard deviations: an outlier box
# loses influence past two.
BBOX_HUBER_MULTIPLIER = 2.0


@dataclass(frozen=True)
class NoiseConfig:
    """Factor noise scales assumed by the estimator (not the simulator). The
    bbox factors' Huber width is the constant ``BBOX_HUBER_MULTIPLIER``."""

    bbox_sigma_px: float = 10.0
    odom_sigma_rot: float = 0.01
    odom_sigma_trans: float = 0.01

    def __post_init__(self) -> None:
        require_field_types(self)
        if min(self.bbox_sigma_px, self.odom_sigma_rot, self.odom_sigma_trans) <= 0.0:
            raise ValueError("noise scales must be positive")

    # Built once per config: a run's noise never changes.
    @cached_property
    def bbox_noise(self) -> NoiseModel:
        return NoiseModel.isotropic(4, self.bbox_sigma_px, BBOX_HUBER_MULTIPLIER)

    @cached_property
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
    kind, which rows were scored (the batches' validity masks concatenated
    in batch order; a bbox row whose projection is invalid is not scored),
    and per placed batch what ``_normal_equations`` builds H, g from: the
    values of its variable slots, the kind's ``Scored`` pass, the whitened
    residuals e and the IRLS weights w."""

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
    """The point scored at these values, without derivatives: skipped rows add
    nothing and are zero in its ``Scored``. A kind's cost is the builtin ``sum``
    (not numpy's pairwise one) of its valid rows' costs, batch after batch, and
    kinds come in batch order. ``workspace`` is this layout's ``_place``."""
    breakdown: dict[str, float] = {}
    active, kept = [np.empty(0, dtype=bool)], []
    for p in (_place(graph, values) if workspace is None else workspace).placed:
        batch = p.batch
        rows = _stacked(values, p)
        scored = batch.residuals(batch.inputs, *rows)
        scored.r[~scored.valid] = 0.0
        e, costs, w = robust_whiten(batch.sqrt_info, batch.huber, scored.r)
        kept.append((rows, scored, e, w))
        active.append(scored.valid)
        if scored.valid.any():
            kind = batch.kind
            breakdown[kind] = sum(costs[scored.valid].tolist(), breakdown.get(kind, 0.0))
    return Point(values, breakdown, np.concatenate(active), kept)


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
        J = p.batch.jacobians(p.batch.inputs, scored, *rows)
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


def _schur_step(damped: np.ndarray, rhs: np.ndarray, quadrics: int) -> np.ndarray:
    """x with A x = rhs for the symmetric A = ``damped``, laid out as H is:
    the free poses' p columns, then 9 per quadric. No factor kind joins two
    quadrics, so the quadric block A_qq is block-diagonal. Each 9x9 block
    Q = C C^T is factored; W = C^-1 A_qp and y = C^-1 rhs_q eliminate the
    quadrics into the pose Schur complement S = A_pp - W^T W, and the quadric
    rows are back-substituted. ``np.linalg.LinAlgError`` unless A is
    positive definite: by the Schur-complement lemma, exactly when every
    block and S are."""
    p = len(rhs) - 9 * quadrics
    at = np.arange(quadrics)
    blocks = damped[p:, p:].reshape(quadrics, 9, quadrics, 9)[at, :, at]
    inverse = np.linalg.inv(np.linalg.cholesky(blocks))  # C^-1 of each block
    W = (inverse @ damped[p:, :p].reshape(quadrics, 9, p)).reshape(9 * quadrics, p)
    y = (inverse @ rhs[p:].reshape(quadrics, 9, 1)).reshape(-1)
    S = damped[:p, :p] - W.T @ W
    np.linalg.cholesky(S)  # only its failure is needed: S is not positive definite
    poses = np.linalg.solve(S, rhs[:p] - W.T @ y)
    landmarks = np.swapaxes(inverse, 1, 2) @ (y - W @ poses).reshape(quadrics, 9, 1)
    return np.concatenate((poses, landmarks.reshape(-1)))


def _lm_solve(
    graph: FactorGraph, values: GraphValues, max_accepted: int
) -> tuple[GraphValues, SolveReport]:
    workspace = _place(graph, values)
    point = cost_breakdown(graph, values.copy(), workspace)
    initial_cost = point.cost
    n = workspace.n
    quadrics = len(values.quadric_ids)
    damped = np.empty((n, n))  # H + damping I
    diagonal = damped.reshape(-1)[:: n + 1]
    damping = _INITIAL_DAMPING
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
            delta = _schur_step(damped, -g, quadrics)
        except np.linalg.LinAlgError:
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
            if change <= _CONVERGED_REL_CHANGE * max(point.cost, _COST_FLOOR):
                # A negligible change, roundoff included: converge without moving.
                converged = True
                break
            if trial.cost < point.cost:
                # A step that no longer pays is kept and ends the solve.
                converged = (
                    change <= _CONVERGED_REL_DECREASE * point.cost or trial.cost <= _COST_FLOOR
                )
                point = trial
                accepted += 1
                damping = max(damping / _DAMPING_FACTOR, _MIN_DAMPING)
                continue
        damping *= _DAMPING_FACTOR
        if damping > _MAX_DAMPING:
            if accepted == 0:
                raise SingularSystem("damping escalation exhausted without an accepted step")
            break

    return point.values, SolveReport(initial_cost, point.cost, accepted, converged, point.breakdown)


def solve_batch(
    graph: FactorGraph, values: GraphValues, cfg: SolverConfig | None = None
) -> tuple[GraphValues, SolveReport]:
    """Levenberg-Marquardt to convergence (or the iteration budget)."""
    cfg = cfg or SolverConfig()
    return _lm_solve(graph, values, cfg.max_iterations)


def solve_incremental(
    graph: FactorGraph,
    values: GraphValues,
    cfg: SolverConfig | None = None,
    adds_landmark: bool = True,
) -> tuple[GraphValues, SolveReport]:
    """Per-keyframe warm-started update with a bounded iteration budget: one
    step fewer, but at least one, for a keyframe that added no landmark."""
    cfg = cfg or SolverConfig()
    budget = cfg.incremental_iters_per_keyframe
    return _lm_solve(graph, values, budget if adds_landmark else max(1, budget - 1))


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
    what corrects it later). The rotation starts camera-aligned, or upright in
    the frame of ``orientation_prior_frame`` when a prior record is available.
    """
    d = detection.center_depth
    if d is None:
        raise NonPositiveDepth("landmark initialization needs a center depth")
    t = back_project_pixel(K, x, detection.bbox.center()[None], np.array([d]))[0]
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
    x: Pose,
    odom: Pose | None,
    detections: Sequence[Detection],
    associations: AssociationResult,
    priors: PriorTable | None,
    K: CameraIntrinsics,
    noise: NoiseConfig = NoiseConfig(),
    flags: Flags = Flags(),
    image_size: tuple[float, float] | None = None,
) -> dict[int, int]:
    """Append one keyframe's variables and factors.

    The new pose `x` is appended under `pose_id`, which must be above every
    pose id so far; after the first keyframe, `odom` ties it to the latest
    pose with an odometry factor. Matched detections contribute a
    bounding-box row each. Unmatched detections with depth spawn a new
    landmark plus its unary priors (attached exactly once, here); a prior
    record is resolved only when a prior flag is on. Returns the
    detection-index to landmark-id mapping for this frame, covering both
    matches and newly created landmarks. Box components on the border of an
    image of `image_size` are not scored.

    The graph gains at most one factor per kind, each stacking this
    keyframe's rows: odometry, bbox (matched detections sorted, then spawns),
    size, orientation, centroid.
    """
    latest = values.pose_ids[-1:].tolist()
    if latest and odom is None:
        raise ValueError("odometry measurement required after the first keyframe")
    values.append(("pose", pose_id), x)
    if latest:
        graph.add(OdometryFactor(
            np.array([latest, [pose_id]]), (odom.rotation[None], odom.translation[None]),
            *stack_noises([noise.odom_noise]),
        ))

    mapping = {det_idx: associations.matches[det_idx] for det_idx in sorted(associations.matches)}
    # The (landmark id, inputs, noise model) rows of each prior kind, in spawn order.
    unary = {cls: [] for cls in (SizePriorFactor, OrientationPriorFactor, CentroidPriorFactor)}
    any_prior = flags.size_prior or flags.orientation_prior or flags.centroid_factor
    tilt_noise = NoiseModel(np.array([KY, KX]) ** 2)
    next_id = int(values.quadric_ids.max(initial=-1)) + 1
    for det_idx in associations.unmatched_detections:
        det = detections[det_idx]
        if det.center_depth is None:
            # No depth means no initial centroid; wait for a better view.
            continue
        record = priors.resolve(det.label) if priors is not None and any_prior else None
        q0 = initialize_landmark(det, x, K, record if flags.orientation_prior else None)
        values.append(("quadric", next_id), q0)
        mapping[det_idx] = next_id
        if record is not None:
            s_hat = size_prior_estimate(record, q0.s, det.confidence)
            var_t, var_s = prior_variances(s_hat)
            for cls, on, inputs, noise_model in (
                (SizePriorFactor, flags.size_prior, (s_hat,), NoiseModel(var_s)),
                (OrientationPriorFactor, flags.orientation_prior, (), tilt_noise),
                (CentroidPriorFactor, flags.centroid_factor, (q0.t,), NoiseModel(var_t)),
            ):
                if on:
                    unary[cls].append((next_id, inputs, noise_model))
        next_id += 1

    if mapping:
        boxes = np.array([detections[i].bbox.as_array() for i in mapping])
        graph.add(BBoxFactor(
            np.array([[pose_id] * len(mapping), list(mapping.values())]),
            (K, boxes, border_mask(boxes, image_size)),
            *stack_noises([noise.bbox_noise] * len(mapping)),
        ))
    for cls, rows in unary.items():
        if rows:
            ids, inputs, noises = zip(*rows)
            inputs = tuple(map(np.array, zip(*inputs)))
            graph.add(cls(np.array([ids]), inputs, *stack_noises(noises)))
    return mapping
