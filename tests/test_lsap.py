"""`association.linear_sum_assignment` against scipy's as an oracle, against
brute force on small matrices, and the proof that a run never loads
`scipy.optimize`."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_lsap

import objslam
from objslam.association import linear_sum_assignment

N_PER_KIND = 2000  # six kinds: 12,000 seeded matrices in all


def _float(rng, shape):
    return rng.random(shape)


def _small_int(rng, shape):
    """Many equal costs: the tie rule decides the assignment."""
    return rng.integers(0, 4, shape).astype(np.float64)


def _zero_masked(rng, shape):
    """Mostly zeros, like an IoU matrix of mostly disjoint boxes."""
    return np.where(rng.random(shape) < 0.7, 0.0, rng.random(shape))


def _forbidden(rng, shape):
    """+inf pairs at a random density: some matrices are infeasible."""
    costs = rng.integers(-3, 3, shape).astype(np.float64)
    return np.where(rng.random(shape) < rng.random(), np.inf, costs)


def _negative_inf(rng, shape):
    """-inf entries: forbidden pairs under maximize, invalid otherwise."""
    return np.where(rng.random(shape) < 0.2, -np.inf, rng.random(shape))


def _nan(rng, shape):
    return np.where(rng.random(shape) < 0.05, np.nan, rng.random(shape))


KINDS = [_float, _small_int, _zero_masked, _forbidden, _negative_inf, _nan]


def _outcome(solver, cost, maximize):
    """(rows, cols) as lists, or the ValueError's message."""
    try:
        rows, cols = solver(cost, maximize=maximize)
    except ValueError as exc:
        return str(exc)
    assert rows.dtype == cols.dtype == np.int64
    return rows.tolist(), cols.tolist()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__.strip("_"))
def test_equals_scipy_on_random_matrices(kind):
    rng = np.random.default_rng(sum(map(ord, kind.__name__)))
    outcomes = set()
    for _ in range(N_PER_KIND):
        shape = (int(rng.integers(1, 13)), int(rng.integers(1, 51)))
        if rng.random() < 0.5:
            shape = shape[::-1]
        cost = kind(rng, shape)
        maximize = bool(rng.integers(2))
        expected = _outcome(scipy_lsap, cost, maximize)
        assert _outcome(linear_sum_assignment, cost, maximize) == expected, (shape, maximize)
        outcomes.add(expected if isinstance(expected, str) else "solved")
    # An infinity is a forbidden pair in one direction and invalid in the other.
    infeasible, invalid = "cost matrix is infeasible", "matrix contains invalid numeric entries"
    assert outcomes == {
        _float: {"solved"},
        _small_int: {"solved"},
        _zero_masked: {"solved"},
        _forbidden: {"solved", infeasible, invalid},
        _negative_inf: {"solved", infeasible, invalid},
        _nan: {"solved", invalid},
    }[kind]


@pytest.mark.parametrize("maximize", [False, True])
def test_constant_and_tied_matrices(maximize):
    """Scanning columns in reverse and preferring free ones gives the
    identity on a constant matrix, as scipy does."""
    for shape in [(1, 1), (4, 4), (3, 7), (7, 3)]:
        for cost in (np.zeros(shape), np.ones(shape), np.full(shape, -2.5)):
            rows, cols = linear_sum_assignment(cost, maximize=maximize)
            k = min(shape)
            assert rows.tolist() == list(range(k)) and cols.tolist() == list(range(k))
            assert _outcome(linear_sum_assignment, cost, maximize) == \
                _outcome(scipy_lsap, cost, maximize)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
@pytest.mark.parametrize("maximize", [False, True])
def test_empty_shapes(shape, maximize):
    rows, cols = linear_sum_assignment(np.zeros(shape), maximize=maximize)
    assert rows.shape == cols.shape == (0,)
    assert rows.dtype == cols.dtype == np.int64


@pytest.mark.parametrize(
    "cost, maximize, message",
    [
        ([[np.nan, 1.0]], False, "invalid numeric entries"),
        ([[-np.inf, 1.0]], False, "invalid numeric entries"),
        ([[np.inf, 1.0]], True, "invalid numeric entries"),
        ([[np.inf, np.inf]], False, "infeasible"),
        ([[1.0, 2.0], [np.inf, np.inf]], False, "infeasible"),
        ([[1.0, np.inf], [2.0, np.inf], [3.0, np.inf]], False, "infeasible"),
        ([[-np.inf, -np.inf]], True, "infeasible"),
        ([1.0, 2.0], False, "2-D"),
    ],
)
def test_invalid_matrices_raise_as_scipy_does(cost, maximize, message):
    with pytest.raises(ValueError, match=message):
        linear_sum_assignment(np.array(cost), maximize=maximize)
    with pytest.raises(ValueError, match=message):
        scipy_lsap(np.array(cost), maximize=maximize)


def test_accepts_lists_and_integers():
    rows, cols = linear_sum_assignment([[3, 1], [1, 3], [2, 2]])
    assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]


def _brute_force_cost(cost: np.ndarray) -> float:
    """The least total cost over every injective assignment of the smaller axis."""
    if cost.shape[0] > cost.shape[1]:
        cost = cost.T
    k, n = cost.shape
    return min(
        sum(cost[r, c] for r, c in enumerate(cols))
        for cols in itertools.permutations(range(n), k)
    )


def test_optimal_against_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(400):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        cost = _small_int(rng, shape) if trial % 2 else _float(rng, shape)
        for maximize in (False, True):
            rows, cols = linear_sum_assignment(cost, maximize=maximize)
            assert len(rows) == min(shape)
            assert len(set(cols.tolist())) == len(cols) and np.all(np.diff(rows) > 0)
            sign = -1.0 if maximize else 1.0
            total = sign * cost[rows, cols].sum()
            assert total == pytest.approx(_brute_force_cost(sign * cost), abs=1e-12)


def test_a_run_never_imports_scipy_optimize():
    """A fresh interpreter imports the CLI, maps a scene incrementally and
    scores it, which calls the association and the evaluation matching,
    without loading `scipy.optimize`, then or later."""
    script = textwrap.dedent(
        """
        import sys
        import objslam.cli
        from objslam.config import build_run_config
        from objslam.geometry import CameraIntrinsics
        from objslam.pipeline import run_slam
        from objslam.simulator import SceneSpec, SimConfig, simulate_dataset

        K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0)
        dataset, scene = simulate_dataset(
            SceneSpec(n_objects=3), 6, K, (640, 480), SimConfig(seed=0))
        cfg = build_run_config({"mode": "incremental"})
        estimate, report, _ = run_slam(cfg, dataset, scene.prior_table())
        assert report is not None and report.tp > 0, report
        assert "scipy.optimize" not in sys.modules
        print("ok")
        """
    )
    src = str(Path(objslam.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
