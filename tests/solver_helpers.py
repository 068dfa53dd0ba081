"""Whole-graph views of the solver's internals that only the tests need.

The solver scores and linearizes inside its LM loop; these wrap the same
calls for one set of values, so the tests can compare them with the
per-factor references and with what a solve built. A ``FactorGraph`` joins
the factors added to it into one batch per kind and camera, so the
references walk the lists of one-row factors (``helpers.bbox_factor`` and
its siblings) the tests built the graphs from, and ``batch_rows`` maps each
to its row of the joined batches. ``values_of`` fills values from pose and
quadric mappings at once, where a run appends one keyframe's variables at a
time.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from objslam import optimizer
from objslam.factors import Factor
from objslam.geometry import Pose, Quadric
from objslam.optimizer import FactorGraph, GraphValues


def graph_of(factors: list[Factor]) -> FactorGraph:
    """A graph of these factors, added in this order."""
    graph = FactorGraph()
    for f in factors:
        graph.add(f)
    return graph


def values_of(
    poses: Mapping[int, Pose] | None = None, quadrics: Mapping[int, Quadric] | None = None
) -> GraphValues:
    """Values holding these poses and quadrics, each kind appended in id order."""
    values = GraphValues()
    for kind, given in (("pose", poses or {}), ("quadric", quadrics or {})):
        for i in sorted(given):
            values.append((kind, i), given[i])
    return values


def batch_rows(factors: list[Factor]) -> np.ndarray:
    """The row of each one-row factor, in added order, in its graph's batch
    rows concatenated (the order of ``Point.active``): grouped by batch key
    in order of first appearance, in added order within a group."""
    groups: dict[tuple, list[int]] = {}
    for i, f in enumerate(factors):
        groups.setdefault(f.key, []).append(i)
    return np.argsort([i for group in groups.values() for i in group])


def total_cost(graph: FactorGraph, values: GraphValues) -> float:
    """The robustified cost of the whole graph at these values."""
    return optimizer.cost_breakdown(graph, values).cost


def linearize(graph: FactorGraph, values: GraphValues) -> tuple[np.ndarray, np.ndarray]:
    """Dense normal equations H, g of the robust-weighted linearization at
    these values, from scratch: one scoring pass, then the solver's own
    ``_normal_equations``, which differentiates from what that pass kept."""
    workspace = optimizer._place(graph, values)
    point = optimizer.cost_breakdown(graph, values, workspace)
    return optimizer._normal_equations(workspace, point)
