"""Whole-graph views of the solver's internals that only the tests need.

The solver scores and linearizes inside its LM loop; these wrap the same
calls for one set of values, so the tests can compare them with the
per-factor references and with what a solve built.
"""

from __future__ import annotations

import numpy as np

from objslam import optimizer
from objslam.optimizer import FactorGraph, GraphValues


def total_cost(graph: FactorGraph, values: GraphValues) -> float:
    """The robustified cost of the whole graph at these values."""
    return float(sum(optimizer.cost_breakdown(graph, values).values()))


def linearize(graph: FactorGraph, values: GraphValues) -> tuple[np.ndarray, np.ndarray]:
    """Dense normal equations H, g of the robust-weighted linearization at
    these values, from scratch: one scoring pass that keeps its Jacobians,
    then the solver's own ``_normal_equations``."""
    placed, kept = optimizer._place(graph, values), []
    optimizer.cost_breakdown(graph, values, placed=placed, kept=kept)
    return optimizer._normal_equations(placed, kept, optimizer._tangent_dim(values))
