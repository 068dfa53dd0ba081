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
    return optimizer.cost_breakdown(graph, values).cost


def linearize(graph: FactorGraph, values: GraphValues) -> tuple[np.ndarray, np.ndarray]:
    """Dense normal equations H, g of the robust-weighted linearization at
    these values, from scratch: one scoring pass, then the solver's own
    ``_normal_equations``, which differentiates from what that pass kept."""
    workspace = optimizer._place(graph, values)
    point = optimizer.cost_breakdown(graph, values, workspace)
    return optimizer._normal_equations(workspace, point)
