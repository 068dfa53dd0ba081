"""Exact 3D box IoU through a convex hull, one pair at a time.

``objslam.evaluation.box_iou_3d`` scores many pairs in one batched pass by
clipping one box's surface with the other's half-spaces. This is the
per-pair path it replaced, a different construction: the intersection's
vertices from the plane triples, its volume from
``scipy.spatial.ConvexHull``, so the tests can check the one against the
other. Nothing outside the tests uses ``scipy.spatial``.

Its vertex tolerance is 1e-9 of the largest plane offset, so far from the
origin it is loose against small boxes: a vertex that far outside a face
stays in the hull. Tests that need it exact there score the pair moved to
the origin.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import scipy.spatial

from objslam.geometry import Quadric

# Half-space tolerance of an intersection vertex, relative to the largest
# plane offset (the scale of the coordinates).
_PLANE_EPS = 1e-9
# Plane triples of unit normals with |det| at or below this are parallel
# (opposite faces of one box) or too close to it to meet in one point.
_DET_EPS = 1e-12
_PLANE_TRIPLES = np.array(list(combinations(range(12), 3)))


def _box_volume(q: Quadric) -> float:
    """Volume of the circumscribed box, not of the ellipsoid."""
    return float(8.0 * np.prod(q.s))


def _halfspaces(q: Quadric) -> tuple[np.ndarray, np.ndarray]:
    """Six face planes of the circumscribed box as outward unit normals
    N (6, 3) and offsets d (6,); a point p is inside when N @ p <= d."""
    N = np.concatenate([q.rotation.T, -q.rotation.T])
    return N, N @ q.t + np.tile(q.s, 2)


def hull_box_iou(a: Quadric, b: Quadric) -> float:
    """Exact IoU of the circumscribed oriented boxes of two quadrics: each
    box has the quadric's axes, centroid and semi-axes as half extents.

    The intersection is the convex polytope bounded by the 12 face planes.
    Its vertices are the solutions of the non-degenerate plane triples that
    satisfy every half-space, and its volume is their convex hull's. Fewer
    than four vertices or a flat hull (boxes touching at a face, an edge or
    a corner) is an empty intersection.
    """
    Na, da = _halfspaces(a)
    Nb, db = _halfspaces(b)
    N, d = np.concatenate([Na, Nb]), np.concatenate([da, db])
    A = N[_PLANE_TRIPLES]
    solvable = np.abs(np.linalg.det(A)) > _DET_EPS
    X = np.linalg.solve(A[solvable], d[_PLANE_TRIPLES][solvable][..., None])[..., 0]
    tol = _PLANE_EPS * float(np.abs(d).max())
    vertices = X[np.all(X @ N.T <= d + tol, axis=1)]
    if len(vertices) < 4:
        return 0.0
    try:
        inter = scipy.spatial.ConvexHull(vertices).volume
    except scipy.spatial.QhullError:
        return 0.0
    union = _box_volume(a) + _box_volume(b) - inter
    return float(min(max(inter / union, 0.0), 1.0))
