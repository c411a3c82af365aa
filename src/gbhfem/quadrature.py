"""Gauss quadrature on the reference triangle and reference edge.

Triangle rules are cyclically symmetric with positive weights: degrees
1, 2 and 5 use the classical centroid, edge-midpoint and 7-point rules;
other degrees fall back to a symmetrized conical product built from
Gauss-Jacobi x Gauss-Legendre nodes.  Cyclic symmetry makes mapped
integration invariant under relabeling of a cell's vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

__all__ = ["QuadratureRule", "triangle_rule", "edge_rule"]

MAX_DEGREE = 10


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable quadrature rule on a reference domain.

    ``points`` are barycentric triples for triangle rules and scalars in
    [0, 1] for edge rules.  Weights are positive and sum to the reference
    measure (1/2 for the triangle, 1 for the edge).
    """

    kind: str          # "triangle" | "edge"
    degree: int
    points: np.ndarray
    weights: np.ndarray


def _check_degree(degree):
    if not isinstance(degree, (int, np.integer)) or not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"unsupported quadrature degree {degree!r} (need 1..{MAX_DEGREE})")
    return int(degree)


def _cyclic(orbit_points, orbit_weights):
    """Expand (lam0, lam1, lam2) seeds into their cyclic orbits, w/3 each."""
    pts, wts = [], []
    for lam, w in zip(orbit_points, orbit_weights):
        lam = np.asarray(lam, dtype=float)
        for shift in range(3):
            pts.append(np.roll(lam, shift))
            wts.append(w / 3.0)
    return np.array(pts), np.array(wts)


def _seven_point():
    s15 = np.sqrt(15.0)
    a1 = (6.0 + s15) / 21.0
    a2 = (6.0 - s15) / 21.0
    w1 = (155.0 + s15) / 2400.0
    w2 = (155.0 - s15) / 2400.0
    pts = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    wts = [9.0 / 80.0]
    for a, w in ((a1, w1), (a2, w2)):
        for lam in ((a, a, 1 - 2 * a), (a, 1 - 2 * a, a), (1 - 2 * a, a, a)):
            pts.append(lam)
            wts.append(w)
    return np.array(pts), np.array(wts)


def _conical(degree):
    """Conical product rule, then cyclic symmetrization."""
    m = (degree + 2) // 2  # exact to 2m-1 >= degree
    xj, wj = roots_jacobi(m, 1.0, 0.0)
    xi = 0.5 * (xj + 1.0)          # Jacobi(1,0) nodes on [0,1]; weight (1-x)
    wi = 0.25 * wj                 # sum = 1/2
    xl, wl = roots_legendre(m)
    s = 0.5 * (xl + 1.0)
    ws = 0.5 * wl                  # sum = 1
    x = np.repeat(xi, m)
    y = (1.0 - np.repeat(xi, m)) * np.tile(s, m)
    w = np.repeat(wi, m) * np.tile(ws, m)
    bary = np.column_stack([1.0 - x - y, x, y])
    return _cyclic(bary, w)  # orbit total equals the seed weight


def triangle_rule(degree):
    """Positive, cyclically symmetric rule exact for total degree <= ``degree``."""
    degree = _check_degree(degree)
    if degree == 1:
        pts = np.array([[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])
        wts = np.array([0.5])
    elif degree == 2:
        pts, wts = _cyclic([(0.5, 0.5, 0.0)], [0.5])
    elif degree <= 5:
        pts, wts = _seven_point()
    else:
        pts, wts = _conical(degree)
    return QuadratureRule("triangle", degree, pts, wts)


def edge_rule(degree):
    """Gauss-Legendre rule on [0, 1] exact for degree <= ``degree``."""
    degree = _check_degree(degree)
    m = (degree + 2) // 2
    x, w = roots_legendre(m)
    return QuadratureRule("edge", degree, 0.5 * (x + 1.0), 0.5 * w)
