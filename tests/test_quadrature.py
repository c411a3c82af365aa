from math import factorial

import numpy as np
import pytest

from gbhfem.mesh import Mesh, generate_rect_mesh
from gbhfem.quadrature import edge_rule, triangle_rule
from gbhfem.space_cr import CRSpace


def exact_monomial(a, b):
    # int over the reference triangle of x^a y^b
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(1, 11))
def test_triangle_monomial_exactness(degree):
    rule = triangle_rule(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    x, y = rule.points[:, 1], rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(rule.weights @ (x**a * y**b))
            assert abs(got - exact_monomial(a, b)) < 5e-14, (a, b)


def test_triangle_examples():
    r1 = triangle_rule(1)
    assert abs(r1.weights.sum() - 0.5) < 1e-15
    r2 = triangle_rule(2)
    xy = r2.points[:, 1] * r2.points[:, 2]
    assert abs(float(r2.weights @ xy) - 1.0 / 24.0) < 1e-15
    r4 = triangle_rule(4)
    assert abs(float(r4.weights @ r4.points[:, 1] ** 4) - 1.0 / 30.0) < 1e-15


def test_degree_bounds():
    for bad in (0, 11, -3):
        with pytest.raises(ValueError):
            triangle_rule(bad)
        with pytest.raises(ValueError):
            edge_rule(bad)


@pytest.mark.parametrize("degree", range(1, 11))
def test_edge_exactness(degree):
    rule = edge_rule(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for p in range(degree + 1):
        got = float(rule.weights @ rule.points**p)
        assert abs(got - 1.0 / (p + 1)) < 1e-14


def test_edge_cubic():
    rule = edge_rule(3)
    assert abs(float(rule.weights @ rule.points**3) - 0.25) < 1e-14


def cell_integrals(mesh, f, degree):
    """Per-cell integrals of f((n, 2) points) as the forms compute them:
    volume_quad weights times det J."""
    space = CRSpace(mesh)
    rule, _, X = space.volume_quad(degree)
    vals = f(X.reshape(-1, 2)).reshape(X.shape[:2])
    return space.det_jacobians * (vals @ rule.weights)


def test_integrate_cell_constant_and_linear():
    m = generate_rect_mesh((0, 0, 1, 1), 2)
    ones = cell_integrals(m, lambda x: np.ones(len(x)), 2)
    assert np.abs(ones - m.cell_areas).max() < 1e-15
    # linear integrand equals area * value at centroid
    lin = lambda x: 3.0 * x[:, 0] - 2.0 * x[:, 1] + 1.0
    got = cell_integrals(m, lin, 2)
    assert np.abs(got - m.cell_areas * lin(m.cell_centroids)).max() < 1e-14


def test_integrate_sine_product():
    m = generate_rect_mesh((0, 0, 1, 1), 32)
    total = cell_integrals(m, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]), 6).sum()
    assert abs(total - 4.0 / np.pi**2) < 1e-6


def test_rotation_invariance():
    # cyclic relabeling of the cell's vertices must not change the result
    verts = [(0.1, 0.2), (0.9, 0.3), (0.4, 0.8)]
    f = lambda x: np.exp(x[:, 0]) * np.cos(3.0 * x[:, 1])
    vals = []
    for shift in range(3):
        cell = tuple(np.roll([0, 1, 2], shift))
        vals.append(cell_integrals(Mesh(verts, [cell]), f, 5)[0])
    assert max(vals) - min(vals) < 1e-13


def test_integrate_cell_errors():
    # the volume quadrature of a space exists only for supported degrees
    space = CRSpace(generate_rect_mesh((0, 0, 1, 1), 1))
    for degree in (0, 11, 2.5):
        with pytest.raises(ValueError):
            space.volume_quad(degree)
