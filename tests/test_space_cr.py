import numpy as np
import pytest

from gbhfem.forms import assemble_load, assemble_stiffness_cr
from gbhfem.linalg import solve
from gbhfem.mesh import generate_rect_mesh, refine_uniform
from gbhfem.quadrature import edge_rule
from gbhfem.space_cr import (CRSpace, FieldVector, apply_dirichlet_cr, cr_basis,
                             cr_dof_map, cr_interpolate)
from gbhfem.space_dg import DGSpace

UNIT = (0.0, 0.0, 1.0, 1.0)


def test_dof_counts():
    m1 = generate_rect_mesh(UNIT, 1)
    dm = cr_dof_map(m1)
    assert dm.n_dofs == 5 and len(dm.boundary_dofs) == 4
    m2 = generate_rect_mesh(UNIT, 2)
    dm2 = cr_dof_map(m2)
    assert dm2.n_dofs == 16 and len(dm2.boundary_dofs) == 8
    for row in dm2.cell_dofs:
        assert len(set(row)) == 3


def test_partition_of_unity_and_nodal_property():
    m = generate_rect_mesh(UNIT, 2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        lam = rng.dirichlet(np.ones(3))
        vals, _ = cr_basis(m, 0, lam)
        assert abs(vals.sum() - 1.0) < 1e-14
    # midpoint of edge j (barycentric) has zeros at position j
    mids = [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
    for j, lam in enumerate(mids):
        vals, _ = cr_basis(m, 0, lam)
        expect = np.zeros(3)
        expect[j] = 1.0
        assert np.allclose(vals, expect, atol=1e-14)


def test_gradient_reproduces_linears():
    m = generate_rect_mesh(UNIT, 3)
    space = CRSpace(m)
    u = space.interpolate(lambda x: 4.0 * x[:, 0] - 2.5 * x[:, 1] + 1.0)
    g = space.field_gradients(u)
    assert np.abs(g - [4.0, -2.5]).max() < 1e-13


def test_interpolate_linear_has_zero_h1_error():
    m = generate_rect_mesh(UNIT, 2)
    space = CRSpace(m)
    u = space.interpolate(lambda x: x[:, 0] + x[:, 1])
    g = space.field_gradients(u)
    err = np.sqrt((0.5 * space.det_jacobians * ((g[:, 0] - 1) ** 2 + (g[:, 1] - 1) ** 2)).sum())
    assert err < 1e-13


def test_interpolate_zero():
    m = generate_rect_mesh(UNIT, 2)
    dm = cr_dof_map(m)
    u = cr_interpolate(m, dm, lambda x: np.zeros(len(x)))
    assert np.all(u.values == 0.0)


def broken_h1_interp_error(space, g, grad_g, degree=5):
    rule, _, X = space.volume_quad(degree)
    u = space.interpolate(g)
    gh = space.field_gradients(u)
    ge = grad_g(X.reshape(-1, 2)).reshape(X.shape[0], X.shape[1], 2)
    diff = gh[:, None, :] - ge
    return float(np.sqrt(np.einsum("cqd,cqd,q,c->", diff, diff, rule.weights,
                                   space.det_jacobians)))


def test_interpolation_first_order_in_broken_h1():
    g = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    grad_g = lambda x: np.pi * np.column_stack([
        np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
        np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])])
    errs = []
    mesh = generate_rect_mesh(UNIT, 4)
    for _ in range(3):
        errs.append(broken_h1_interp_error(CRSpace(mesh), g, grad_g))
        mesh = refine_uniform(mesh)
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 0.95


def test_jump_mean_zero():
    # the inter-element jump of a CR field integrates to zero on every edge
    m = generate_rect_mesh(UNIT, 3)
    space = CRSpace(m)
    rng = np.random.default_rng(7)
    vals = rng.uniform(-1, 1, space.n_dofs)
    rule = edge_rule(3)
    from gbhfem.space_dg import edge_trace_context  # generic trace machinery

    inv = space.inv_jacobians
    for e in np.flatnonzero(~m.boundary_flags):
        ctx = edge_trace_context(m, e, rule)
        up = (1.0 - 2.0 * ctx.bary_plus) @ vals[space.cell_dofs[ctx.cell_plus]]
        um = (1.0 - 2.0 * ctx.bary_minus) @ vals[space.cell_dofs[ctx.cell_minus]]
        integral = ctx.h_e * float(rule.weights @ (up - um))
        assert abs(integral) < 1e-12


def test_dirichlet_constant_one_laplace():
    m = generate_rect_mesh(UNIT, 4)
    space = CRSpace(m)
    A = assemble_stiffness_cr(space)
    A2, b2 = apply_dirichlet_cr(space.dofmap, lambda x, t: np.ones(len(x)), 0.0,
                                A, np.zeros(space.n_dofs))
    u = solve(A2, b2)
    assert np.abs(u - 1.0).max() < 1e-10


def test_dirichlet_homogeneous_zeroes_boundary():
    m = generate_rect_mesh(UNIT, 4)
    space = CRSpace(m)
    A = assemble_stiffness_cr(space)
    load = assemble_load(space, lambda x, t: np.ones(len(x)), 0.0, 1.0)
    A2, b2 = apply_dirichlet_cr(space.dofmap, lambda x, t: np.zeros(len(x)), 0.0, A, load)
    u = solve(A2, b2)
    assert np.abs(u[space.boundary_dofs]).max() < 1e-12
    assert u.max() > 0.01  # interior actually solved


def test_dirichlet_traveling_wave_datum():
    # the imposed rhs value at a boundary midpoint is the sigmoid datum
    re = 50.0
    g = lambda x, t: 1.0 / (1.0 + np.exp(re * (x[:, 0] + x[:, 1] - t) / 2.0))
    m = generate_rect_mesh(UNIT, 4)
    space = CRSpace(m)
    A = assemble_stiffness_cr(space)
    A2, b2 = apply_dirichlet_cr(space.dofmap, g, 0.0, A, np.zeros(space.n_dofs))
    for dof in space.boundary_dofs[:5]:
        msum = space.dofmap.dof_locations[dof].sum()
        assert abs(b2[dof] - 1.0 / (1.0 + np.exp(re * msum / 2.0))) < 1e-14


def test_field_vector_validation():
    m = generate_rect_mesh(UNIT, 1)
    dm = cr_dof_map(m)
    with pytest.raises(ValueError):
        FieldVector(dm, np.zeros(3))
    with pytest.raises(ValueError):
        FieldVector(dm, np.full(dm.n_dofs, np.nan))


@pytest.mark.parametrize("make", [CRSpace, DGSpace])
def test_volume_quad_is_shared_and_read_only(make):
    space = make(generate_rect_mesh(UNIT, 3))
    rule, B, X = space.volume_quad(5)
    assert space.volume_quad(5)[1] is B and space.volume_quad(5)[2] is X
    assert X.shape == (space.mesh.n_cells, rule.n_points, 2)
    assert np.array_equal(B, space.basis_values(rule.points))
    with pytest.raises(ValueError):
        X[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        X.reshape(-1, 2)[:] = 0.0
    with pytest.raises(ValueError):
        B[0, 0] = 0.5
