import numpy as np
import pytest

from gbhfem.forms import assemble_load, assemble_stiffness_cr, bind_load
from gbhfem.linalg import solve
from gbhfem.mesh import generate_rect_mesh, refine_uniform
from gbhfem.space_cr import CRSpace
from gbhfem.space_dg import DGSpace
from test_assembly_oracle import ref_trace_tables

UNIT = (0.0, 0.0, 1.0, 1.0)


def test_dof_counts():
    s1 = CRSpace(generate_rect_mesh(UNIT, 1))
    assert s1.n_dofs == 5 and len(s1.boundary_dofs) == 4
    s2 = CRSpace(generate_rect_mesh(UNIT, 2))
    assert s2.n_dofs == 16 and len(s2.boundary_dofs) == 8
    assert np.array_equal(s2.boundary_dofs, np.flatnonzero(s2.mesh.boundary_flags))
    assert s2.dof_locations.shape == (16, 2)
    for row in s2.cell_dofs:
        assert len(set(row)) == 3


def test_partition_of_unity_and_nodal_property():
    space = CRSpace(generate_rect_mesh(UNIT, 2))
    lam = np.random.default_rng(1).dirichlet(np.ones(3), size=10)
    assert np.abs(space.basis_values(lam).sum(axis=1) - 1.0).max() < 1e-14
    # midpoint of edge j (barycentric) has zeros at position j
    mids = [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
    assert np.allclose(space.basis_values(mids), np.eye(3), atol=1e-14)


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
    space = CRSpace(generate_rect_mesh(UNIT, 2))
    u = space.interpolate(lambda x: np.zeros(len(x)))
    assert isinstance(u, np.ndarray) and u.shape == (space.n_dofs,) and np.all(u == 0.0)


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
    # the inter-element jump of a CR field integrates to zero on every edge;
    # the reference trace tables of the same mesh hold the barycentric
    # traces, and the CR trace is (1 - 2 lambda) . u
    m = generate_rect_mesh(UNIT, 3)
    space = CRSpace(m)
    dg = DGSpace(m)
    fd = dg.face_data
    Tp, Tm = ref_trace_tables(dg)
    vals = np.random.default_rng(7).uniform(-1, 1, space.n_dofs)
    i = ~m.boundary_flags
    up = np.einsum("eqi,ei->eq", 1.0 - 2.0 * Tp[i], vals[space.cell_dofs[fd.ip[i]]])
    um = np.einsum("eqi,ei->eq", 1.0 - 2.0 * Tm[i], vals[space.cell_dofs[fd.im[i]]])
    assert len(fd.ip) == m.n_edges
    assert np.abs(up - um).max() > 0.1                   # the jump itself is not zero
    assert np.abs(fd.h[i] * ((up - um) @ fd.rule.weights)).max() < 1e-12


def test_dirichlet_constant_one_laplace(dirichlet_system):
    m = generate_rect_mesh(UNIT, 4)
    space = CRSpace(m)
    A = assemble_stiffness_cr(space)
    J, F, u0 = dirichlet_system(space, A, np.zeros(space.n_dofs), lambda x, t: np.ones(len(x)))
    u = u0 - solve(J, F)
    assert np.abs(u - 1.0).max() < 1e-10


def test_dirichlet_homogeneous_zeroes_boundary(dirichlet_system):
    m = generate_rect_mesh(UNIT, 4)
    space = CRSpace(m)
    A = assemble_stiffness_cr(space)
    load = assemble_load(space, bind_load(space, lambda x, t: np.ones(len(x))), 0.0, 1.0)
    J, F, u0 = dirichlet_system(space, A, load, lambda x, t: np.zeros(len(x)))
    u = u0 - solve(J, F)
    assert np.abs(u[space.boundary_dofs]).max() < 1e-12
    assert u.max() > 0.01  # interior actually solved


def test_dirichlet_traveling_wave_datum(dirichlet_system):
    # the value imposed at a boundary midpoint is the sigmoid datum
    re = 50.0
    g = lambda x, t: 1.0 / (1.0 + np.exp(re * (x[:, 0] + x[:, 1] - t) / 2.0))
    m = generate_rect_mesh(UNIT, 4)
    space = CRSpace(m)
    A = assemble_stiffness_cr(space)
    J, F, u0 = dirichlet_system(space, A, np.zeros(space.n_dofs), g)
    u = u0 - solve(J, F)
    bvals, datum = space.dirichlet(g, 0.0)
    assert datum is None
    for i, dof in enumerate(space.boundary_dofs[:5]):
        msum = space.dof_locations[dof].sum()
        assert abs(bvals[i] - 1.0 / (1.0 + np.exp(re * msum / 2.0))) < 1e-14
    assert np.array_equal(u[space.boundary_dofs], bvals)


@pytest.mark.parametrize("make", [CRSpace, DGSpace])
def test_interpolate_rejects_bad_datum(make):
    space = make(generate_rect_mesh(UNIT, 1))
    with pytest.raises(ValueError, match="expected"):
        space.interpolate(lambda x: np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        space.interpolate(lambda x: np.full(len(x), np.nan))
    with pytest.raises(ValueError, match="finite"):
        space.interpolate(lambda x: np.inf)
    assert np.array_equal(space.interpolate(lambda x: 2.0), np.full(space.n_dofs, 2.0))


@pytest.mark.parametrize("make", [CRSpace, DGSpace])
def test_volume_quad_is_shared_and_read_only(make):
    space = make(generate_rect_mesh(UNIT, 3))
    rule, B, X = space.volume_quad(5)
    assert space.volume_quad(5)[1] is B and space.volume_quad(5)[2] is X
    assert X.shape == (space.mesh.n_cells, len(rule.weights), 2)
    assert np.array_equal(B, space.basis_values(rule.points))
    with pytest.raises(ValueError):
        X[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        X.reshape(-1, 2)[:] = 0.0
    with pytest.raises(ValueError):
        B[0, 0] = 0.5
