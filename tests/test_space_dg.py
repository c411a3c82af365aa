import numpy as np

from gbhfem.mesh import Mesh, generate_rect_mesh, refine_uniform
from gbhfem.space_cr import CRSpace
from gbhfem.space_dg import DGSpace

UNIT = (0.0, 0.0, 1.0, 1.0)


def test_dof_counts_and_disjointness():
    assert DGSpace(generate_rect_mesh(UNIT, 1)).n_dofs == 6
    space = DGSpace(generate_rect_mesh(UNIT, 2))
    assert space.n_dofs == 24 and len(space.boundary_dofs) == 0
    mesh = space.mesh
    assert np.array_equal(space.dof_locations[space.cell_dofs], mesh.vertices[mesh.cells])
    seen = set()
    for row in space.cell_dofs:
        assert not seen.intersection(row)
        seen.update(row)


def two_cell_vertical_edge_mesh(scale=1.0):
    # shared edge x = 0 from (0,0) to (0,scale); first cell on the left
    verts = scale * np.array([(0.0, 0.0), (0.0, 1.0), (-1.0, 0.5), (1.0, 0.5)])
    cells = [(0, 1, 2), (0, 3, 1)]
    return Mesh(verts, cells)


def jumps_and_averages(space, u):
    """Jump vectors and averages on interior edges from the solver's face
    table, then on boundary edges, where the jump (u_plus - u_minus) n must
    be u_plus n and the average u_plus."""
    fd = space.face_data
    up, um = space.traces(u)
    jump = (up - um)[:, :, None] * fd.n[:, None, :]
    b = space.mesh.boundary_flags
    return jump[~b], 0.5 * (up + um)[~b], jump[b], up[b]


def face_points(space, T, cells):
    """Physical points of trace tables T (n_edges, nq, 3) on the given cells."""
    return np.einsum("eqi,eid->eqd", T, space.mesh.vertices[space.mesh.cells[cells]])


def test_jump_average_piecewise_constants():
    m = two_cell_vertical_edge_mesh()
    space = DGSpace(m)
    fd = space.face_data
    (e,) = np.flatnonzero(~m.boundary_flags)
    assert fd.ip[e] == 0 and fd.im[e] == 1
    assert np.allclose(fd.n[e], [1.0, 0.0], atol=1e-14)
    vals = np.zeros(space.n_dofs)
    vals[space.cell_dofs[0]] = 1.0  # plus side
    jump, avg, _, _ = jumps_and_averages(space, vals)
    up, um = space.traces(vals)
    assert np.allclose(jump, [1.0, 0.0], atol=1e-14)
    assert np.abs(avg - 0.5).max() < 1e-14
    assert np.all(up[e] == 1.0) and np.all(um[e] == 0.0)


def test_jump_average_boundary():
    m = two_cell_vertical_edge_mesh()
    space = DGSpace(m)
    fd = space.face_data
    vals = np.full(space.n_dofs, 2.0)
    _, _, bjump, bavg = jumps_and_averages(space, vals)
    assert np.array_equal(fd.bnd, np.flatnonzero(m.boundary_flags)) and len(fd.bnd) == 4
    # the minus side of a boundary face is the exterior: its cell is the
    # plus cell (so its blocks land in cell blocks) and its trace table is 0
    assert np.array_equal(fd.im[fd.bnd], fd.ip[fd.bnd]) and np.all(fd.Tm[fd.bnd] == 0.0)
    assert np.allclose(bjump, 2.0 * fd.n[fd.bnd][:, None, :], atol=1e-14)
    assert np.abs(bavg - 2.0).max() < 1e-14
    # the boundary normals point out of the domain
    out = fd.Xb.mean(axis=1) - m.cell_centroids[fd.ip[fd.bnd]]
    assert np.all(np.einsum("ed,ed->e", fd.n[fd.bnd], out) > 0.0)


def test_continuous_interpolant_has_no_interior_jumps():
    m = generate_rect_mesh(UNIT, 3)
    space = DGSpace(m)
    u = space.interpolate(lambda x: np.cos(x[:, 0]) * np.exp(x[:, 1]))
    up, um = space.traces(u)
    assert np.abs(up - um)[~m.boundary_flags].max() < 1e-12


def direct_p1(space, vals, cells, x):
    """P1 field of each cell evaluated at its points x (n, nq, 2), through the
    barycentric coordinates of x in the cell."""
    v = space.mesh.vertices[space.mesh.cells[cells]]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)     # columns
    xi = np.einsum("eqd,ekd->eqk", x - v[:, None, 0], np.linalg.inv(J))
    bary = np.concatenate([1.0 - xi.sum(axis=2, keepdims=True), xi], axis=2)
    return np.einsum("eqi,ei->eq", bary, vals[space.cell_dofs[cells]])


def test_trace_consistency_with_direct_evaluation():
    m = generate_rect_mesh(UNIT, 2)
    space = DGSpace(m)
    vals = np.random.default_rng(3).uniform(-1, 1, space.n_dofs)
    fd = space.face_data
    i = ~m.boundary_flags
    up, um = space.traces(vals)
    xp = face_points(space, fd.Tp, fd.ip)
    xm = face_points(space, fd.Tm[i], fd.im[i])
    # both sides' tables describe the same physical points inside, and the
    # plus side's the datum points on the boundary
    assert np.abs(xp[i] - xm).max() < 1e-13
    assert np.abs(xp[fd.bnd] - fd.Xb).max() < 1e-13
    assert np.abs(up - direct_p1(space, vals, fd.ip, xp)).max() < 1e-13
    assert np.abs(um[i] - direct_p1(space, vals, fd.im[i], xm)).max() < 1e-13
    assert np.all(um[fd.bnd] == 0.0)


def test_penalty_coeff():
    # the jump penalty per unit length between the two cells is gamma / h_E
    for scale, expect in ((1.0, 10.0), (0.5, 20.0)):
        space = DGSpace(two_cell_vertical_edge_mesh(scale))
        fd = space.face_data
        (e,) = np.flatnonzero(~space.mesh.boundary_flags)
        assert fd.h[e] == scale                          # h_E
        plus, minus = np.zeros(space.n_dofs), np.zeros(space.n_dofs)
        plus[space.cell_dofs[fd.ip[e]]] = 1.0
        minus[space.cell_dofs[fd.im[e]]] = 1.0
        coupling = float(plus @ (space.diffusion_matrices(10.0)[2] @ minus))
        assert abs(-coupling / fd.h[e] - expect) < 1e-12


def test_penalty_scales_under_refinement():
    # edge lengths halve, so the penalty gamma / h doubles: the jump
    # seminorm of a fixed piecewise constant field doubles
    coarse = generate_rect_mesh(UNIT, 2)
    spaces = [DGSpace(coarse), DGSpace(refine_uniform(coarse))]
    h = [np.unique(space.face_data.h[~space.mesh.boundary_flags]) for space in spaces]
    assert np.allclose(h[1], 0.5 * h[0])
    norms = []
    for space in spaces:
        left = np.repeat((space.mesh.cell_centroids[:, 0] < 0.5).astype(float), 3)
        norms.append(float(left @ (space.diffusion_matrices(40.0)[2] @ left)))
    assert abs(norms[1] / norms[0] - 2.0) < 1e-12


def test_dg_norm_equals_broken_gradient_for_continuous_field():
    # interpolant of a smooth function vanishing on the boundary
    m = generate_rect_mesh(UNIT, 4)
    space = DGSpace(m)
    g = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    u = space.interpolate(g)
    N = space.diffusion_matrices(40.0)[2]
    grads = space.field_gradients(u)
    broken = float((0.5 * space.det_jacobians * (grads**2).sum(axis=1)).sum())
    assert abs(float(u @ (N @ u)) - broken) < 1e-10


def test_penalty_jump_sq_is_the_norm_matrix_jump_part():
    # against a zero exact solution, gamma times the error norm's jump sum
    # is the jump penalty of the solver's energy-norm Gram matrix
    space = DGSpace(generate_rect_mesh(UNIT, 3))
    u = np.random.default_rng(5).uniform(-1, 1, space.n_dofs)
    zero = lambda x, t: np.zeros(len(x))
    G, _, N = space.diffusion_matrices(40.0)
    jump = 40.0 * space.penalty_jump_sq(u, zero, 0.0)
    assert abs(jump - u @ ((N - G) @ u)) <= 1e-12 * jump
    cr = CRSpace(generate_rect_mesh(UNIT, 3))
    assert cr.penalty_jump_sq(np.ones(cr.n_dofs), zero, 0.0) == 0.0
