"""Pattern assembly against the COO -> CSR reference path.

The reference below is the earlier assembly: per-form einsum kernels,
COO row/column/value arrays scattered by ``coo_matrix`` with duplicate
summing, and residuals accumulated by ``np.add.at``.  The forms now add
their blocks into a fixed CSR pattern's data with ``np.add.at``; both
must agree to rounding.  The nonlinear references keep convection (CR volume,
DG volume plus upwind flux) and reaction apart; ``ref_nonlinear``, their
difference, is the oracle of the one cell kernel the spaces use.  The DG
references keep their interior and boundary face formulas apart, on the
earlier per-face trace tables (n_edges, nq, 3): the barycentric coordinates
of each edge's quadrature points in its two cells, built here from the mesh
geometry (``ref_trace_tables``) and split by ``mesh.boundary_flags``
(``split_faces``).  The Nitsche vector's reference is a loop over the
boundary faces and their quadrature points (``ref_nitsche``).
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from gbhfem.forms import (ModelParams, assemble_mass, assemble_stiffness_cr,
                          dg_boundary_values, nonlinear_quad_degree)
from gbhfem.mesh import generate_rect_mesh
from gbhfem.space_cr import CRSpace
from gbhfem.space_dg import DGSpace

UNIT = (0.0, 0.0, 1.0, 1.0)
RTOL = 1e-13


def _rows(dofs):
    return np.repeat(dofs, 3, axis=1)


def _cols(dofs):
    return np.tile(dofs, (1, 3))


def coo_scatter(space, pieces):
    """COO -> canonical CSR of (row_dofs, col_dofs, blocks) pieces."""
    rows = np.concatenate([_rows(r).ravel() for r, _, _ in pieces])
    cols = np.concatenate([_cols(c).ravel() for _, c, _ in pieces])
    vals = np.concatenate([np.asarray(v).ravel() for _, _, v in pieces])
    A = sp.coo_matrix((vals, (rows, cols)), shape=(space.n_dofs, space.n_dofs))
    A = A.tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def add_at(space, *pieces):
    out = np.zeros(space.n_dofs)
    for dofs, vals in pieces:
        np.add.at(out, dofs, vals)
    return out


def ref_cells(space, blocks):
    return (space.cell_dofs, space.cell_dofs, blocks)


def ref_mass(space):
    rule, B, _ = space.volume_quad(2)
    blocks = np.einsum("q,qi,qj->ij", rule.weights, B, B)
    return coo_scatter(space, [ref_cells(space, space.det_jacobians[:, None, None] * blocks)])


def ref_stiffness_blocks(space):
    areas = 0.5 * space.det_jacobians
    return np.einsum("cid,cjd,c->cij", space.grads, space.grads, areas)


def ref_trace_tables(space):
    """Per-face trace tables (n_edges, nq, 3) of the plus and minus cells:
    the cell's barycentric coordinates at the edge quadrature points
    (1 - s) a + s b, from the mesh geometry; the minus table is 0 on
    boundary edges."""
    mesh, fd = space.mesh, space.face_data
    s = fd.rule.points
    a, b = (mesh.vertices[mesh.edges[:, k]][:, None, :] for k in (0, 1))
    x = (1.0 - s)[None, :, None] * a + s[None, :, None] * b
    tables = []
    for cells in (fd.ip, fd.im):
        v = mesh.vertices[mesh.cells[cells]]
        J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)     # columns
        xi = np.einsum("eqd,ekd->eqk", x - v[:, None, 0], np.linalg.inv(J))
        tables.append(np.concatenate([1.0 - xi.sum(axis=2, keepdims=True), xi], axis=2))
    tables[1][mesh.boundary_flags] = 0.0
    return tables


def split_faces(space):
    """The reference trace tables as separate interior and boundary tables,
    the faces selected by ``mesh.boundary_flags``, with plain normal
    gradients g_i . n."""
    fd = space.face_data
    Tp, Tm = ref_trace_tables(space)
    pdofs, mdofs = space.cell_dofs[fd.ip], space.cell_dofs[fd.im]
    i, b = ~space.mesh.boundary_flags, space.mesh.boundary_flags
    gnp = np.einsum("cid,cd->ci", space.grads[fd.ip], fd.n)
    gnm = np.einsum("cid,cd->ci", space.grads[fd.im], fd.n)
    return SimpleNamespace(
        rule=fd.rule, n_int=fd.n[i], h_int=fd.h[i], Tp=Tp[i], Tm=Tm[i],
        pdofs=pdofs[i], mdofs=mdofs[i], gnp=gnp[i], gnm=gnm[i],
        n_bnd=fd.n[b], h_bnd=fd.h[b], Tb=Tp[b], bdofs=pdofs[b], gnb=gnp[b])


def split_traces(space, u):
    """Plus and minus traces on interior faces, plus traces on boundary
    faces, from the reference trace tables."""
    fd = space.face_data
    Tp, Tm = ref_trace_tables(space)
    up = np.einsum("eqi,ei->eq", Tp, u[space.cell_dofs[fd.ip]])
    um = np.einsum("eqi,ei->eq", Tm, u[space.cell_dofs[fd.im]])
    i, b = ~space.mesh.boundary_flags, space.mesh.boundary_flags
    return up[i], um[i], up[b]


def ref_sipg_pieces(space, penalty_gamma, penalty_only=False):
    fd = split_faces(space)
    w = fd.rule.weights
    pieces = []
    IntTp = np.einsum("q,eqi->ei", w, fd.Tp) * fd.h_int[:, None]
    IntTm = np.einsum("q,eqi->ei", w, fd.Tm) * fd.h_int[:, None]
    TTpp = np.einsum("q,eqi,eqj->eij", w, fd.Tp, fd.Tp) * fd.h_int[:, None, None]
    TTpm = np.einsum("q,eqi,eqj->eij", w, fd.Tp, fd.Tm) * fd.h_int[:, None, None]
    TTmm = np.einsum("q,eqi,eqj->eij", w, fd.Tm, fd.Tm) * fd.h_int[:, None, None]
    gh = (penalty_gamma / fd.h_int)[:, None, None]
    pieces += [(fd.pdofs, fd.pdofs, gh * TTpp), (fd.pdofs, fd.mdofs, -gh * TTpm),
               (fd.mdofs, fd.pdofs, -gh * TTpm.transpose(0, 2, 1)),
               (fd.mdofs, fd.mdofs, gh * TTmm)]
    TTbb = np.einsum("q,eqi,eqj->eij", w, fd.Tb, fd.Tb) * fd.h_bnd[:, None, None]
    pieces.append((fd.bdofs, fd.bdofs, (penalty_gamma / fd.h_bnd)[:, None, None] * TTbb))
    if not penalty_only:
        for rdofs, IntT, rsign in ((fd.pdofs, IntTp, 1.0), (fd.mdofs, IntTm, -1.0)):
            for cdofs, gn in ((fd.pdofs, fd.gnp), (fd.mdofs, fd.gnm)):
                blk = -0.5 * rsign * np.einsum("ei,ej->eij", IntT, gn)
                pieces += [(rdofs, cdofs, blk), (cdofs, rdofs, blk.transpose(0, 2, 1))]
        IntTb = np.einsum("q,eqi->ei", w, fd.Tb) * fd.h_bnd[:, None]
        blk = -np.einsum("ei,ej->eij", IntTb, fd.gnb)
        pieces += [(fd.bdofs, fd.bdofs, blk), (fd.bdofs, fd.bdofs, blk.transpose(0, 2, 1))]
    return pieces


def ref_nitsche(space, datum, penalty_gamma):
    """The Nitsche vector, one boundary face and quadrature point at a
    time: sum over E, q of w_q h_E g(x_q) (gamma / h_E v(x_q) - grad v . n)."""
    fd = split_faces(space)
    out = np.zeros(space.n_dofs)
    for e, h in enumerate(fd.h_bnd):
        for q, w in enumerate(fd.rule.weights):
            for i in range(3):
                test = penalty_gamma / h * fd.Tb[e, q, i] - fd.gnb[e, i]
                out[fd.bdofs[e, i]] += w * h * datum[e, q] * test
    return out


def ref_volume_convection(space, u, alpha, delta):
    rule, B, _ = space.volume_quad(nonlinear_quad_degree(delta))
    w = rule.weights
    ucell = u[space.cell_dofs]
    uq = ucell @ B.T
    grad_u = np.einsum("cid,ci->cd", space.grads, ucell)
    s_u = grad_u[:, 0] + grad_u[:, 1]
    s_phi = space.grads[:, :, 0] + space.grads[:, :, 1]
    det = space.det_jacobians
    scale = alpha / (delta + 2.0)
    ud = uq ** delta
    R1 = np.einsum("cq,q,qi->ci", ud, w, B) * (det * s_u)[:, None]
    R2 = np.einsum("cq,q->c", ud * uq, w)[:, None] * s_phi * det[:, None]
    udm1 = uq ** (delta - 1)
    J1a = np.einsum("cq,q,qm,qi->cim", udm1, w, B, B) * (delta * det * s_u)[:, None, None]
    J1b = np.einsum("cq,q,qi->ci", ud, w, B)[:, :, None] * s_phi[:, None, :] * det[:, None, None]
    J2 = (np.einsum("cq,q,qm->cm", ud, w, B)[:, None, :] * s_phi[:, :, None]
          * ((delta + 1.0) * det)[:, None, None])
    return scale * (R1 - R2), scale * (J1a + J1b - J2)


def ref_convection_cr(space, u, params):
    res_cells, jac_cells = ref_volume_convection(space, u, params.alpha, params.delta)
    return (add_at(space, (space.cell_dofs, res_cells)),
            coo_scatter(space, [ref_cells(space, jac_cells)]))


def ref_convection_dg(space, u, params, boundary_values):
    alpha, delta = params.alpha, params.delta
    scale = alpha / (delta + 2.0)
    res_cells, jac_cells = ref_volume_convection(space, u, alpha, delta)
    res = add_at(space, (space.cell_dofs, res_cells))
    pieces = [ref_cells(space, jac_cells)]
    fd = split_faces(space)
    w = fd.rule.weights
    up, um, ub = split_traces(space, u)
    nsum_p = fd.n_int[:, 0] + fd.n_int[:, 1]
    W = w[None, :] * fd.h_int[:, None]

    def dc(wn, us, nsum):
        return np.where(wn < 0.0, delta * us ** (delta - 1) * nsum[:, None], 0.0)

    upwind = []
    for us, uo, Ts, To, sdofs, odofs, nsum in (
            (up, um, fd.Tp, fd.Tm, fd.pdofs, fd.mdofs, nsum_p),
            (um, up, fd.Tm, fd.Tp, fd.mdofs, fd.pdofs, -nsum_p)):
        wn = (us ** delta) * nsum[:, None]
        c = 0.5 * (wn - np.abs(wn))
        r2 = np.einsum("eq,eq,eqi->ei", W, c * (uo - us), Ts)
        r4o = np.einsum("eq,eq,eqi->ei", W, c * us, To)
        r4s = np.einsum("eq,eq,eqi->ei", W, c * us, Ts)
        np.add.at(res, sdofs, scale * (r2 + r4s))
        np.add.at(res, odofs, -scale * r4o)
        upwind.append((c, dc(wn, us, nsum)))
    (cp, dcp), (cm, dcm) = upwind

    def block(coef, Ta, Tb):
        return scale * np.einsum("eq,eqi,eqj->eij", W * coef, Ta, Tb)

    pieces += [(fd.pdofs, fd.mdofs, block(cp - cm - dcm * um, fd.Tp, fd.Tm)),
               (fd.mdofs, fd.pdofs, block(cm - cp - dcp * up, fd.Tm, fd.Tp)),
               (fd.pdofs, fd.pdofs, block(dcp * um, fd.Tp, fd.Tp)),
               (fd.mdofs, fd.mdofs, block(dcm * up, fd.Tm, fd.Tm))]
    if boundary_values is not None:
        nsum_b = fd.n_bnd[:, 0] + fd.n_bnd[:, 1]
        wn = (ub ** delta) * nsum_b[:, None]
        c = 0.5 * (wn - np.abs(wn))
        Wb = w[None, :] * fd.h_bnd[:, None]
        rb = np.einsum("eq,eq,eqi->ei", Wb, c * boundary_values, fd.Tb)
        np.add.at(res, fd.bdofs, scale * rb)
        Wdg = Wb * dc(wn, ub, nsum_b) * boundary_values
        pieces.append((fd.bdofs, fd.bdofs,
                       scale * np.einsum("eq,eqi,eqj->eij", Wdg, fd.Tb, fd.Tb)))
    return res, coo_scatter(space, pieces)


def ref_reaction(space, u, params):
    beta, gamma, delta = params.beta, params.reaction_gamma, params.delta
    rule, B, _ = space.volume_quad(nonlinear_quad_degree(delta))
    w = rule.weights
    uq = u[space.cell_dofs] @ B.T
    ud = uq ** delta
    det = space.det_jacobians
    cval = (1.0 + gamma) * ud * uq - gamma * uq - ud * ud * uq
    res = add_at(space, (space.cell_dofs,
                         beta * np.einsum("cq,q,qi->ci", cval, w, B) * det[:, None]))
    cder = (1.0 + gamma) * (delta + 1.0) * ud - gamma - (2.0 * delta + 1.0) * ud * ud
    jac_cells = beta * np.einsum("cq,q,qi,qj->cij", cder, w, B, B) * det[:, None, None]
    return res, coo_scatter(space, [ref_cells(space, jac_cells)])


def ref_convection(space, u, params, datum=None):
    if isinstance(space, CRSpace):
        return ref_convection_cr(space, u, params)
    return ref_convection_dg(space, u, params, datum)


def ref_nonlinear(space, u, params, datum=None):
    """Convection minus reaction, each skipped when its coefficient is 0:
    (residual, Jacobian matrix)."""
    res = np.zeros(space.n_dofs)
    jac = sp.csr_matrix((space.n_dofs, space.n_dofs))
    if params.alpha > 0.0:
        r, j = ref_convection(space, u, params, datum)
        res, jac = res + r, jac + j
    if params.beta > 0.0:
        r, j = ref_reaction(space, u, params)
        res, jac = res - r, jac - j
    return res, jac


def assert_matrix_close(A, ref):
    scale = abs(ref).max()
    assert abs(A - ref).max() <= RTOL * scale, abs(A - ref).max() / scale


def assert_vector_close(v, ref):
    assert np.abs(v - ref).max() <= RTOL * np.abs(ref).max()


def space_of(kind, n=4):
    mesh = generate_rect_mesh(UNIT, n)
    return CRSpace(mesh) if kind == "cr" else DGSpace(mesh)


@pytest.mark.parametrize("kind", ["cr", "dg"])
def test_constant_forms_match_coo_reference(kind):
    space = space_of(kind)
    assert_matrix_close(assemble_mass(space), ref_mass(space))
    stiff = [ref_cells(space, ref_stiffness_blocks(space))]
    assert_matrix_close(assemble_stiffness_cr(space), coo_scatter(space, stiff))
    if kind == "dg":
        G, A, N = space.diffusion_matrices(40.0)
        assert_matrix_close(G, coo_scatter(space, stiff))
        assert_matrix_close(A, coo_scatter(space, stiff + ref_sipg_pieces(space, 40.0)))
        assert_matrix_close(N, coo_scatter(space, stiff + ref_sipg_pieces(space, 40.0, True)))


@pytest.mark.parametrize("penalty_gamma", [1.0, 40.0])
def test_nitsche_vector_matches_face_loop(penalty_gamma):
    space = space_of("dg")
    datum = dg_boundary_values(space, lambda x, t: np.sin(3.0 * x[:, 0] + t) + x[:, 1] ** 2,
                               0.3)
    assert_vector_close(space.nitsche(datum, penalty_gamma),
                        ref_nitsche(space, datum, penalty_gamma))


def datums_of(space):
    """None, and for DG also a nonzero face datum."""
    if isinstance(space, CRSpace):
        return [None]
    return [None, dg_boundary_values(space, lambda x, t: 0.5 + x[:, 0] - x[:, 1], 0.0)]


def assert_nonlinear_matches(space, u, params, ref):
    for datum in datums_of(space):
        data = np.zeros(space.pattern.nnz)
        assert space.add_nonlinear_jacobian(data, u, params, datum) is data
        ref_res, ref_jac = ref(space, u, params, datum)
        assert_vector_close(space.nonlinear_residual(u, params, datum), ref_res)
        assert_matrix_close(space.pattern.matrix(data), ref_jac)


@pytest.mark.parametrize("kind", ["cr", "dg"])
@pytest.mark.parametrize("delta", [1, 2])
def test_nonlinear_forms_match_coo_reference(kind, delta):
    # the one cell kernel (plus DG's upwind flux) against the per-term loops
    space = space_of(kind)
    params = ModelParams(delta=delta, reaction_gamma=0.3, alpha=1.5, beta=2.0)
    u = np.random.default_rng(17 + delta).uniform(-1, 1, space.n_dofs)
    assert_nonlinear_matches(space, u, params, ref_nonlinear)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # u**delta overflows on purpose
@pytest.mark.parametrize("kind", ["cr", "dg"])
@pytest.mark.parametrize("zero", ["alpha", "beta"])
def test_zero_coefficient_term_is_not_evaluated(kind, zero):
    # alpha = 0 leaves minus the reaction, beta = 0 the convection alone;
    # with both 0 a huge iterate gives zeros, not 0 * inf = NaN
    space = space_of(kind)
    params = ModelParams(**{"delta": 2, "reaction_gamma": 0.3, "alpha": 1.5, "beta": 2.0,
                            zero: 0.0})
    u = np.random.default_rng(23).uniform(-1, 1, space.n_dofs)
    if zero == "alpha":
        def minus_reaction(s, v, p, g):
            r, j = ref_reaction(s, v, p)
            return -r, -j
        assert_nonlinear_matches(space, u, params, minus_reaction)
    else:
        assert_nonlinear_matches(space, u, params, ref_convection)
    params = ModelParams(delta=2, alpha=0.0, beta=0.0)
    for datum in datums_of(space):
        assert np.all(space.nonlinear_residual(1e200 * u, params, datum) == 0.0)
        data = space.add_nonlinear_jacobian(np.zeros(space.pattern.nnz), 1e200 * u, params,
                                            datum)
        assert np.all(data == 0.0)


@pytest.mark.parametrize("kind", ["cr", "dg"])
def test_pattern_is_the_union_of_the_reference_blocks(kind):
    space = space_of(kind, 3)
    blocks = [ref_cells(space, np.ones((space.mesh.n_cells, 3, 3)))]
    if kind == "dg":
        blocks += [(r, c, np.ones(r.shape + (3,))) for r, c, _ in ref_sipg_pieces(space, 1.0)]
    ref = coo_scatter(space, blocks)
    pattern = space.pattern
    assert np.array_equal(ref.indptr, pattern.indptr)
    assert np.array_equal(ref.indices, pattern.indices)
    assert pattern.matrix(np.ones(pattern.nnz)).has_canonical_format
