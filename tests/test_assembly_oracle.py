"""Pattern assembly against the COO -> CSR reference path.

The reference below is the earlier assembly: per-form einsum kernels,
COO row/column/value arrays scattered by ``coo_matrix`` with duplicate
summing, and residuals accumulated by ``np.add.at``.  The forms now sum
their blocks into a fixed CSR pattern with ``np.bincount``; both must
agree to rounding.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from gbhfem.forms import (ModelParams, assemble_mass, assemble_stiffness_cr,
                          assemble_stiffness_dg, convection_cr, convection_dg,
                          dg_boundary_values, dg_norm_matrix,
                          nonlinear_quad_degree, reaction)
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


def ref_sipg_pieces(space, penalty_gamma, penalty_only=False):
    fd = space.face_data
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
    fd = space.face_data
    w = fd.rule.weights
    up, um, ub = space.traces(u, fd)
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
        assert_matrix_close(assemble_stiffness_dg(space, 40.0),
                            coo_scatter(space, stiff + ref_sipg_pieces(space, 40.0)))
        assert_matrix_close(dg_norm_matrix(space, 40.0),
                            coo_scatter(space, stiff + ref_sipg_pieces(space, 40.0, True)))


@pytest.mark.parametrize("kind", ["cr", "dg"])
@pytest.mark.parametrize("delta", [1, 2])
def test_nonlinear_forms_match_coo_reference(kind, delta):
    space = space_of(kind)
    params = ModelParams(delta=delta, reaction_gamma=0.3, alpha=1.5, beta=2.0)
    u = np.random.default_rng(17 + delta).uniform(-1, 1, space.n_dofs)
    forms = [(reaction, ref_reaction)]
    if kind == "cr":
        forms.append((convection_cr, ref_convection_cr))
    for form, ref in forms:
        res, jac = form(space, u, params)
        ref_res, ref_jac = ref(space, u, params)
        assert_vector_close(res, ref_res)
        assert_matrix_close(jac, ref_jac)
        # each part alone is the same as both together
        assert np.array_equal(form(space, u, params, need_jac=False)[0], res)
        assert np.array_equal(form(space, u, params, need_res=False)[1].data, jac.data)
    if kind == "dg":
        g = dg_boundary_values(space, lambda x, t: 0.5 + x[:, 0] - x[:, 1], 0.0)
        for datum in (None, g):
            res, jac = convection_dg(space, u, params, boundary_values=datum)
            ref_res, ref_jac = ref_convection_dg(space, u, params, datum)
            assert_vector_close(res, ref_res)
            assert_matrix_close(jac, ref_jac)
            _, jac_only = convection_dg(space, u, params, boundary_values=datum,
                                        need_res=False)
            assert np.array_equal(jac_only.data, jac.data)


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
