"""Assembly of all bilinear/trilinear forms of both schemes.

Covers mass, broken-gradient stiffness, the symmetric interior penalty
(SIPG) operator with its consistency/symmetry/penalty face terms, the
skew-symmetrized convection form (volume only for CR, volume plus
upwind flux for DG), the Huxley reaction term, and time-averaged load
vectors.  Nonlinear terms carry exact analytic Jacobians; the DG upwind
factor 0.5*(w.n - |w.n|) is differentiated away from its kink w.n = 0,
where its derivative is taken as zero.

All assembly is vectorized over cells/edges and accumulates in a fixed
order, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import canonical_csr
from .space_cr import as_values

__all__ = [
    "ModelParams", "nonlinear_quad_degree",
    "assemble_mass", "assemble_stiffness_cr", "assemble_stiffness_dg",
    "dg_norm_matrix", "dirichlet_rhs_dg", "convection_cr", "convection_dg",
    "reaction", "assemble_load", "dg_boundary_values",
]

#: Gauss points in time for the interval averages f^k.
TIME_GAUSS_X, TIME_GAUSS_W = np.polynomial.legendre.leggauss(3)
TIME_GAUSS_X = 0.5 * (TIME_GAUSS_X + 1.0)
TIME_GAUSS_W = 0.5 * TIME_GAUSS_W


@dataclass
class ModelParams:
    """PDE coefficients and scheme parameters.

    ``reaction_gamma`` is the Huxley constant in (0, 1); ``penalty_gamma``
    is the (unrelated) interior-penalty scale used only by the DG scheme.
    ``delta`` must be a positive integer so u**delta is well defined for
    negative iterates.
    """

    nu: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    reaction_gamma: float = 0.5
    delta: int = 1
    eta: float = 0.0
    penalty_gamma: float = 40.0

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError(f"nu must be positive, got {self.nu!r}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be nonnegative")
        if not 0.0 < self.reaction_gamma < 1.0:
            raise ValueError(f"reaction_gamma must lie in (0, 1), got {self.reaction_gamma!r}")
        if not isinstance(self.delta, (int, np.integer)) or self.delta < 1:
            raise ValueError(f"delta must be a positive integer, got {self.delta!r}")
        if self.eta < 0.0:
            raise ValueError("eta must be nonnegative")
        if not self.penalty_gamma > 0.0:
            raise ValueError("penalty_gamma must be positive")


def nonlinear_quad_degree(delta):
    """Fixed volume quadrature degree for the nonlinear terms.

    Exact for the delta in {1, 2} polynomial products that occur in the
    reaction Jacobian (total degree 2*delta + 2).
    """
    return max(2 * int(delta) + 3, 4)


def _scatter_matrix(space, rows_blocks, cols_blocks, values, extra=None):
    """COO -> canonical CSR, deterministic accumulation."""
    data = [(rows_blocks.ravel(), cols_blocks.ravel(), values.ravel())]
    if extra:
        data.extend(extra)
    rows = np.concatenate([d[0] for d in data])
    cols = np.concatenate([d[1] for d in data])
    vals = np.concatenate([d[2] for d in data])
    A = sp.coo_matrix((vals, (rows, cols)), shape=(space.n_dofs, space.n_dofs))
    return canonical_csr(A)


def _cell_block_indices(space):
    cd = space.cell_dofs
    rows = np.repeat(cd, 3, axis=1)          # i index varies slowest
    cols = np.tile(cd, (1, 3))
    return rows, cols


def assemble_mass(space):
    """L2 mass matrix; symmetric positive definite."""
    rule, B, _ = space.volume_quad(2)
    blocks = np.einsum("q,qi,qj->ij", rule.weights, B, B)
    blocks = space.det_jacobians[:, None, None] * blocks[None, :, :]
    rows, cols = _cell_block_indices(space)
    return _scatter_matrix(space, rows, cols, blocks)


def assemble_stiffness_cr(space):
    """Broken-gradient stiffness (grad_h u, grad_h v); constants in kernel."""
    areas = 0.5 * space.det_jacobians
    blocks = np.einsum("cid,cjd,c->cij", space.grads, space.grads, areas)
    rows, cols = _cell_block_indices(space)
    return _scatter_matrix(space, rows, cols, blocks)


def _sipg_face_blocks(space, penalty_gamma, fd, penalty_only=False):
    """COO pieces of the SIPG face terms (and of the jump Gram matrix)."""
    pieces = []

    def add(rows, cols, vals):
        pieces.append((rows.ravel(), cols.ravel(), vals.ravel()))

    w = fd.rule.weights

    # interior edges: trace integrals and gradient couplings
    IntTp = np.einsum("q,eqi->ei", w, fd.Tp) * fd.h_int[:, None]
    IntTm = np.einsum("q,eqi->ei", w, fd.Tm) * fd.h_int[:, None]
    TTpp = np.einsum("q,eqi,eqj->eij", w, fd.Tp, fd.Tp) * fd.h_int[:, None, None]
    TTpm = np.einsum("q,eqi,eqj->eij", w, fd.Tp, fd.Tm) * fd.h_int[:, None, None]
    TTmm = np.einsum("q,eqi,eqj->eij", w, fd.Tm, fd.Tm) * fd.h_int[:, None, None]
    gh = penalty_gamma / fd.h_int

    # penalty gamma_h [[u]].[[v]]
    add(_rows(fd.pdofs), _cols(fd.pdofs), gh[:, None, None] * TTpp)
    add(_rows(fd.pdofs), _cols(fd.mdofs), -gh[:, None, None] * TTpm)
    add(_rows(fd.mdofs), _cols(fd.pdofs), -gh[:, None, None] * TTpm.transpose(0, 2, 1))
    add(_rows(fd.mdofs), _cols(fd.mdofs), gh[:, None, None] * TTmm)

    # boundary penalty
    TTbb = np.einsum("q,eqi,eqj->eij", w, fd.Tb, fd.Tb) * fd.h_bnd[:, None, None]
    ghb = penalty_gamma / fd.h_bnd
    add(_rows(fd.bdofs), _cols(fd.bdofs), ghb[:, None, None] * TTbb)

    if not penalty_only:
        # consistency -({{grad u}}.n) [[v]] and its transpose (symmetry term)
        for rdofs, IntT, rsign in ((fd.pdofs, IntTp, 1.0), (fd.mdofs, IntTm, -1.0)):
            for cdofs, gn in ((fd.pdofs, fd.gnp), (fd.mdofs, fd.gnm)):
                blk = -0.5 * rsign * np.einsum("ei,ej->eij", IntT, gn)
                add(_rows(rdofs), _cols(cdofs), blk)
                add(_rows(cdofs), _cols(rdofs), blk.transpose(0, 2, 1))
        IntTb = np.einsum("q,eqi->ei", w, fd.Tb) * fd.h_bnd[:, None]
        blk = -np.einsum("ei,ej->eij", IntTb, fd.gnb)
        add(_rows(fd.bdofs), _cols(fd.bdofs), blk)
        add(_rows(fd.bdofs), _cols(fd.bdofs), blk.transpose(0, 2, 1))

    return pieces


def _rows(dofs):
    return np.repeat(dofs, 3, axis=1)


def _cols(dofs):
    return np.tile(dofs, (1, 3))


def assemble_stiffness_dg(space, penalty_gamma):
    """SIPG operator: volume gradients, consistency, symmetry, penalty."""
    areas = 0.5 * space.det_jacobians
    blocks = np.einsum("cid,cjd,c->cij", space.grads, space.grads, areas)
    rows, cols = _cell_block_indices(space)
    fd = space.face_data()
    extra = _sipg_face_blocks(space, penalty_gamma, fd)
    return _scatter_matrix(space, rows, cols, blocks, extra=extra)


def dg_norm_matrix(space, penalty_gamma):
    """Gram matrix of the DG energy norm: broken gradients + jump penalty."""
    areas = 0.5 * space.det_jacobians
    blocks = np.einsum("cid,cjd,c->cij", space.grads, space.grads, areas)
    rows, cols = _cell_block_indices(space)
    fd = space.face_data()
    extra = _sipg_face_blocks(space, penalty_gamma, fd, penalty_only=True)
    return _scatter_matrix(space, rows, cols, blocks, extra=extra)


def dirichlet_rhs_dg(space, g, t, penalty_gamma):
    """Nitsche data vector for the SIPG operator with datum u = g(x, t).

    The diffusion residual with boundary data is nu * (A u - r) with r
    this vector; it collects the datum's symmetry and penalty terms.
    """
    fd = space.face_data()
    gb = dg_boundary_values(space, g, t)
    w = fd.rule.weights
    ghb = penalty_gamma / fd.h_bnd
    gInt = np.einsum("q,eq->e", w, gb) * fd.h_bnd           # int_E g ds
    r_sym = -np.einsum("e,ei->ei", gInt, fd.gnb)
    gT = np.einsum("q,eq,eqi->ei", w, gb, fd.Tb) * fd.h_bnd[:, None]
    r_pen = ghb[:, None] * gT
    out = np.zeros(space.n_dofs)
    np.add.at(out, fd.bdofs, r_sym + r_pen)
    return out


def dg_boundary_values(space, g, t):
    """Datum values at the boundary-edge quadrature points, (n_bnd, nq)."""
    fd = space.face_data()
    X = fd.Xb.reshape(-1, 2)
    vals = np.asarray(g(X, t), dtype=float)
    return np.broadcast_to(vals, (X.shape[0],)).reshape(fd.Xb.shape[:2]).copy()


def _volume_convection(space, uvals, alpha, delta, need_jac=True):
    """Residual and Jacobian blocks of the skew convection volume terms."""
    rule, B, _ = space.volume_quad(nonlinear_quad_degree(delta))
    w = rule.weights
    ucell = uvals[space.cell_dofs]                       # (nc, 3)
    uq = ucell @ B.T                                     # (nc, nq)
    grad_u = np.einsum("cid,ci->cd", space.grads, ucell)
    s_u = grad_u[:, 0] + grad_u[:, 1]                    # (nc,)
    s_phi = space.grads[:, :, 0] + space.grads[:, :, 1]  # (nc, 3)
    det = space.det_jacobians
    scale = alpha / (delta + 2.0)

    ud = uq ** delta
    R1 = np.einsum("cq,q,qi->ci", ud, w, B) * (det * s_u)[:, None]
    R2 = np.einsum("cq,q->c", ud * uq, w)[:, None] * s_phi * det[:, None]
    res_cells = scale * (R1 - R2)
    if not need_jac:
        return res_cells, None

    udm1 = uq ** (delta - 1)
    J1a = np.einsum("cq,q,qm,qi->cim", udm1, w, B, B) * (delta * det * s_u)[:, None, None]
    J1b = np.einsum("cq,q,qi->ci", ud, w, B)[:, :, None] * s_phi[:, None, :] * det[:, None, None]
    J2 = np.einsum("cq,q,qm->cm", ud, w, B)[:, None, :] * s_phi[:, :, None] * ((delta + 1.0) * det)[:, None, None]
    jac_cells = scale * (J1a + J1b - J2)
    return res_cells, jac_cells


def convection_cr(space, u, params, need_jac=True):
    """Skew-symmetrized convection residual alpha*b(u;u,phi_i) and its Jacobian.

    The split 1/(delta+2) [ (u^d sum_i du/dx_i, w) - (u^d sum_i dw/dx_i, u) ]
    makes b(u;u,u) vanish identically, so no parameter conditions are
    needed for stability.
    """
    uvals = as_values(u)
    res_cells, jac_cells = _volume_convection(space, uvals, params.alpha, params.delta,
                                              need_jac)
    res = np.zeros(space.n_dofs)
    np.add.at(res, space.cell_dofs, res_cells)
    if not need_jac:
        return res, None
    rows, cols = _cell_block_indices(space)
    return res, _scatter_matrix(space, rows, cols, jac_cells)


def _upwind_derivative(wn, us, nsum, delta):
    """d/du_s of min(wn, 0) with wn = u_s^delta (1,1).n; zero at the kink."""
    return np.where(wn < 0.0, delta * us ** (delta - 1) * nsum[:, None], 0.0)


def convection_dg(space, u, params, boundary_values=None, need_jac=True):
    """DG convection: volume skew terms plus the upwind flux terms.

    The convection field is w = u^delta (1,1)^T evaluated from each
    cell's own trace, and the upwind factor is c = 0.5*(w.n - |w.n|).
    Off the kink w.n = 0 the Jacobian is exact, with
    dc/du = delta u^(delta-1) (1,1).n where w.n < 0 and 0 where w.n >= 0.
    ``boundary_values`` supplies the exterior Dirichlet datum on
    boundary faces; None means homogeneous.
    """
    uvals = as_values(u)
    alpha, delta = params.alpha, params.delta
    scale = alpha / (delta + 2.0)
    res_cells, jac_cells = _volume_convection(space, uvals, alpha, delta, need_jac)
    res = np.zeros(space.n_dofs)
    np.add.at(res, space.cell_dofs, res_cells)
    pieces = []

    fd = space.face_data()
    w = fd.rule.weights
    up, um, ub = space.traces(u, fd)
    nsum_p = fd.n_int[:, 0] + fd.n_int[:, 1]             # (1,1).n for plus side

    W = w[None, :] * fd.h_int[:, None]
    upwind = []                                          # (c, dc/du_self) per side
    for (us, uo, Ts, To, sdofs, odofs, nsum) in (
        (up, um, fd.Tp, fd.Tm, fd.pdofs, fd.mdofs, nsum_p),
        (um, up, fd.Tm, fd.Tp, fd.mdofs, fd.pdofs, -nsum_p),
    ):
        wn = (us ** delta) * nsum[:, None]               # (ne, nq)
        c = 0.5 * (wn - np.abs(wn))
        # T2: int c (u_other - u_self) v_self
        r2 = np.einsum("eq,eq,eqi->ei", W, c * (uo - us), Ts)
        # T4: int c (v_other - v_self) u_self, subtracted
        r4o = np.einsum("eq,eq,eqi->ei", W, c * us, To)
        r4s = np.einsum("eq,eq,eqi->ei", W, c * us, Ts)
        np.add.at(res, sdofs, scale * (r2 + r4s))
        np.add.at(res, odofs, -scale * r4o)
        if need_jac:
            upwind.append((c, _upwind_derivative(wn, us, nsum, delta)))

    if need_jac:
        # side s adds scale*int c_s u_o v_s - scale*int c_s u_s v_o, c_s = c(u_s)
        (cp, dcp), (cm, dcm) = upwind

        def block(coef, Ta, Tb):
            return scale * np.einsum("eq,eqi,eqj->eij", W * coef, Ta, Tb)

        for rdofs, cdofs, blk in (
            (fd.pdofs, fd.mdofs, block(cp - cm - dcm * um, fd.Tp, fd.Tm)),
            (fd.mdofs, fd.pdofs, block(cm - cp - dcp * up, fd.Tm, fd.Tp)),
            (fd.pdofs, fd.pdofs, block(dcp * um, fd.Tp, fd.Tp)),
            (fd.mdofs, fd.mdofs, block(dcm * up, fd.Tm, fd.Tm)),
        ):
            pieces.append((_rows(rdofs).ravel(), _cols(cdofs).ravel(), blk.ravel()))

    # boundary faces: the u-dependent flux parts cancel and the net residual
    # contribution is int c * g * v ; with g = 0 it is 0.
    if boundary_values is not None and len(fd.bnd_edges):
        nsum_b = fd.n_bnd[:, 0] + fd.n_bnd[:, 1]
        wn = (ub ** delta) * nsum_b[:, None]
        c = 0.5 * (wn - np.abs(wn))
        Wb = w[None, :] * fd.h_bnd[:, None]
        rb = np.einsum("eq,eq,eqi->ei", Wb, c * boundary_values, fd.Tb)
        np.add.at(res, fd.bdofs, scale * rb)
        if need_jac:
            Wdg = Wb * _upwind_derivative(wn, ub, nsum_b, delta) * boundary_values
            j_bb = scale * np.einsum("eq,eqi,eqj->eij", Wdg, fd.Tb, fd.Tb)
            pieces.append((_rows(fd.bdofs).ravel(), _cols(fd.bdofs).ravel(), j_bb.ravel()))

    if not need_jac:
        return res, None
    rows, cols = _cell_block_indices(space)
    jac = _scatter_matrix(space, rows, cols, jac_cells, extra=pieces)
    return res, jac


def reaction(space, u, params, need_jac=True):
    """Huxley reaction residual beta*(c(u), phi_i) and its Jacobian.

    c(u) = u(1-u^d)(u^d-gamma) = (1+gamma) u^(d+1) - gamma u - u^(2d+1),
    c'(u) = (1+gamma)(d+1) u^d - gamma - (2d+1) u^(2d).
    """
    uvals = as_values(u)
    beta, gamma, delta = params.beta, params.reaction_gamma, params.delta
    rule, B, _ = space.volume_quad(nonlinear_quad_degree(delta))
    w = rule.weights
    uq = uvals[space.cell_dofs] @ B.T
    ud = uq ** delta
    cval = (1.0 + gamma) * ud * uq - gamma * uq - ud * ud * uq
    det = space.det_jacobians
    res_cells = beta * np.einsum("cq,q,qi->ci", cval, w, B) * det[:, None]
    res = np.zeros(space.n_dofs)
    np.add.at(res, space.cell_dofs, res_cells)
    if not need_jac:
        return res, None
    cder = (1.0 + gamma) * (delta + 1.0) * ud - gamma - (2.0 * delta + 1.0) * ud * ud
    jac_cells = beta * np.einsum("cq,q,qi,qj->cij", cder, w, B, B) * det[:, None, None]
    rows, cols = _cell_block_indices(space)
    return res, _scatter_matrix(space, rows, cols, jac_cells)


def assemble_load(space, f, t_prev, t_next, degree=5):
    """Load vector of the interval average f^k = (1/dt) int f(s) ds.

    The time average uses a 3-point Gauss rule (exact through t^5)
    composed with the volume quadrature.  ``f(points, t)`` must accept an
    (n, 2) array and a scalar time.  ``f=None`` gives the zero vector.
    """
    if not t_next > t_prev:
        raise ValueError("t_next must exceed t_prev")
    if f is None:
        return np.zeros(space.n_dofs)
    rule, B, X = space.volume_quad(degree)
    Xf = X.reshape(-1, 2)
    nshape = X.shape[:2]
    favg = np.zeros(nshape)
    for xg, wg in zip(TIME_GAUSS_X, TIME_GAUSS_W):
        tau = t_prev + (t_next - t_prev) * xg
        vals = np.asarray(f(Xf, tau), dtype=float)
        favg += wg * np.broadcast_to(vals, (Xf.shape[0],)).reshape(nshape)
    out_cells = np.einsum("cq,q,qi->ci", favg, rule.weights, B) * space.det_jacobians[:, None]
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.cell_dofs, out_cells)
    return out
