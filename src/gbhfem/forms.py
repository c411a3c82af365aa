"""Assembly of all bilinear/trilinear forms of both schemes.

Covers mass, broken-gradient stiffness, the symmetric interior penalty
(SIPG) operator with its consistency/symmetry/penalty face terms, the
skew-symmetrized convection form (volume only for CR, volume plus
upwind flux for DG), the Huxley reaction term, and time-averaged load
vectors.  Nonlinear terms carry exact analytic Jacobians; the DG upwind
factor 0.5*(w.n - |w.n|) is differentiated away from its kink w.n = 0,
where its derivative is taken as zero.

Every matrix lives on its space's fixed CSR pattern (``space.pattern``,
built once: cell blocks, plus the plus/minus face couplings for DG).  A
form computes one 3x3 block per cell or face and sums the blocks into
the pattern's ``data`` with ``np.bincount`` over precomputed slot maps;
vectors are summed the same way over the dof indices.  No COO arrays and
no duplicate summing occur, matrices of one space share their index
arrays, and the accumulation order is fixed, so results are
deterministic.  Quadrature is tensorized: volume blocks are one matmul
of weighted coefficient values with the basis products B_i B_j (nq, 9),
and face blocks one batched matmul with the trace products
Ta_i Tb_j (n_edges, nq, 9) cached with the DG face tables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams", "nonlinear_quad_degree",
    "assemble_mass", "assemble_stiffness_cr", "assemble_stiffness_dg",
    "dg_norm_matrix", "dirichlet_rhs_dg", "convection_cr", "convection_dg",
    "reaction", "bind_load", "assemble_load", "dg_boundary_values",
]

#: Gauss points in time for the interval averages f^k.
TIME_GAUSS_X, TIME_GAUSS_W = np.polynomial.legendre.leggauss(3)
TIME_GAUSS_X = 0.5 * (TIME_GAUSS_X + 1.0)
TIME_GAUSS_W = 0.5 * TIME_GAUSS_W
#: Triangle quadrature degree of the load vector and the stability bound.
LOAD_QUAD_DEGREE = 5


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


def _assemble(space, blocks):
    """Matrix on the space's pattern from a dict of slot name -> block values.

    ``blocks[name]`` is (m, 3, 3) or (m, 9), one 3x3 block per row of
    ``space.pattern.slots[name]``.  Accumulation is by ``np.bincount``, in
    a fixed order, so results are deterministic.
    """
    pattern = space.pattern
    data = np.zeros(pattern.nnz)
    for name, values in blocks.items():
        data += np.bincount(pattern.slots[name].ravel(), weights=values.ravel(),
                            minlength=pattern.nnz)
    return pattern.matrix(data)


def _scatter(n, dofs, values):
    """Vector of length n summing ``values`` into the entries ``dofs``."""
    return np.bincount(dofs.ravel(), weights=values.ravel(), minlength=n)


def _volume_tables(space, degree):
    """Weights, basis values B (nq, 3) and products B_i B_j (nq, 9)."""
    rule, B, _ = space.volume_quad(degree)
    BB = (B[:, :, None] * B[:, None, :]).reshape(len(B), 9)
    return rule.weights, B, BB


def _face_integral(coef, TT):
    """sum_q coef[e, q] * TT[e, q, :] for (ne, nq) coef, one batched matmul."""
    return np.matmul(coef[:, None, :], TT)[:, 0, :]


def _transpose(blocks):
    """Transposed 3x3 blocks, (m, 9)."""
    return blocks.reshape(-1, 3, 3).transpose(0, 2, 1).reshape(-1, 9)


def assemble_mass(space):
    """L2 mass matrix; symmetric positive definite."""
    w, _, BB = _volume_tables(space, 2)
    return _assemble(space, {"cells": space.det_jacobians[:, None] * (w @ BB)})


def _volume_stiffness(space):
    areas = 0.5 * space.det_jacobians
    return np.matmul(space.grads, space.grads.transpose(0, 2, 1)) * areas[:, None, None]


def assemble_stiffness_cr(space):
    """Broken-gradient stiffness (grad_h u, grad_h v); constants in kernel.

    On a DG space this is the broken-gradient Gram matrix, the volume part
    of the SIPG operator.
    """
    return _assemble(space, {"cells": _volume_stiffness(space)})


def _sipg_face_blocks(space, penalty_gamma, penalty_only=False):
    """SIPG face blocks by slot name (the jump Gram matrix if penalty_only)."""
    fd = space.face_data
    w = fd.rule.weights
    W = w[None, :] * fd.h_int[:, None]
    gh = (penalty_gamma / fd.h_int)[:, None]
    Wb = w[None, :] * fd.h_bnd[:, None]
    ghb = (penalty_gamma / fd.h_bnd)[:, None]

    # penalty gamma_h [[u]].[[v]], interior and boundary
    pm = -gh * _face_integral(W, fd.TpTm)
    blocks = {
        "pp": gh * _face_integral(W, fd.TpTp),
        "pm": pm,
        "mp": _transpose(pm),
        "mm": gh * _face_integral(W, fd.TmTm),
        "bb": ghb * _face_integral(Wb, fd.TbTb),
    }
    if penalty_only:
        return blocks

    # consistency -({{grad u}}.n) [[v]] and its transpose (symmetry term);
    # C[r + c] couples rows on side r with columns on side c
    IntT = {"p": _face_integral(W, fd.Tp), "m": -_face_integral(W, fd.Tm)}
    gn = {"p": fd.gnp, "m": fd.gnm}
    C = {r + c: (-0.5 * IntT[r][:, :, None] * gn[c][:, None, :]).reshape(-1, 9)
         for r in "pm" for c in "pm"}
    for r in "pm":
        for c in "pm":
            blocks[r + c] = blocks[r + c] + C[r + c] + _transpose(C[c + r])
    Cb = (-_face_integral(Wb, fd.Tb)[:, :, None] * fd.gnb[:, None, :]).reshape(-1, 9)
    blocks["bb"] = blocks["bb"] + Cb + _transpose(Cb)
    return blocks


def assemble_stiffness_dg(space, penalty_gamma):
    """SIPG operator: volume gradients, consistency, symmetry, penalty."""
    blocks = _sipg_face_blocks(space, penalty_gamma)
    blocks["cells"] = _volume_stiffness(space)
    return _assemble(space, blocks)


def dg_norm_matrix(space, penalty_gamma):
    """Gram matrix of the DG energy norm: broken gradients + jump penalty."""
    blocks = _sipg_face_blocks(space, penalty_gamma, penalty_only=True)
    blocks["cells"] = _volume_stiffness(space)
    return _assemble(space, blocks)


def dirichlet_rhs_dg(space, datum, penalty_gamma):
    """Nitsche data vector for the SIPG operator with boundary datum values.

    ``datum`` holds the datum at the boundary-edge quadrature points, as
    ``dg_boundary_values`` returns it.  The diffusion residual with
    boundary data is nu * (A u - r) with r this vector; it collects the
    datum's symmetry and penalty terms.
    """
    fd = space.face_data
    w = fd.rule.weights
    ghb = penalty_gamma / fd.h_bnd
    gInt = np.einsum("q,eq->e", w, datum) * fd.h_bnd        # int_E g ds
    r_sym = -np.einsum("e,ei->ei", gInt, fd.gnb)
    gT = np.einsum("q,eq,eqi->ei", w, datum, fd.Tb) * fd.h_bnd[:, None]
    r_pen = ghb[:, None] * gT
    return _scatter(space.n_dofs, fd.bdofs, r_sym + r_pen)


def dg_boundary_values(space, g, t):
    """Datum values at the boundary-edge quadrature points, (n_bnd, nq)."""
    fd = space.face_data
    X = fd.Xb.reshape(-1, 2)
    vals = np.asarray(g(X, t), dtype=float)
    return np.broadcast_to(vals, (X.shape[0],)).reshape(fd.Xb.shape[:2]).copy()


def _volume_convection(space, uvals, alpha, delta, need_res, need_jac):
    """Residual and Jacobian blocks of the skew convection volume terms."""
    w, B, BB = _volume_tables(space, nonlinear_quad_degree(delta))
    ucell = uvals[space.cell_dofs]                       # (nc, 3)
    uq = ucell @ B.T                                     # (nc, nq)
    s_phi = space.grads[:, :, 0] + space.grads[:, :, 1]  # (nc, 3)
    s_u = np.sum(ucell * s_phi, axis=1)                  # (nc,)
    det = space.det_jacobians
    scale = alpha / (delta + 2.0)

    ud = uq ** delta
    udB = (ud * w) @ B                                   # int u^d phi_i
    res_cells = jac_cells = None
    if need_res:
        R2 = ((ud * uq) @ w)[:, None] * s_phi
        res_cells = scale * det[:, None] * (udB * s_u[:, None] - R2)
    if need_jac:
        udm1 = uq ** (delta - 1)
        J1a = ((udm1 * w) @ BB).reshape(-1, 3, 3) * (delta * s_u)[:, None, None]
        J1b = udB[:, :, None] * s_phi[:, None, :]
        J2 = (delta + 1.0) * s_phi[:, :, None] * udB[:, None, :]
        jac_cells = scale * det[:, None, None] * (J1a + J1b - J2)
    return res_cells, jac_cells


def convection_cr(space, u, params, need_jac=True, need_res=True):
    """Skew-symmetrized convection residual alpha*b(u;u,phi_i) and its Jacobian.

    The split 1/(delta+2) [ (u^d sum_i du/dx_i, w) - (u^d sum_i dw/dx_i, u) ]
    makes b(u;u,u) vanish identically, so no parameter conditions are
    needed for stability.  Returns (residual, Jacobian); a part not
    asked for is None.
    """
    res_cells, jac_cells = _volume_convection(space, u, params.alpha, params.delta,
                                              need_res, need_jac)
    res = _scatter(space.n_dofs, space.cell_dofs, res_cells) if need_res else None
    jac = _assemble(space, {"cells": jac_cells}) if need_jac else None
    return res, jac


def _upwind_derivative(wn, us, nsum, delta):
    """d/du_s of min(wn, 0) with wn = u_s^delta (1,1).n; zero at the kink."""
    return np.where(wn < 0.0, delta * us ** (delta - 1) * nsum[:, None], 0.0)


def convection_dg(space, u, params, boundary_values=None, need_jac=True, need_res=True):
    """DG convection: volume skew terms plus the upwind flux terms.

    The convection field is w = u^delta (1,1)^T evaluated from each
    cell's own trace, and the upwind factor is c = 0.5*(w.n - |w.n|).
    Off the kink w.n = 0 the Jacobian is exact, with
    dc/du = delta u^(delta-1) (1,1).n where w.n < 0 and 0 where w.n >= 0.
    ``boundary_values`` supplies the exterior Dirichlet datum on
    boundary faces; None means homogeneous.  Returns (residual,
    Jacobian); a part not asked for is None.
    """
    alpha, delta = params.alpha, params.delta
    scale = alpha / (delta + 2.0)
    res_cells, jac_cells = _volume_convection(space, u, alpha, delta, need_res, need_jac)
    n = space.n_dofs

    fd = space.face_data
    w = fd.rule.weights
    up, um, ub = space.traces(u, fd)
    nsum_p = fd.n_int[:, 0] + fd.n_int[:, 1]             # (1,1).n for plus side

    W = w[None, :] * fd.h_int[:, None]
    wnp = (up ** delta) * nsum_p[:, None]                # w.n seen from each side
    wnm = -(um ** delta) * nsum_p[:, None]
    cp = 0.5 * (wnp - np.abs(wnp))
    cm = 0.5 * (wnm - np.abs(wnm))

    # side s adds scale*int c_s u_o v_s - scale*int c_s u_s v_o, c_s = c(u_s)
    res = None
    if need_res:
        res = (_scatter(n, space.cell_dofs, res_cells)
               + _scatter(n, fd.pdofs, scale * _face_integral(W * (cp - cm) * um, fd.Tp))
               + _scatter(n, fd.mdofs, scale * _face_integral(W * (cm - cp) * up, fd.Tm)))
    blocks = {}
    if need_jac:
        dcp = _upwind_derivative(wnp, up, nsum_p, delta)
        dcm = _upwind_derivative(wnm, um, -nsum_p, delta)
        blocks = {
            "cells": jac_cells,
            "pm": scale * _face_integral(W * (cp - cm - dcm * um), fd.TpTm),
            "mp": scale * _transpose(_face_integral(W * (cm - cp - dcp * up), fd.TpTm)),
            "pp": scale * _face_integral(W * dcp * um, fd.TpTp),
            "mm": scale * _face_integral(W * dcm * up, fd.TmTm),
        }

    # boundary faces: the u-dependent flux parts cancel and the net residual
    # contribution is int c * g * v ; with g = 0 it is 0.
    if boundary_values is not None and len(fd.bnd_edges):
        nsum_b = fd.n_bnd[:, 0] + fd.n_bnd[:, 1]
        wn = (ub ** delta) * nsum_b[:, None]
        c = 0.5 * (wn - np.abs(wn))
        Wb = w[None, :] * fd.h_bnd[:, None]
        if need_res:
            res += _scatter(n, fd.bdofs, scale * _face_integral(Wb * c * boundary_values, fd.Tb))
        if need_jac:
            Wdg = Wb * _upwind_derivative(wn, ub, nsum_b, delta) * boundary_values
            blocks["bb"] = scale * _face_integral(Wdg, fd.TbTb)

    return res, (_assemble(space, blocks) if need_jac else None)


def reaction(space, u, params, need_jac=True, need_res=True):
    """Huxley reaction residual beta*(c(u), phi_i) and its Jacobian.

    c(u) = u(1-u^d)(u^d-gamma) = (1+gamma) u^(d+1) - gamma u - u^(2d+1),
    c'(u) = (1+gamma)(d+1) u^d - gamma - (2d+1) u^(2d).
    Returns (residual, Jacobian); a part not asked for is None.
    """
    beta, gamma, delta = params.beta, params.reaction_gamma, params.delta
    w, B, BB = _volume_tables(space, nonlinear_quad_degree(delta))
    uq = u[space.cell_dofs] @ B.T
    ud = uq ** delta
    det = space.det_jacobians
    res = jac = None
    if need_res:
        cval = (1.0 + gamma) * ud * uq - gamma * uq - ud * ud * uq
        res = _scatter(space.n_dofs, space.cell_dofs, beta * ((cval * w) @ B) * det[:, None])
    if need_jac:
        cder = (1.0 + gamma) * (delta + 1.0) * ud - gamma - (2.0 * delta + 1.0) * ud * ud
        jac = _assemble(space, {"cells": beta * ((cder * w) @ BB) * det[:, None]})
    return res, jac


def bind_load(space, f):
    """The load f bound to the load quadrature points: g(t) -> values.

    An ``mms.forcing`` binds itself (``f.on``) and does its point-only
    work once; any other ``f(points, t)`` is bound as it is.  None stays None.
    """
    if f is None:
        return None
    X = space.volume_quad(LOAD_QUAD_DEGREE)[2].reshape(-1, 2)
    return f.on(X) if hasattr(f, "on") else functools.partial(f, X)


def assemble_load(space, load, t_prev, t_next):
    """Load vector of the interval average f^k = (1/dt) int f(s) ds.

    The time average uses a 3-point Gauss rule (exact through t^5)
    composed with the volume quadrature.  ``load(t)`` is the forcing bound
    to the load points by ``bind_load``; None gives the zero vector.
    """
    if not t_next > t_prev:
        raise ValueError("t_next must exceed t_prev")
    if load is None:
        return np.zeros(space.n_dofs)
    rule, B, X = space.volume_quad(LOAD_QUAD_DEGREE)
    nshape = X.shape[:2]
    favg = np.zeros(nshape)
    for xg, wg in zip(TIME_GAUSS_X, TIME_GAUSS_W):
        tau = t_prev + (t_next - t_prev) * xg
        vals = np.asarray(load(tau), dtype=float)
        favg += wg * np.broadcast_to(vals, (nshape[0] * nshape[1],)).reshape(nshape)
    out_cells = ((favg * rule.weights) @ B) * space.det_jacobians[:, None]
    return _scatter(space.n_dofs, space.cell_dofs, out_cells)
