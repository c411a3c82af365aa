"""Assembly of all bilinear/trilinear forms of both schemes.

Covers mass, broken-gradient stiffness, the symmetric interior penalty
(SIPG) operator with its consistency/symmetry/penalty face terms, the
nonlinear form and time-averaged load vectors.  Each DG face term is one
sum over all faces, a boundary face's minus side being the exterior
(see ``space_dg``).  The nonlinear form is
the skew-symmetrized convection minus the Huxley reaction,
alpha b(u;u,phi_i) - beta (c(u), phi_i), in one cell kernel with a
residual/Jacobian pair (``nonlinear_residual``, ``add_nonlinear_jacobian``);
DG adds its upwind flux (``upwind_residual``, ``add_upwind_jacobian``).
Each call evaluates its own quadrature values from u.  The Jacobians
are exact and are added into a caller's ``data`` vector on the space's
pattern; the DG upwind factor min(w.n, 0) is differentiated away from
its kink w.n = 0, where its derivative is taken as zero.

Every matrix lives on its space's fixed CSR pattern (``space.pattern``,
built once: cell blocks, plus the plus/minus face couplings for DG).  A
form computes one 3x3 block per cell or face and adds the blocks into
the pattern's ``data`` with ``np.add.at`` over precomputed slot maps;
vectors are summed with ``np.bincount`` over the dof indices.  No COO arrays and
no duplicate summing occur, matrices of one space share their index
arrays, and the accumulation order is fixed, so results are
deterministic.  Quadrature is tensorized: volume blocks are one matmul
of weighted coefficient values with the basis products B_i B_j (nq, 9),
and face blocks one batched matmul with the trace products
Ta_i Tb_j (n_edges, nq, 9) cached with the DG face tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams", "nonlinear_quad_degree",
    "assemble_mass", "assemble_stiffness_cr", "sipg_matrices",
    "dirichlet_rhs_dg", "nonlinear_residual",
    "add_nonlinear_jacobian", "upwind_residual", "add_upwind_jacobian",
    "bind_load", "assemble_load", "dg_boundary_values",
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


def _add_blocks(space, data, blocks):
    """Add a dict of slot name -> block values into ``data`` on the space's
    pattern, in place; returns ``data``.

    ``blocks[name]`` is (m, 3, 3) or (m, 9), one 3x3 block per row of
    ``space.pattern.slots[name]``.  ``np.add.at`` accumulates in a fixed
    order, so results are deterministic, and makes no (nnz,) temporary.
    """
    for name, values in blocks.items():
        np.add.at(data, space.pattern.slots[name].ravel(), values.ravel())
    return data


def _assemble(space, blocks):
    """Matrix on the space's pattern from a dict of slot name -> block values."""
    return space.pattern.matrix(_add_blocks(space, np.zeros(space.pattern.nnz), blocks))


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
    """Broken-gradient stiffness (grad_h u, grad_h v); constants in kernel."""
    return _assemble(space, {"cells": _volume_stiffness(space)})


def sipg_matrices(space, penalty_gamma):
    """(G, A, N) of a DG space from one evaluation of the face blocks: the
    broken-gradient Gram matrix G, the energy-norm Gram N = G + penalty
    and the SIPG operator A = N + consistency + symmetry.  Each face term
    is one sum over all faces, boundary faces included (see ``space_dg``).
    """
    fd = space.face_data
    W = fd.rule.weights[None, :] * fd.h[:, None]
    gh = (penalty_gamma / fd.h)[:, None]

    # penalty gamma_h [[u]].[[v]]
    pm = -gh * _face_integral(W, fd.TpTm)
    penalty = {"pp": gh * _face_integral(W, fd.TpTp), "pm": pm, "mp": _transpose(pm),
               "mm": gh * _face_integral(W, fd.TmTm)}

    # consistency -({{grad u}}.n) [[v]] and its transpose (symmetry term);
    # C[r + c] couples rows on side r with columns on side c
    IntT = {"p": _face_integral(W, fd.Tp), "m": -_face_integral(W, fd.Tm)}
    gn = {"p": fd.gnp, "m": fd.gnm}
    C = {r + c: (-IntT[r][:, :, None] * gn[c][:, None, :]).reshape(-1, 9)
         for r in "pm" for c in "pm"}
    consistency = {rc: C[rc] + _transpose(C[rc[::-1]]) for rc in C}

    G = _add_blocks(space, np.zeros(space.pattern.nnz), {"cells": _volume_stiffness(space)})
    N = _add_blocks(space, G.copy(), penalty)
    A = _add_blocks(space, N.copy(), consistency)
    return tuple(space.pattern.matrix(data) for data in (G, A, N))


def dirichlet_rhs_dg(space, datum, penalty_gamma):
    """Nitsche data vector for the SIPG operator with boundary datum values.

    ``datum`` holds the datum at the boundary-edge quadrature points, as
    ``dg_boundary_values`` returns it.  The diffusion residual with
    boundary data is nu * (A u - r) with r this vector; it collects the
    datum's symmetry and penalty terms.
    """
    fd = space.face_data
    w = fd.rule.weights
    h = fd.h[fd.bnd]
    gInt = np.einsum("q,eq->e", w, datum) * h                # int_E g ds
    r_sym = -np.einsum("e,ei->ei", gInt, fd.gnp[fd.bnd])
    gT = np.einsum("q,eq,eqi->ei", w, datum, fd.Tp[fd.bnd]) * h[:, None]
    r_pen = (penalty_gamma / h)[:, None] * gT
    return _scatter(space.n_dofs, fd.pdofs[fd.bnd], r_sym + r_pen)


def dg_boundary_values(space, g, t):
    """Datum values at the boundary-edge quadrature points, (n_bnd, nq)."""
    fd = space.face_data
    X = fd.Xb.reshape(-1, 2)
    vals = np.asarray(g(X, t), dtype=float)
    return np.broadcast_to(vals, (X.shape[0],)).reshape(fd.Xb.shape[:2]).copy()


def _nonlinear_values(space, u, delta):
    """The nonlinear rule's w, B (nq, 3) and BB (nq, 9); s_phi_i = dphi_i/dx
    + dphi_i/dy (nc, 3), s_u = sum_i u_i s_phi_i (nc,) and u at the points."""
    w, B, BB = _volume_tables(space, nonlinear_quad_degree(delta))
    ucell = u[space.cell_dofs]                           # (nc, 3)
    s_phi = space.grads[:, :, 0] + space.grads[:, :, 1]
    return w, B, BB, s_phi, np.sum(ucell * s_phi, axis=1), ucell @ B.T


def nonlinear_residual(space, u, params):
    """Volume residual alpha b(u;u,phi_i) - beta (c(u), phi_i), one cell kernel.

    b(u;u,w) = 1/(delta+2) [ (u^d sum_i du/dx_i, w) - (u^d sum_i dw/dx_i, u) ]
    vanishes at w = u, so no parameter conditions are needed for stability;
    c(u) = u(1-u^d)(u^d-gamma) = (1+gamma) u^(d+1) - gamma u - u^(2d+1).
    A term whose coefficient is 0 is not evaluated (no 0 * inf = NaN).
    """
    alpha, beta, gamma, delta = params.alpha, params.beta, params.reaction_gamma, params.delta
    w, B, _, s_phi, s_u, uq = _nonlinear_values(space, u, delta)
    ud = uq ** delta
    coef = const = 0.0               # integrand against phi_i; its q-free part
    if alpha > 0.0:
        scale = alpha / (delta + 2.0)
        coef = (scale * s_u)[:, None] * ud
        const = -scale * ((ud * uq) @ w)[:, None] * s_phi
    if beta > 0.0:
        coef = coef - beta * ((1.0 + gamma) * ud * uq - gamma * uq - ud * ud * uq)
    cells = space.det_jacobians[:, None] * ((coef * w) @ B + const)
    return _scatter(space.n_dofs, space.cell_dofs, cells)


def add_nonlinear_jacobian(space, data, u, params):
    """Add the exact Jacobian of ``nonlinear_residual`` at u into ``data`` on
    ``space.pattern``; returns ``data``.  c'(u) = (1+gamma)(d+1) u^d - gamma
    - (2d+1) u^(2d); zero coefficients are skipped as there."""
    alpha, beta, gamma, delta = params.alpha, params.beta, params.reaction_gamma, params.delta
    w, B, BB, s_phi, s_u, uq = _nonlinear_values(space, u, delta)
    ud = uq ** delta
    coef = const = 0.0               # integrand against phi_i phi_j; its q-free part
    if alpha > 0.0:
        scale = alpha / (delta + 2.0)
        coef = (scale * delta * s_u)[:, None] * uq ** (delta - 1)
        udB = (ud * w) @ B                               # int u^d phi_i
        const = scale * (udB[:, :, None] * s_phi[:, None, :]
                         - (delta + 1.0) * s_phi[:, :, None] * udB[:, None, :]).reshape(-1, 9)
    if beta > 0.0:
        coef = coef - beta * ((1.0 + gamma) * (delta + 1.0) * ud - gamma
                              - (2.0 * delta + 1.0) * ud * ud)
    cells = space.det_jacobians[:, None] * ((coef * w) @ BB + const)
    return _add_blocks(space, data, {"cells": cells})


def _upwind_values(space, u, delta, datum):
    """Face tables, weights W, the traces (up, um) with the datum (or 0) as
    um on boundary faces, and per side (1,1).n and w.n with w = u^delta
    (1,1)^T of its own trace.  w.n is taken before the datum enters um, so
    a boundary face's exterior side has w.n = 0 and no upwind factor."""
    fd = space.face_data
    up, um = space.traces(u)
    nsum = fd.n.sum(axis=1)
    nsums = (nsum, -nsum)
    wns = [(us ** delta) * ns[:, None] for us, ns in zip((up, um), nsums)]
    if datum is not None:
        um[fd.bnd] = datum
    return fd, fd.rule.weights[None, :] * fd.h[:, None], (up, um), nsums, wns


def upwind_residual(space, u, params, datum):
    """DG upwind flux part of alpha b(u;u,phi_i); 0.0 when alpha is 0.

    The upwind factor is c = min(w.n, 0).  ``datum`` holds the exterior
    Dirichlet datum at the boundary-edge quadrature points
    (``dg_boundary_values``); None means homogeneous.
    """
    if not params.alpha > 0.0:
        return 0.0
    scale = params.alpha / (params.delta + 2.0)
    fd, W, (up, um), _, (wnp, wnm) = _upwind_values(space, u, params.delta, datum)
    cp, cm = np.minimum(wnp, 0.0), np.minimum(wnm, 0.0)
    # side s adds scale*int c_s u_o v_s - scale*int c_s u_s v_o, c_s = c(u_s)
    return (_scatter(space.n_dofs, fd.pdofs, scale * _face_integral(W * (cp - cm) * um, fd.Tp))
            + _scatter(space.n_dofs, fd.mdofs, scale * _face_integral(W * (cm - cp) * up, fd.Tm)))


def add_upwind_jacobian(space, data, u, params, datum):
    """Add the Jacobian of ``upwind_residual`` at u into ``data`` as above
    (nothing when alpha is 0).  Exact off the kink w.n = 0: dc/du =
    delta u^(delta-1) (1,1).n where w.n < 0, and 0 where w.n >= 0."""
    if not params.alpha > 0.0:
        return data
    delta = params.delta
    scale = params.alpha / (delta + 2.0)
    fd, W, (up, um), nsums, wns = _upwind_values(space, u, delta, datum)
    cp, cm = np.minimum(wns[0], 0.0), np.minimum(wns[1], 0.0)
    dcp, dcm = [np.where(wn < 0.0, delta * us ** (delta - 1) * ns[:, None], 0.0)
                for us, ns, wn in zip((up, um), nsums, wns)]
    return _add_blocks(space, data, {
        "pm": scale * _face_integral(W * (cp - cm - dcm * um), fd.TpTm),
        "mp": scale * _transpose(_face_integral(W * (cm - cp - dcp * up), fd.TpTm)),
        "pp": scale * _face_integral(W * dcp * um, fd.TpTp),
        "mm": scale * _face_integral(W * dcm * up, fd.TmTm),
    })


def bind_load(space, f):
    """The load f bound to the load quadrature points: g(ts) -> values.

    g takes an (m,) array of times and returns the (m, n_points) values.
    An ``mms.forcing`` binds itself (``f.on``), does its point-only work
    once and evaluates all the times in one call; any other
    ``f(points, t)`` is called once per time, its values (a scalar or
    one per point) stacked.  None stays None.
    """
    if f is None:
        return None
    X = space.volume_quad(LOAD_QUAD_DEGREE)[2].reshape(-1, 2)
    if hasattr(f, "on"):
        return f.on(X)
    return lambda ts: np.stack([np.broadcast_to(np.asarray(f(X, t), dtype=float), len(X))
                                for t in np.asarray(ts, dtype=float)])


def assemble_load(space, load, t_prev, t_next):
    """Load vector of the interval average f^k = (1/dt) int f(s) ds.

    The time average uses a 3-point Gauss rule (exact through t^5)
    composed with the volume quadrature.  ``load`` is the forcing bound
    to the load points by ``bind_load``, called once for the three Gauss
    times; None gives the zero vector.
    """
    if not t_next > t_prev:
        raise ValueError("t_next must exceed t_prev")
    if load is None:
        return np.zeros(space.n_dofs)
    rule, B, X = space.volume_quad(LOAD_QUAD_DEGREE)
    vals = load(t_prev + (t_next - t_prev) * TIME_GAUSS_X).reshape(-1, *X.shape[:2])
    favg = np.zeros(X.shape[:2])
    for wg, v in zip(TIME_GAUSS_W, vals):
        favg += wg * v
    out_cells = ((favg * rule.weights) @ B) * space.det_jacobians[:, None]
    return _scatter(space.n_dofs, space.cell_dofs, out_cells)
