"""Fully discrete time loop: backward Euler + Newton for both schemes.

Each step solves

    M (u^k - u^{k-1})/dt + nu A u^k + alpha B(u^k) - beta C(u^k)
        + eta dt sum_{j<=k} omega_kj A u^j  [+ Caputo term] [+ M v^k]
        = (f^k, phi_i)

with A the CR stiffness or the SIPG operator, B/C the convection and
reaction forms.  The j = k memory contribution enters the Newton matrix.
Its constant part (mass, stiffness and memory diagonal) is factored once
per run, on the first Newton solve, and preconditions GMRES on the exact
Jacobian (Newton-Krylov); ``linear_solver="lu"`` factors every Newton
matrix directly instead.  All matrices share the space's CSR pattern, so
a Newton matrix is a sum of ``data`` vectors, and a Jacobian is built
only for the iterations that solve with it.
Dirichlet data is imposed strongly at edge midpoints for CR and weakly
(Nitsche, through the SIPG boundary terms and the upwind flux datum)
for DG.  The optional recovery variable of the FitzHugh-Nagumo coupling
is eliminated per dof with its closed-form implicit Euler update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import forms, linalg
from .errors import StepFailureError
from .kernel import caputo_weights, memory_weights, resolve_caputo_order

__all__ = [
    "TimeGrid", "StepRecord", "Trajectory", "BackwardEulerSolver",
    "StabilityReport", "stability_check", "fhn_v_update",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into n_steps intervals."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")

    @property
    def delta_t(self):
        return self.t_final / self.n_steps

    @property
    def times(self):
        return self.delta_t * np.arange(self.n_steps + 1)


@dataclass
class StepRecord:
    """Per-step diagnostics."""

    step: int
    time: float
    newton_iters: int
    newton_residual: float
    residual_history: tuple
    l2_norm: float
    grad_norm: float          # broken-gradient seminorm
    energy_cum: float         # dt * sum_{j<=k} |||u^j|||^2 in the scheme norm
    krylov_iters: int = 0     # GMRES iterations over the step's Newton solves
    lu_fallbacks: int = 0     # Newton solves that GMRES missed and LU redid


@dataclass
class Trajectory:
    """Solution fields u_h^0..u_h^N plus diagnostics (and v for FHN runs)."""

    scheme: str
    times: np.ndarray
    fields: list
    records: list
    v_fields: list | None = None
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.fields)


def fhn_v_update(v_prev, u_new, eps, rho, delta_t):
    """Pointwise implicit Euler for v_t = eps (u - rho v)."""
    return (v_prev + delta_t * eps * u_new) / (1.0 + delta_t * eps * rho)


class BackwardEulerSolver:
    """Time stepper for one scheme ("cr" or "dg") on one space.

    Parameters
    ----------
    space : CRSpace or DGSpace
    params : ModelParams
    grid : TimeGrid
    forcing : callable f(points, t) -> values, or None for f = 0
    u0 : callable initial datum, or None for zero
    bc : callable g(points, t) Dirichlet datum, or None for homogeneous
    kernel_spec : KernelSpec, required when params.eta > 0
    caputo_order : fractional order in (0, 1), or None for
        ``kernel_spec.caputo_order`` (ValueError when both are set and
        differ)
    fhn : (eps, rho) to enable the recovery-variable coupling
    v0 : callable initial datum of the recovery variable
    linear_solver : "gmres" (Newton-Krylov, see the module docstring) or
        "lu" (direct factorization of every Newton matrix); read at step
        time
    """

    def __init__(self, space, params, grid, *, forcing=None, u0=None, bc=None,
                 kernel_spec=None, caputo_order=None, fhn=None, v0=None,
                 newton_tol=1e-10, newton_cap=25, linear_solver="gmres"):
        self.space = space
        self.params = params
        self.grid = grid
        self.forcing = forcing
        self.u0 = u0
        self.bc = bc
        self.newton_tol = float(newton_tol)
        self.newton_cap = int(newton_cap)
        self.linear_solver = linear_solver
        self.scheme = space.kind

        dt = grid.delta_t
        self.M = forms.assemble_mass(space)
        self.G = forms.assemble_stiffness_cr(space)      # broken-gradient Gram
        if self.scheme == "cr":
            self.A = self.G
            self.N_energy = self.A
        else:
            self.A = forms.assemble_stiffness_dg(space, params.penalty_gamma)
            self.N_energy = forms.dg_norm_matrix(space, params.penalty_gamma)

        self.weights = None
        if params.eta > 0.0:
            if kernel_spec is None:
                raise ValueError("eta > 0 requires a kernel_spec")
            self.weights = memory_weights(kernel_spec, dt, grid.n_steps)
        self.cweights = None
        caputo_order = resolve_caputo_order(kernel_spec, caputo_order)
        if caputo_order is not None:
            self.cweights = caputo_weights(caputo_order, dt, grid.n_steps)

        self.fhn = None
        self.v0 = v0
        if fhn is not None:
            eps, rho = fhn
            self.fhn = (float(eps), float(rho))

        # constant part of every Newton matrix
        mass_coef = 1.0 / dt
        if self.cweights is not None:
            mass_coef += self.cweights.diagonal
        if self.fhn is not None:
            eps, rho = self.fhn
            mass_coef += dt * eps / (1.0 + dt * eps * rho)
        stiff_coef = params.nu
        if self.weights is not None:
            stiff_coef += params.eta * dt * self.weights.diagonal
        # every matrix shares space.pattern, so sums are sums of data
        self.L_base = space.pattern.matrix(mass_coef * self.M.data + stiff_coef * self.A.data)

        # CR imposes Dirichlet data strongly at boundary midpoints, with a
        # zero datum when none is given; DG carries the datum weakly in the
        # penalty/consistency/flux terms, so nothing is constrained there.
        self.strong_bc = self.scheme == "cr"
        if self.strong_bc:
            self._bc_zero, self._bc_one = space.pattern.dirichlet_slots(space.boundary_dofs)
        # factor of the constrained L_base, built on the first Newton solve
        # so that construction stays cheap
        self._precond = None

    # -- per-step pieces -------------------------------------------------

    def _nitsche_vec(self, t):
        if self.scheme == "dg" and self.bc is not None:
            return forms.dirichlet_rhs_dg(self.space, self.bc, t,
                                          self.params.penalty_gamma)
        return None

    def _flux_datum(self, t):
        if self.scheme == "dg" and self.bc is not None:
            return forms.dg_boundary_values(self.space, self.bc, t)
        return None

    def _convection(self, u, flux_datum, **parts):
        if self.scheme == "cr":
            return forms.convection_cr(self.space, u, self.params, **parts)
        return forms.convection_dg(self.space, u, self.params,
                                   boundary_values=flux_datum, **parts)

    def _residual(self, u, u_prev, load, mem_known, cap_known, fhn_const,
                  nitsche_k, flux_datum):
        p = self.params
        dt = self.grid.delta_t
        Au = self.A @ u
        F = self.M @ ((u - u_prev) / dt) + p.nu * Au - load
        if nitsche_k is not None:
            F -= p.nu * nitsche_k
        if p.alpha > 0.0:
            F += self._convection(u, flux_datum, need_jac=False)[0]
        if p.beta > 0.0:
            F -= forms.reaction(self.space, u, p, need_jac=False)[0]
        if self.weights is not None:
            own = Au if nitsche_k is None else Au - nitsche_k
            F += p.eta * dt * (mem_known + self.weights.diagonal * own)
        if self.cweights is not None:
            F += cap_known + self.cweights.diagonal * (self.M @ (u - u_prev))
        if fhn_const is not None:
            eps, rho = self.fhn
            F += fhn_const + (dt * eps / (1.0 + dt * eps * rho)) * (self.M @ u)
        if self.strong_bc:
            F[self.space.boundary_dofs] = 0.0
        return F

    def _newton_matrix(self, u=None, flux_datum=None):
        """Newton matrix at u (L_base alone when u is None).

        L_base + J_conv - J_react summed as data vectors on the shared
        pattern; for CR the strong Dirichlet constraint then zeroes the
        boundary rows and columns and puts one on their diagonal.
        """
        p = self.params
        data = self.L_base.data.copy()
        if u is not None and p.alpha > 0.0:
            data += self._convection(u, flux_datum, need_res=False)[1].data
        if u is not None and p.beta > 0.0:
            data -= forms.reaction(self.space, u, p, need_res=False)[1].data
        if self.strong_bc:
            data[self._bc_zero] = 0.0
            data[self._bc_one] = 1.0
        return self.space.pattern.matrix(data)

    def _linear_solve(self, J, F, stats):
        if self.linear_solver != "gmres":
            return linalg.solve(J, F, method=self.linear_solver)
        if self._precond is None:
            self._precond = linalg.factorize(self._newton_matrix())
        return linalg.solve(J, F, method="gmres", precond=self._precond.solve,
                            stats=stats)

    def step(self, k, u_prev, mem_known, cap_known, v_prev=None):
        """Advance one step; returns (u_k, v_k, record-tuple)."""
        p = self.params
        dt = self.grid.delta_t
        t_prev = (k - 1) * dt
        t_k = k * dt
        load = forms.assemble_load(self.space, self.forcing, t_prev, t_k)
        nitsche_k = self._nitsche_vec(t_k)
        flux_datum = self._flux_datum(t_k)

        fhn_const = None
        if self.fhn is not None:
            eps, rho = self.fhn
            fhn_const = (self.M @ v_prev) / (1.0 + dt * eps * rho)

        strong_bc = self.strong_bc
        u = u_prev.copy()
        if strong_bc:
            if self.bc is not None:
                bvals = self.space.boundary_values(self.bc, t_k)
            else:
                bvals = np.zeros(len(self.space.boundary_dofs))
            u[self.space.boundary_dofs] = bvals

        def residual(u):
            return self._residual(u, u_prev, load, mem_known, cap_known, fhn_const,
                                  nitsche_k, flux_datum)

        F = residual(u)
        history = [float(np.linalg.norm(F))]
        iters = 0
        stats = linalg.SolveStats()
        while True:
            # one Jacobian per correction; none at the converged iterate
            J = self._newton_matrix(u, flux_datum)
            delta = self._linear_solve(J, F, stats)
            u = u - delta
            if strong_bc:
                u[self.space.boundary_dofs] = bvals
            F = residual(u)
            iters += 1
            rnorm = float(np.linalg.norm(F))
            history.append(rnorm)
            if rnorm <= self.newton_tol:
                break
            if iters >= self.newton_cap:
                raise StepFailureError(k, rnorm, iters)

        v_new = None
        if self.fhn is not None:
            eps, rho = self.fhn
            v_new = fhn_v_update(v_prev, u, eps, rho, dt)
        return u, v_new, (iters, rnorm, tuple(history), stats)

    def run(self):
        """Execute all steps; returns the Trajectory with diagnostics."""
        space = self.space
        grid = self.grid
        dt = grid.delta_t
        n = grid.n_steps

        if self.u0 is None:
            u = np.zeros(space.n_dofs)
        else:
            u = space.interpolate(self.u0).values
        v = None
        if self.fhn is not None:
            v = (space.interpolate(self.v0).values if self.v0 is not None
                 else np.zeros(space.n_dofs))

        fields = [u.copy()]
        v_fields = [v.copy()] if v is not None else None
        energy_cum = 0.0
        records = [self._record(0, 0.0, u, 0, 0.0, (), energy_cum, linalg.SolveStats())]

        mem_hist = np.zeros((n, space.n_dofs)) if self.weights is not None else None
        cap_hist = np.zeros((n, space.n_dofs)) if self.cweights is not None else None

        for k in range(1, n + 1):
            mem_known = 0.0
            if self.weights is not None and k > 1:
                w_row = self.weights.row(k)[: k - 1]
                mem_known = w_row @ mem_hist[: k - 1]
            cap_known = 0.0
            if self.cweights is not None and k > 1:
                c_row = self.cweights.row(k)[: k - 1]
                cap_known = c_row @ cap_hist[: k - 1]

            u_new, v_new, (iters, rnorm, hist, stats) = self.step(k, u, mem_known, cap_known, v)

            if self.weights is not None:
                own = self.A @ u_new
                nk = self._nitsche_vec(k * dt)
                if nk is not None:
                    own = own - nk
                mem_hist[k - 1] = own
            if self.cweights is not None:
                cap_hist[k - 1] = self.M @ (u_new - u)

            u = u_new
            if v_new is not None:
                v = v_new
                v_fields.append(v.copy())
            fields.append(u.copy())
            energy_cum += dt * float(u @ (self.N_energy @ u))
            records.append(self._record(k, k * dt, u, iters, rnorm, hist, energy_cum, stats))

        meta = {
            "scheme": self.scheme,
            "n_dofs": space.n_dofs,
            "delta_t": dt,
            "newton_tol": self.newton_tol,
            "volume_quad_degree": forms.nonlinear_quad_degree(self.params.delta),
            "weights": "power-law-closed-form" if self.weights is not None else "none",
        }
        return Trajectory(self.scheme, grid.times, fields, records, v_fields, meta)

    def _record(self, k, t, u, iters, rnorm, hist, energy_cum, stats):
        l2 = float(np.sqrt(max(u @ (self.M @ u), 0.0)))
        gn = float(np.sqrt(max(u @ (self.G @ u), 0.0)))
        return StepRecord(k, t, iters, rnorm, hist, l2, gn, energy_cum,
                          stats.krylov_iters, stats.lu_fallbacks)


@dataclass
class StabilityReport:
    """Both sides of the discrete energy stability estimate."""

    sup_l2_sq: float
    energy_sq: float        # nu * dt * sum_k ||grad_h u^k||^2
    lhs: float
    u0_part: float
    f_part: float           # (1/nu) * int ||f||^2 dt
    rhs: float
    holds: bool


def stability_check(traj, space, params, forcing, u0, quad_degree=5):
    """Verify sup_k ||u^k||^2 + nu |||u|||^2 <= (||u0||^2 + (1/nu) int ||f||^2) e^{beta (1+gamma^2) T}.

    Report-only: returns both sides and a flag.  Intended for runs with
    homogeneous Dirichlet data.
    """
    dt = float(traj.times[1] - traj.times[0])
    T = float(traj.times[-1])
    sup_l2_sq = max(r.l2_norm**2 for r in traj.records)
    energy_sq = params.nu * dt * sum(r.grad_norm**2 for r in traj.records[1:])
    lhs = sup_l2_sq + energy_sq

    rule, _, X = space.volume_quad(quad_degree)
    Xf = X.reshape(-1, 2)
    det = space.det_jacobians

    def spatial_l2_sq(values_flat):
        v2 = values_flat.reshape(X.shape[:2]) ** 2
        return float(np.einsum("cq,q,c->", v2, rule.weights, det))

    u0_part = 0.0
    if u0 is not None:
        u0_part = spatial_l2_sq(np.broadcast_to(np.asarray(u0(Xf), dtype=float), (Xf.shape[0],)))

    f_part = 0.0
    if forcing is not None:
        for k in range(1, len(traj.times)):
            t_prev = traj.times[k - 1]
            for xg, wg in zip(forms.TIME_GAUSS_X, forms.TIME_GAUSS_W):
                tau = t_prev + dt * xg
                vals = np.broadcast_to(
                    np.asarray(forcing(Xf, tau), dtype=float), (Xf.shape[0],))
                f_part += dt * wg * spatial_l2_sq(vals)
        f_part /= params.nu

    growth = np.exp(params.beta * (1.0 + params.reaction_gamma**2) * T)
    rhs = (u0_part + f_part) * growth
    return StabilityReport(sup_l2_sq, energy_sq, lhs, u0_part, f_part, rhs, lhs <= rhs)
