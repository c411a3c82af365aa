"""Fully discrete time loop: backward Euler + Newton for both schemes.

Each step solves

    M (u^k - u^{k-1})/dt + nu A u^k + alpha B(u^k) - beta C(u^k)
        + eta dt sum_{j<=k} omega_kj A u^j  [+ Caputo term] [+ M v^k]
        = (f^k, phi_i)

with A the space's diffusion operator (CR stiffness or SIPG) and
alpha B(u) - beta C(u) its nonlinear form, convection minus reaction
(``space.nonlinear_residual``).  Both schemes share one residual
F(u) = L_base u + alpha B(u) - beta C(u) - b_k, one call per iterate,
and one Newton matrix L_base + J(u), the form's Jacobian J added into a
copy of L_base's data (``space.add_nonlinear_jacobian``).  The constant
L_base holds the mass, diffusion, memory/Caputo diagonal and
FitzHugh-Nagumo parts, and b_k every u-independent term of the step
(load, previous iterate, history sums, Nitsche vector).  The history
sums over j < k of the memory term, sources eta dt (A u^j - Nitsche^j),
and of the Caputo term, sources M (u^j - u^{j-1}), are exact and kept
by one ``kernel.History`` each, which sums the rows older than a block
of steps in one matrix product per block.  The load evaluates the
forcing at its three Gauss times in one call per step, and
``stability_check`` all of a run's Gauss times in a few calls.  Every Newton
correction is GMRES on the exact Jacobian (Newton-Krylov),
right-preconditioned by a lagged factor: L_base is factored on the run's
first Newton solve, and whenever a GMRES solve needs more than
``linalg.REFRESH_KRYLOV_ITERS`` iterations the next Newton matrix is
factored in its place and kept across iterations and steps (Knoll &
Keyes, J. Comput. Phys. 193 (2004) 357); ``linear_solver="lu"`` factors
every Newton matrix directly instead.  From step 2 on, Newton starts
from the linear extrapolation 2 u^{k-1} - u^{k-2} with the datum
pinned, step 1 from u^0.  All matrices share the space's CSR pattern,
so a Newton matrix is a sum of ``data`` vectors, and a Jacobian is
built only for the iterations that solve with it.
The space supplies what differs between the schemes: diffusion and
energy-norm matrices, nonlinear form and Dirichlet datum, evaluated
once per step in one ``space.dirichlet`` call.  The datum pins the
``boundary_dofs`` (CR midpoints; none for DG), whose residual rows are
zero and whose Newton rows and columns are the identity's; DG's weak
datum enters b_k (Nitsche vector) and the upwind flux.  The optional
recovery variable of the FitzHugh-Nagumo coupling is eliminated per dof
with its closed-form implicit Euler update.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import forms, linalg
from .errors import StepFailureError
from .kernel import History, caputo_weights, memory_weights, resolve_caputo_order

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
    precond_refreshes: int = 0  # preconditioner factors rebuilt in the step


@dataclass
class Trajectory:
    """Solution fields u_h^0..u_h^N plus diagnostics (and v for FHN runs)."""

    times: np.ndarray
    fields: list
    records: list
    v_fields: list | None = None


def fhn_v_update(v_prev, u_new, eps, rho, delta_t):
    """Pointwise implicit Euler for v_t = eps (u - rho v)."""
    return (v_prev + delta_t * eps * u_new) / (1.0 + delta_t * eps * rho)


class BackwardEulerSolver:
    """Time stepper on one space; the space's class is the scheme.

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

        dt = grid.delta_t
        self.M = forms.assemble_mass(space)
        # broken-gradient Gram, diffusion operator, energy-norm Gram
        self.G, self.A, self.N_energy = space.diffusion_matrices(params.penalty_gamma)

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

        # constant part of every Newton matrix; b_k reuses the u_prev and
        # diffusion (Nitsche) coefficients
        self._prev_coef = 1.0 / dt
        if self.cweights is not None:
            self._prev_coef += self.cweights.diagonal
        mass_coef = self._prev_coef
        if self.fhn is not None:
            eps, rho = self.fhn
            mass_coef += dt * eps / (1.0 + dt * eps * rho)
        self._stiff_coef = params.nu
        if self.weights is not None:
            self._stiff_coef += params.eta * dt * self.weights.diagonal
        # every matrix shares space.pattern, so sums are sums of data
        self.L_base = space.pattern.matrix(mass_coef * self.M.data
                                           + self._stiff_coef * self.A.data)
        self._bc_zero, self._bc_one = space.pattern.dirichlet_slots(space.boundary_dofs)
        # the lagged preconditioner factor and the last GMRES iteration
        # count; run() resets both, so construction factors nothing
        self._precond = None
        self._last_krylov = 0

    @cached_property
    def load(self):
        """The forcing bound to the load points, on first use (``forms.bind_load``)."""
        return forms.bind_load(self.space, self.forcing)

    # -- per-step pieces -------------------------------------------------

    def _step_data(self, k, u_prev, known, v_prev):
        """Step k's strong datum values, face datum, Nitsche vector and b_k.

        ``known`` is the history part of the step over j < k (0.0 when
        absent): eta dt sum_j omega_kj (A u^j - Nitsche^j) for the memory
        plus sum_j omega^c_kj M (u^j - u^{j-1}) for the Caputo term.
        """
        p = self.params
        dt = self.grid.delta_t
        t_k = k * dt
        bvals, datum, nitsche = self.space.dirichlet(self.bc, t_k, p.penalty_gamma)
        b = (forms.assemble_load(self.space, self.load, (k - 1) * dt, t_k)
             + self._prev_coef * (self.M @ u_prev) - known
             + self._stiff_coef * nitsche)
        if self.fhn is not None:
            eps, rho = self.fhn
            b -= (self.M @ v_prev) / (1.0 + dt * eps * rho)
        return bvals, datum, nitsche, b

    def _residual(self, u, b, datum):
        """F(u) = L_base u + alpha B(u) - beta C(u) - b, constrained rows zero."""
        F = self.L_base @ u - b
        F += self.space.nonlinear_residual(u, self.params, datum)
        F[self.space.boundary_dofs] = 0.0
        return F

    def _newton_matrix(self, u=None, datum=None):
        """Newton matrix at u (L_base alone when u is None).

        The nonlinear Jacobian is added into a copy of L_base's data on the
        shared pattern; the strong Dirichlet constraint then zeroes the
        rows and columns of the boundary dofs and puts one on their
        diagonal.
        """
        data = self.L_base.data.copy()
        if u is not None:
            self.space.add_nonlinear_jacobian(data, u, self.params, datum)
        data[self._bc_zero] = 0.0
        data[self._bc_one] = 1.0
        return self.space.pattern.matrix(data)

    def _linear_solve(self, J, F, stats):
        if self.linear_solver != "gmres":
            return linalg.solve(J, F, method=self.linear_solver)
        if self._precond is None:
            self._precond = linalg.factorize(self._newton_matrix())
        elif self._last_krylov > linalg.REFRESH_KRYLOV_ITERS:
            self._precond = None            # free the old factor first
            self._precond = linalg.factorize(J)
            stats.precond_refreshes += 1
        before = stats.krylov_iters
        x = linalg.solve(J, F, method="gmres", precond=self._precond.solve,
                         stats=stats)
        self._last_krylov = stats.krylov_iters - before
        return x

    def step(self, k, u_prev, known, v_prev=None, guess=None):
        """Advance one step; returns (u_k, v_k, Nitsche vector, record-tuple).

        ``known`` is the step's history part (see ``_step_data``).  Newton
        starts from ``guess`` (``u_prev`` when None) with the datum pinned.
        The returned fields are new arrays.
        """
        bvals, datum, nitsche, b = self._step_data(k, u_prev, known, v_prev)
        bdofs = self.space.boundary_dofs
        u = (u_prev if guess is None else guess).copy()
        u[bdofs] = bvals
        F = self._residual(u, b, datum)
        rnorm = linalg.norm(F)
        history = [rnorm]
        iters = 0
        stats = linalg.SolveStats()
        while True:
            if not np.isfinite(rnorm):
                raise StepFailureError(k, rnorm, iters)
            # one Jacobian per correction; none at the converged iterate
            J = self._newton_matrix(u, datum)
            u = u - self._linear_solve(J, F, stats)
            u[bdofs] = bvals
            F = self._residual(u, b, datum)
            iters += 1
            rnorm = linalg.norm(F)
            history.append(rnorm)
            if rnorm <= self.newton_tol:
                break
            if iters >= self.newton_cap:
                raise StepFailureError(k, rnorm, iters)

        v_new = None
        if self.fhn is not None:
            eps, rho = self.fhn
            v_new = fhn_v_update(v_prev, u, eps, rho, self.grid.delta_t)
        return u, v_new, nitsche, (iters, rnorm, tuple(history), stats)

    def run(self):
        """Execute all steps; returns the Trajectory with diagnostics.

        One loop feeds the memory and the Caputo history: each step's
        b_k subtracts their ``known()`` sums, and the solved field pushes
        their next source rows.  The trajectory stores the fields that
        ``step`` returns, without copies.
        """
        space = self.space
        grid = self.grid
        dt = grid.delta_t
        n = grid.n_steps

        if self.u0 is None:
            u = np.zeros(space.n_dofs)
        else:
            u = space.interpolate(self.u0)
        v = None
        if self.fhn is not None:
            v = (space.interpolate(self.v0) if self.v0 is not None
                 else np.zeros(space.n_dofs))

        fields = [u]
        v_fields = [v] if v is not None else None
        energy_cum = 0.0
        records = [self._record(0, 0.0, u, 0, 0.0, (), energy_cum, linalg.SolveStats())]

        self._precond = None                # nothing carries over between runs
        self._last_krylov = 0
        # (history, source of its next row) of the memory and the Caputo term
        histories = []
        if self.weights is not None:
            scale = self.params.eta * dt
            histories.append((History(self.weights, space.n_dofs),
                              lambda u_new, u_old, nitsche: scale * (self.A @ u_new - nitsche)))
        if self.cweights is not None:
            histories.append((History(self.cweights, space.n_dofs),
                              lambda u_new, u_old, nitsche: self.M @ (u_new - u_old)))

        for k in range(1, n + 1):
            known = sum(history.known() for history, _ in histories)
            guess = None if k == 1 else 2.0 * u - fields[-2]
            u_new, v_new, nitsche, (iters, rnorm, hist, stats) = self.step(
                k, u, known, v, guess)
            for history, source in histories:
                history.push(source(u_new, u, nitsche))

            u = u_new
            if v_new is not None:
                v = v_new
                v_fields.append(v)
            fields.append(u)
            energy_cum += dt * float(u @ (self.N_energy @ u))
            records.append(self._record(k, k * dt, u, iters, rnorm, hist, energy_cum, stats))

        return Trajectory(grid.times, fields, records, v_fields)

    def _record(self, k, t, u, iters, rnorm, hist, energy_cum, stats):
        l2 = float(np.sqrt(max(u @ (self.M @ u), 0.0)))
        gn = float(np.sqrt(max(u @ (self.G @ u), 0.0)))
        return StepRecord(k, t, iters, rnorm, hist, l2, gn, energy_cum,
                          stats.krylov_iters, stats.lu_fallbacks, stats.precond_refreshes)


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


#: ``stability_check`` evaluates the forcing for as many times at once as
#: keep one block of (times, load points) values under this many (2 MB).
STABILITY_CHUNK_VALUES = 2**18


def stability_check(traj, space, params, forcing, u0):
    """Verify sup_k ||u^k||^2 + nu |||u|||^2 <= (||u0||^2 + (1/nu) int ||f||^2) e^{beta (1+gamma^2) T}.

    Report-only: returns both sides and a flag.  Intended for runs with
    homogeneous Dirichlet data.
    """
    dt = float(traj.times[1] - traj.times[0])
    T = float(traj.times[-1])
    sup_l2_sq = max(r.l2_norm**2 for r in traj.records)
    energy_sq = params.nu * dt * sum(r.grad_norm**2 for r in traj.records[1:])
    lhs = sup_l2_sq + energy_sq

    rule, _, X = space.volume_quad(forms.LOAD_QUAD_DEGREE)
    Xf = X.reshape(-1, 2)
    det = space.det_jacobians

    u0_part = 0.0
    if u0 is not None:
        v2 = np.broadcast_to(np.asarray(u0(Xf), dtype=float), len(Xf)).reshape(X.shape[:2]) ** 2
        u0_part = float(np.einsum("cq,q,c->", v2, rule.weights, det))

    f_part = 0.0
    load = forms.bind_load(space, forcing)
    if load is not None:
        # the load's Gauss times, step by step, evaluated a chunk at a time
        taus = (traj.times[:-1, None] + dt * forms.TIME_GAUSS_X).reshape(-1)
        chunk = max(1, STABILITY_CHUNK_VALUES // len(Xf))
        sq = np.concatenate([
            np.einsum("mcq,q,c->m", load(ts).reshape(len(ts), *X.shape[:2]) ** 2,
                      rule.weights, det)
            for ts in np.split(taus, range(chunk, len(taus), chunk))])
        w = forms.TIME_GAUSS_W
        f_part = dt * float(np.sum(sq.reshape(-1, len(w)) * w)) / params.nu

    growth = np.exp(params.beta * (1.0 + params.reaction_gamma**2) * T)
    rhs = (u0_part + f_part) * growth
    return StabilityReport(sup_l2_sq, energy_sq, lhs, u0_part, f_part, rhs, lhs <= rhs)
