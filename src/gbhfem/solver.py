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
FitzHugh-Nagumo parts.  ``run`` builds b_k, every u-independent term of
the step, in one place: the load, (1/dt + Caputo diagonal) M u^{k-1},
minus the history part ``known`` = eta dt A S_u (+ the Caputo sum),
minus M v^{k-1} / (1 + dt eps rho) for the FitzHugh-Nagumo coupling,
and, on a space with a face datum g (DG), one Nitsche vector of
nu g^k + eta dt sum_{j<=k} omega_kj g^j, the SIPG boundary terms being
linear in g (``space.nitsche``).  ``step`` is Newton's iteration alone.
The history sums over j < k are exact, each a ``kernel.History`` that
sums the rows older than a block of steps in one matrix product per
block: S_u = sum_j omega_kj u^j over the stored fields, S_g over the
datum values, and the Caputo sum over its own rows M (u^j - u^{j-1}).
The load evaluates the forcing at its three Gauss times in one call per
step, and ``stability_check`` all of a run's Gauss times in a few calls.
Every Newton correction is GMRES on the exact Jacobian (Newton-Krylov),
right-preconditioned by a lagged incomplete LU: L_base is factored on the run's
first Newton solve, and whenever a GMRES solve needs more than
``linalg.REFRESH_KRYLOV_ITERS`` iterations the next Newton matrix is
factored in its place and kept across iterations and steps (Knoll &
Keyes, J. Comput. Phys. 193 (2004) 357); a solve that GMRES cannot
bring to tolerance falls back to an exact LU of that Newton matrix
(``linalg.solve``).  A correction is solved only as far as Newton can
use (Eisenstat & Walker, SIAM J. Sci. Comput. 17 (1996) 16): with C =
||F_{k+1}|| / ||F_k||^2 the last contraction observed in the run,
GMRES aims at min(ETA_MAX ||F_k||, C ||F_k||^2), the residual the next
iterate is expected to have anyway, but never tighter than
``linalg.solve``'s default aim.  That default alone applies until the
run has observed a C, and where C ||F_k||^2 < newton_tol, so that the
correction expected to be the last is solved tightly.  A converged
residual sits at rounding level, so it sets no C.  From step 2 on,
Newton starts from the linear extrapolation 2 u^{k-1} - u^{k-2} with
the datum pinned, step 1 from u^0.  All matrices share the space's CSR
pattern, so a Newton matrix is a sum of ``data`` vectors, and a
Jacobian is built only for the iterations that solve with it.
The space supplies what differs between the schemes: diffusion and
energy-norm matrices, nonlinear form and Dirichlet datum, evaluated
once per step in one ``space.dirichlet`` call.  Its strong values pin
the ``boundary_dofs`` (CR midpoints; none for DG), whose residual rows
are zero and whose Newton rows and columns are the identity's; its face
datum (DG; None for CR) enters b_k through the Nitsche vector and the
nonlinear form through the upwind flux.  The optional
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

#: a Newton correction's GMRES aim is at most this fraction of ||F||
ETA_MAX = 0.01


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
    """

    def __init__(self, space, params, grid, *, forcing=None, u0=None, bc=None,
                 kernel_spec=None, caputo_order=None, fhn=None, v0=None,
                 newton_tol=1e-10, newton_cap=25):
        self.space = space
        self.params = params
        self.grid = grid
        self.forcing = forcing
        self.u0 = u0
        self.bc = bc
        self.newton_tol = float(newton_tol)
        self.newton_cap = int(newton_cap)

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
        # the lagged preconditioner factor, the last GMRES iteration count
        # and the last Newton contraction ||F_{k+1}|| / ||F_k||^2 (0 before
        # the first); run() resets all three, so construction factors nothing
        self._precond = None
        self._last_krylov = 0
        self._contraction = 0.0

    @cached_property
    def load(self):
        """The forcing bound to the load points, on first use (``forms.bind_load``)."""
        return forms.bind_load(self.space, self.forcing)

    # -- per-step pieces -------------------------------------------------

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

    def _linear_solve(self, J, F, stats, forcing):
        if self._precond is None:
            self._precond = linalg.factorize(self._newton_matrix())
        elif self._last_krylov > linalg.REFRESH_KRYLOV_ITERS:
            self._precond = None            # free the old factor first
            self._precond = linalg.factorize(J)
            stats.precond_refreshes += 1
        before = stats.krylov_iters
        x = linalg.solve(J, F, precond=self._precond.solve, stats=stats, forcing=forcing)
        self._last_krylov = stats.krylov_iters - before
        return x

    def step(self, k, b, bvals, datum, guess):
        """Newton's iteration of step k; returns (u_k, record-tuple).

        Solves F(u) = L_base u + alpha B(u) - beta C(u) - b = 0 with
        ``bvals`` pinned at the boundary dofs and ``datum`` the face datum
        of the nonlinear form, from a copy of ``guess``.
        """
        bdofs = self.space.boundary_dofs
        u = guess.copy()
        u[bdofs] = bvals
        F = self._residual(u, b, datum)
        rnorm = linalg.norm(F)
        history = [rnorm]
        iters = 0
        stats = linalg.SolveStats()
        while True:
            if not np.isfinite(rnorm):
                raise StepFailureError(k, rnorm, iters)
            # Eisenstat-Walker: the correction need not be more accurate
            # than the residual the last contraction predicts, unless that
            # residual would end the iteration
            expected = self._contraction * rnorm * rnorm
            forcing = min(ETA_MAX * rnorm, expected) if expected >= self.newton_tol else 0.0
            # one Jacobian per correction; none at the converged iterate
            J = self._newton_matrix(u, datum)
            u = u - self._linear_solve(J, F, stats, forcing)
            u[bdofs] = bvals
            F = self._residual(u, b, datum)
            iters += 1
            prev, rnorm = rnorm, linalg.norm(F)
            history.append(rnorm)
            if rnorm <= self.newton_tol:
                break
            if iters >= self.newton_cap:
                raise StepFailureError(k, rnorm, iters)
            # a converged residual sits at rounding level and predicts nothing
            if prev * prev > 0.0:
                self._contraction = rnorm / (prev * prev)
        return u, (iters, rnorm, tuple(history), stats)

    def run(self):
        """Execute all steps; returns the Trajectory with diagnostics.

        Builds each step's b_k (see the module docstring) and hands it to
        ``step``.  Each step writes its field into a row of one (N+1, dofs)
        array (v into another); the trajectory stores the row views.  The
        memory history sums these rows and, on DG steps with a datum, a
        small history of the datum values.
        """
        space = self.space
        grid = self.grid
        dt = grid.delta_t
        n = grid.n_steps
        scale = self.params.eta * dt

        U = np.empty((n + 1, space.n_dofs))
        U[0] = 0.0 if self.u0 is None else space.interpolate(self.u0)
        V = None if self.fhn is None else np.empty((n + 1, space.n_dofs))
        if V is not None:
            V[0] = 0.0 if self.v0 is None else space.interpolate(self.v0)
            eps, rho = self.fhn

        energy_cum = 0.0
        records = [self._record(0, 0.0, U[0], 0, 0.0, (), energy_cum, linalg.SolveStats())]

        self._precond = None                # nothing carries over between runs
        self._last_krylov = 0
        self._contraction = 0.0
        memory = None if self.weights is None else History(self.weights, U[1:])
        caputo = datum_memory = None
        if self.cweights is not None:
            increments = np.empty((n, space.n_dofs))    # rows M (u^j - u^{j-1})
            caputo = History(self.cweights, increments)

        for k in range(1, n + 1):
            t_k = k * dt
            known = 0.0 if memory is None else scale * (self.A @ memory.known(k))
            if caputo is not None:
                known += caputo.known(k)
            bvals, datum = space.dirichlet(self.bc, t_k)
            b = (forms.assemble_load(space, self.load, (k - 1) * dt, t_k)
                 + self._prev_coef * (self.M @ U[k - 1]) - known)
            if datum is not None:               # one Nitsche vector, datum and its history
                g = self._stiff_coef * datum
                if memory is not None:
                    if datum_memory is None:
                        data = np.empty((n, datum.size))
                        datum_memory = History(self.weights, data)
                    data[k - 1] = datum.reshape(-1)
                    g += scale * datum_memory.known(k).reshape(datum.shape)
                b += space.nitsche(g, self.params.penalty_gamma)
            if V is not None:
                b -= (self.M @ V[k - 1]) / (1.0 + dt * eps * rho)
            guess = U[0] if k == 1 else 2.0 * U[k - 1] - U[k - 2]
            U[k], (iters, rnorm, hist, stats) = self.step(k, b, bvals, datum, guess)
            if V is not None:
                V[k] = fhn_v_update(V[k - 1], U[k], eps, rho, dt)
            if caputo is not None:
                increments[k - 1] = self.M @ (U[k] - U[k - 1])

            energy_cum += dt * float(U[k] @ (self.N_energy @ U[k]))
            records.append(self._record(k, t_k, U[k], iters, rnorm, hist, energy_cum, stats))

        return Trajectory(grid.times, list(U), records, None if V is None else list(V))

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
