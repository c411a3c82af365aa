"""Manufactured solutions, forcing construction and convergence studies.

A manufactured case carries the exact solution and its derivatives; the
forcing is assembled from the strong operator, including the memory
convolution (closed Beta-identity form for separable cases with
power-family time profiles, a singularity-absorbing Gauss-Jacobi rule
otherwise) and the optional Caputo term (power-family profiles only).
Every case passes a finite-difference self-consistency gate before a
study is allowed to run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi

from .errors import UnsupportedCaseError
from .kernel import caputo_power, convolve_power, resolve_caputo_order
from .mesh import generate_rect_mesh
from .solver import BackwardEulerSolver, TimeGrid, stability_check
from .space_cr import CRSpace
from .space_dg import DGSpace

__all__ = [
    "ManufacturedCase", "type_one", "type_two", "traveling_wave",
    "forcing", "error_l2", "error_linf_l2", "error_energy",
    "StudyRow", "StudyResult", "SPACES", "convergence_study",
]

JACOBI_NODES = 48

#: The space class of each scheme.
SPACES = {"cr": CRSpace, "dg": DGSpace}


@dataclass
class ManufacturedCase:
    """Exact solution with evaluable derivatives.

    ``u``, ``u_t``, ``lap`` map ((n,2) points, t) to (n,) values; ``grad``
    returns (n, 2).  ``time_profile`` is a list of (coef, power) pairs
    when u = profile(t) * spatial(x) is separable, enabling closed-form
    memory and Caputo forcing terms.

    A separable case computes its spatial factors S, grad S and lap S
    once per read-only point set (``volume_quad``'s X and the DG boundary
    points are read-only) and returns those values, read-only, at every
    time, so the forcing, the exact solution and the error norms of a run
    reuse them.  Writable point arrays are evaluated afresh on each call.
    """

    name: str
    u: object
    u_t: object
    grad: object
    lap: object
    homogeneous_bc: bool = True
    time_profile: list | None = None
    spatial: object = None
    spatial_lap: object = None

    def initial(self, x):
        return self.u(x, 0.0)

    def boundary(self, x, t):
        return self.u(x, t)

    def self_check(self, box=(0.0, 0.0, 1.0, 1.0), t_range=(0.05, 0.95),
                   n_probes=30, seed=0, tol=1e-6):
        """Finite-difference consistency gate for the stated derivatives.

        u_t and grad are compared against central differences of u; lap
        against central differences of the stated gradient (a plain
        second difference of u cannot reach the tolerance in double
        precision for steep fronts).  Errors are relative to |value| + 1.
        Raises on failure.
        """
        rng = np.random.default_rng(seed)
        xmin, ymin, xmax, ymax = box
        margin = 1e-3 * min(xmax - xmin, ymax - ymin)
        x = np.column_stack([
            rng.uniform(xmin + margin, xmax - margin, n_probes),
            rng.uniform(ymin + margin, ymax - margin, n_probes),
        ])
        t = rng.uniform(*t_range, n_probes)

        def check(name, exact, approx):
            err = np.max(np.abs(exact - approx) / (np.abs(exact) + 1.0))
            if not err <= tol:
                raise ValueError(
                    f"case {self.name}: {name} disagrees with finite differences "
                    f"(relative error {err:.3e})")

        def u_at(dx, dy, dt):
            return np.array([
                self.u(x[i:i + 1] + [[dx, dy]], t[i] + dt)[0] for i in range(n_probes)
            ])

        def grad_at(dx, dy):
            return np.array([
                self.grad(x[i:i + 1] + [[dx, dy]], t[i])[0] for i in range(n_probes)
            ])

        h = 1e-6
        check("u_t", np.array([self.u_t(x[i:i + 1], t[i])[0] for i in range(n_probes)]),
              (u_at(0, 0, h) - u_at(0, 0, -h)) / (2 * h))
        g = np.array([self.grad(x[i:i + 1], t[i])[0] for i in range(n_probes)])
        check("du/dx", g[:, 0], (u_at(h, 0, 0) - u_at(-h, 0, 0)) / (2 * h))
        check("du/dy", g[:, 1], (u_at(0, h, 0) - u_at(0, -h, 0)) / (2 * h))
        fd_lap = ((grad_at(h, 0)[:, 0] - grad_at(-h, 0)[:, 0])
                  + (grad_at(0, h)[:, 1] - grad_at(0, -h)[:, 1])) / (2 * h)
        check("laplacian", np.array([self.lap(x[i:i + 1], t[i])[0] for i in range(n_probes)]),
              fd_lap)
        return True


def _frozen(x):
    """True when x and the array that owns its memory are both read-only."""
    while isinstance(x, np.ndarray):
        if x.flags.writeable:
            return False
        x = x.base
    return x is None


def _per_point_set(fn):
    """fn(x), remembered for the last read-only point set x.

    A call hits when x is read-only down to the owner of its memory
    (``_frozen``) and views the same memory as the remembered argument
    with the same shape, strides and dtype.  The remembered argument is
    kept alive, so no other array can take over its memory meanwhile.
    Writable arguments go straight to fn.
    """
    last = None            # (argument, key, read-only value)

    def spatial(x):
        nonlocal last
        if not _frozen(x):
            return fn(x)
        key = (x.ctypes.data, x.shape, x.strides, x.dtype)
        if last is None or last[1] != key:
            value = np.asarray(fn(x))
            value.flags.writeable = False
            last = (x, key, value)
        return last[2]

    return spatial


def _separable(name, profile, dprofile, S, gradS, lapS, homogeneous):
    S, gradS, lapS = _per_point_set(S), _per_point_set(gradS), _per_point_set(lapS)

    def u(x, t):
        return _eval_profile(profile, t) * S(x)

    def u_t(x, t):
        return _eval_profile(dprofile, t) * S(x)

    def grad(x, t):
        return _eval_profile(profile, t) * gradS(x)

    def lap(x, t):
        return _eval_profile(profile, t) * lapS(x)

    return ManufacturedCase(name, u, u_t, grad, lap, homogeneous,
                            time_profile=list(profile), spatial=S, spatial_lap=lapS)


def _eval_profile(profile, t):
    return sum(c * t**p if p else c for c, p in profile)


def type_one():
    """u = (t^3 - t^2 + 1) sin(pi x) sin(pi y)."""
    pi = np.pi

    def S(x):
        return np.sin(pi * x[:, 0]) * np.sin(pi * x[:, 1])

    def gradS(x):
        return pi * np.column_stack([
            np.cos(pi * x[:, 0]) * np.sin(pi * x[:, 1]),
            np.sin(pi * x[:, 0]) * np.cos(pi * x[:, 1]),
        ])

    def lapS(x):
        return -2.0 * pi**2 * S(x)

    return _separable("type1", [(1.0, 3.0), (-1.0, 2.0), (1.0, 0.0)],
                      [(3.0, 2.0), (-2.0, 1.0)], S, gradS, lapS, True)


def type_two():
    """u = t^(3/2) sin(2 pi x) sin(2 pi y)."""
    pi = np.pi

    def S(x):
        return np.sin(2 * pi * x[:, 0]) * np.sin(2 * pi * x[:, 1])

    def gradS(x):
        return 2 * pi * np.column_stack([
            np.cos(2 * pi * x[:, 0]) * np.sin(2 * pi * x[:, 1]),
            np.sin(2 * pi * x[:, 0]) * np.cos(2 * pi * x[:, 1]),
        ])

    def lapS(x):
        return -8.0 * pi**2 * S(x)

    return _separable("type2", [(1.0, 1.5)], [(1.5, 0.5)], S, gradS, lapS, True)


def traveling_wave(reynolds):
    """Sigmoid front u = 1 / (1 + exp(Re (x + y - t) / 2)).

    Exact solution of the pure Burgers part with nu = 1/Re; the reaction
    and memory terms are compensated through the forcing.  Non-separable,
    nonhomogeneous Dirichlet data.
    """
    r = 0.5 * float(reynolds)

    def E(x, t):
        return np.exp(np.clip(r * (x[:, 0] + x[:, 1] - t), -700.0, 700.0))

    def u(x, t):
        return 1.0 / (1.0 + E(x, t))

    def u_t(x, t):
        e = E(x, t)
        return r * e / (1.0 + e) ** 2

    def grad(x, t):
        e = E(x, t)
        gx = -r * e / (1.0 + e) ** 2
        return np.column_stack([gx, gx])

    def lap(x, t):
        e = E(x, t)
        return 2.0 * r**2 * e * (e - 1.0) / (1.0 + e) ** 3

    return ManufacturedCase(f"traveling_wave_re{int(reynolds)}", u, u_t, grad, lap,
                            homogeneous_bc=False)


@functools.lru_cache(maxsize=16)
def _jacobi_rule(n_nodes, mu):
    """Gauss-Jacobi nodes and weights for the weight (1-z)^(-mu), read-only."""
    z, w = roots_jacobi(n_nodes, -mu, 0.0)
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def _jacobi_convolution(lap, mu, x, t, n_nodes=JACOBI_NODES):
    """int_0^t (t - tau)^(-mu) lap(x, tau) dtau by Gauss-Jacobi in tau.

    The substitution tau = t (z+1)/2 absorbs the endpoint singularity
    into the Jacobi weight (1-z)^(-mu); the rule is spectrally accurate
    in the smooth factor.
    """
    if t <= 0.0:
        return np.zeros(len(x))
    z, w = _jacobi_rule(n_nodes, mu)
    out = np.zeros(len(x))
    for zi, wi in zip(z, w):
        out += wi * lap(x, t * (zi + 1.0) / 2.0)
    return (t / 2.0) ** (1.0 - mu) * out


def forcing(case, params, kernel_spec=None, caputo_order=None):
    """Pointwise forcing of the strong operator for the given exact case.

    f = u_t - nu lap(u) + alpha u^d (u_x + u_y) - beta u(1-u^d)(u^d-gamma)
        - eta int_0^t K(t-s) lap(u)(s) ds  [+ Caputo term].

    The memory convolution uses the Beta-identity closed form for
    separable power-profile cases and a Gauss-Jacobi quadrature
    otherwise; the Caputo term requires a power-family profile.  The
    Caputo order is ``caputo_order``, else ``kernel_spec.caputo_order``
    (ValueError when both are set and differ).
    """
    p = params
    caputo_order = resolve_caputo_order(kernel_spec, caputo_order)
    if p.eta > 0.0 and kernel_spec is None:
        raise ValueError("eta > 0 requires a kernel_spec")
    if p.eta > 0.0 and kernel_spec.kind == "callable":
        raise UnsupportedCaseError("manufactured memory forcing needs a power-law kernel")
    if caputo_order is not None and case.time_profile is None:
        raise UnsupportedCaseError(
            f"case {case.name}: Caputo forcing needs a power-family time profile")

    def f(x, t):
        uval = case.u(x, t)
        g = case.grad(x, t)
        ud = uval ** p.delta
        val = (case.u_t(x, t) - p.nu * case.lap(x, t)
               + p.alpha * ud * (g[:, 0] + g[:, 1])
               - p.beta * uval * (1.0 - ud) * (ud - p.reaction_gamma))
        if p.eta > 0.0:
            if case.time_profile is not None:
                conv = convolve_power(case.time_profile, kernel_spec, t)
                val -= p.eta * conv * case.spatial_lap(x)
            else:
                val -= p.eta * _jacobi_convolution(case.lap, kernel_spec.mu, x, t)
        if caputo_order is not None:
            val += caputo_power(case.time_profile, caputo_order, t) * case.spatial(x)
        return val

    return f


def error_l2(space, u, exact, t, degree=5):
    """L2 norm of u_h - exact(., t) by cell quadrature."""
    rule, B, X = space.volume_quad(degree)
    uh = u[space.cell_dofs] @ B.T
    ue = np.asarray(exact(X.reshape(-1, 2), t), dtype=float).reshape(uh.shape)
    return float(np.sqrt(np.einsum("cq,q,c->", (uh - ue) ** 2, rule.weights,
                                   space.det_jacobians)))


def error_linf_l2(space, traj, case, degree=5):
    """max over time nodes of the L2 error (the reported L-inf-L2 proxy)."""
    return max(error_l2(space, u, case.u, t, degree)
               for u, t in zip(traj.fields, traj.times))


def error_energy(space, traj, case, params, degree=5):
    """Discrete energy-norm error sqrt(dt sum_k |||u_h^k - u(t_k)|||^2).

    The exact gradient is evaluated by quadrature (not interpolated).
    The norm adds ``params.penalty_gamma`` times the space's
    ``penalty_jump_sq`` (DG: the jumps of u_h - u, with the exact trace
    on boundary edges; CR: none).
    """
    dt = float(traj.times[1] - traj.times[0])
    rule, _, X = space.volume_quad(degree)
    Xf = X.reshape(-1, 2)
    det = space.det_jacobians
    total = 0.0
    for k in range(1, len(traj.times)):
        u = traj.fields[k]
        t = float(traj.times[k])
        gh = space.field_gradients(u)                      # (nc, 2)
        ge = case.grad(Xf, t).reshape(X.shape[0], X.shape[1], 2)
        diff = gh[:, None, :] - ge
        total += dt * float(np.einsum("cqd,cqd,q,c->", diff, diff, rule.weights, det))
        total += dt * params.penalty_gamma * space.penalty_jump_sq(u, case.u, t)
    return float(np.sqrt(total))


@dataclass
class StudyRow:
    level: int
    n: int
    h: float
    dt: float
    dofs: int
    err_l2inf: float
    err_energy: float
    rate_l2: float | None
    rate_energy: float | None
    newton_max: int


@dataclass
class StudyResult:
    case: str
    scheme: str
    rows: list
    stability: list = field(default_factory=list)

    def last_energy_rate(self):
        return self.rows[-1].rate_energy

    def last_l2_rate(self):
        return self.rows[-1].rate_l2


def convergence_study(case, scheme, params, *, levels=3, base_n=8, coupling=0.25,
                      t_final=1.0, kernel_spec=None, caputo_order=None,
                      box=(0.0, 0.0, 1.0, 1.0), newton_tol=1e-10, newton_cap=25,
                      linear_solver="gmres"):
    """Refinement study with dt proportional to h (dt = coupling * h).

    Runs ``levels`` meshes obtained by doubling ``base_n`` and reports
    nodal-max L2 and energy-norm errors with rates log2(e_i / e_{i+1}).
    The case's self-consistency gate runs first.  ``linear_solver`` is
    passed to every level's BackwardEulerSolver.  Cases with homogeneous
    Dirichlet data also get each level's ``stability_check`` report.
    """
    if levels < 2:
        raise ValueError("a study needs at least 2 levels")
    if scheme not in SPACES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {sorted(SPACES)}")
    case.self_check(box=box)
    f = forcing(case, params, kernel_spec, caputo_order)
    bc = None if case.homogeneous_bc else case.boundary

    side = max(box[2] - box[0], box[3] - box[1])
    rows, reports = [], []
    for lev in range(levels):
        n = base_n * 2**lev
        h = side / n
        dt = coupling * h
        n_steps = int(round(t_final / dt))
        mesh = generate_rect_mesh(box, n)
        space = SPACES[scheme](mesh)
        grid = TimeGrid(t_final, n_steps)
        solver = BackwardEulerSolver(
            space, params, grid, forcing=f, u0=case.initial, bc=bc,
            kernel_spec=kernel_spec, caputo_order=caputo_order,
            newton_tol=newton_tol, newton_cap=newton_cap, linear_solver=linear_solver)
        traj = solver.run()
        e_l2 = error_linf_l2(space, traj, case)
        e_en = error_energy(space, traj, case, params)
        newton_max = max(r.newton_iters for r in traj.records[1:])
        rate_l2 = rate_en = None
        if rows:
            rate_l2 = float(np.log2(rows[-1].err_l2inf / e_l2))
            rate_en = float(np.log2(rows[-1].err_energy / e_en))
        rows.append(StudyRow(lev, n, h, grid.delta_t, space.n_dofs,
                             e_l2, e_en, rate_l2, rate_en, newton_max))
        if case.homogeneous_bc:
            reports.append(stability_check(traj, space, params, f, case.initial))
    return StudyResult(case.name, scheme, rows, reports)
