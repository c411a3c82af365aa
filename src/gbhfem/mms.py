"""Manufactured solutions, forcing construction and convergence studies.

A manufactured case carries the exact solution and its derivatives; the
forcing is assembled from the strong operator, including the memory
convolution and the optional Caputo term.  Every case passes a
finite-difference self-consistency gate before a study is allowed to run.

A separable case u = P(t) S(x) (``Separable``: a ``kernel.PowerSum``
profile P and the spatial factors S, grad S, lap S) has the forcing
f(x, t) = sum_i a_i(t) Phi_i(x) over five spatial factors
(S, lap S, S^d (S_x + S_y), S^(d+1), S^(2d+1)) and scalars a_i(t) from
the power sums P, P' and P's closed-form memory and Caputo terms, all
built once with the forcing.  The forcing of other cases takes the
memory convolution by a singularity-absorbing Gauss-Jacobi rule whose
nodes go to ``lap`` in one array call.  A planar case (``ManufacturedCase.planar``:
u depends on the points only through x + y, as the traveling wave does)
can be evaluated once per distinct value of x + y.

The forcing and the exact solution are evaluated point by point; the
forcing also for an array of times at once.  Callers that evaluate them
on one fixed point set at many times bind them to it (``f.on(points)``,
``ManufacturedCase.on``).  The bind does the work that
depends on the points alone once: it evaluates the spatial factors, or
picks one representative point per distinct x + y, which has bit-for-bit
the x + y of the points it stands for.  Bound values are bit for bit the
per-point ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi

from .errors import UnsupportedCaseError
from .kernel import PowerSum, resolve_caputo_order
from .mesh import generate_rect_mesh
from .solver import BackwardEulerSolver, TimeGrid, stability_check
from .space_cr import CRSpace
from .space_dg import DGSpace

__all__ = [
    "ManufacturedCase", "Separable", "type_one", "type_two", "traveling_wave",
    "forcing", "error_l2", "error_linf_l2", "error_energy",
    "StudyRow", "StudyResult", "SPACES", "study_level", "convergence_study",
]

JACOBI_NODES = 48
#: Most values (times x nodes x points) that one ``lap`` call of the
#: Gauss-Jacobi rule sees (256 kB per array); more times take several
#: calls.  ``lap`` makes temporaries of its argument's size, so larger
#: calls raise the peak memory.
JACOBI_CHUNK_VALUES = 2**15
#: Triangle quadrature degree of the error norms.
ERROR_QUAD_DEGREE = 5

#: The space class of each scheme.
SPACES = {"cr": CRSpace, "dg": DGSpace}


@dataclass
class ManufacturedCase:
    """Exact solution with evaluable derivatives.

    ``u``, ``u_t``, ``lap`` map ((n, 2) points, t) to (n,) values; ``grad``
    returns (n, 2).  The time t is a float or an array that broadcasts
    against the points: an (n,) array pairs one time with each point, and
    an (m, 1) array gives (m, n) values ((m, n, 2) for ``grad``).

    ``separable`` is the factorization u = P(t) S(x) of a separable case
    (``Separable.case`` builds such a case), enabling closed-form memory
    and Caputo forcing terms; None otherwise.

    ``planar`` declares that ``u`` and its derivatives depend on the
    points only through the float x[:, 0] + x[:, 1].  It is a fact about
    the case, not an option: ``traveling_wave`` sets it and ``self_check``
    verifies it.  The bound forcing of a planar case is evaluated once
    per distinct x + y (see ``forcing``).
    """

    name: str
    u: object
    u_t: object
    grad: object
    lap: object
    homogeneous_bc: bool = True
    separable: Separable | None = None
    planar: bool = field(default=False, init=False)

    def initial(self, x):
        return self.u(x, 0.0)

    def boundary(self, x, t):
        return self.u(x, t)

    def on(self, points):
        """(u(t), grad(t)): ``u`` and ``grad`` bound to the (n, 2) points;
        a separable case evaluates S and grad S here, once."""
        sep = self.separable
        if sep is None:
            return functools.partial(self.u, points), functools.partial(self.grad, points)
        S, gradS = sep.S(points), sep.gradS(points)
        return (lambda t: sep.P(t) * S,
                lambda t: np.asarray(sep.P(t))[..., None] * gradS)

    def self_check(self, box=(0.0, 0.0, 1.0, 1.0)):
        """Finite-difference consistency gate for the stated derivatives.

        At 30 seeded random probes in ``box`` and times in [0.05, 0.95],
        u_t and grad are compared against central differences of u; lap
        against central differences of the stated gradient (a plain
        second difference of u cannot reach the tolerance in double
        precision for steep fronts).  Errors are relative to |value| + 1
        and must not exceed 1e-6.  Raises on failure.
        """
        n_probes, tol = 30, 1e-6
        rng = np.random.default_rng(0)
        xmin, ymin, xmax, ymax = box
        margin = 1e-3 * min(xmax - xmin, ymax - ymin)
        x = np.column_stack([
            rng.uniform(xmin + margin, xmax - margin, n_probes),
            rng.uniform(ymin + margin, ymax - margin, n_probes),
        ])
        t = rng.uniform(0.05, 0.95, n_probes)

        def check(name, exact, approx, against="finite differences"):
            err = np.max(np.abs(exact - approx) / (np.abs(exact) + 1.0))
            if not err <= tol:
                raise ValueError(
                    f"case {self.name}: {name} disagrees with {against} "
                    f"(relative error {err:.3e})")

        def u_at(dx, dy, dt):
            return self.u(x + [dx, dy], t + dt)

        def grad_at(dx, dy):
            return self.grad(x + [dx, dy], t)

        h = 1e-6
        check("u_t", self.u_t(x, t), (u_at(0, 0, h) - u_at(0, 0, -h)) / (2 * h))
        g = self.grad(x, t)
        check("du/dx", g[:, 0], (u_at(h, 0, 0) - u_at(-h, 0, 0)) / (2 * h))
        check("du/dy", g[:, 1], (u_at(0, h, 0) - u_at(0, -h, 0)) / (2 * h))
        fd_lap = ((grad_at(h, 0)[:, 0] - grad_at(-h, 0)[:, 0])
                  + (grad_at(0, h)[:, 1] - grad_at(0, -h)[:, 1])) / (2 * h)
        check("laplacian", self.lap(x, t), fd_lap)
        if self.planar:
            d = 0.1 * min(xmax - xmin, ymax - ymin)
            both = np.vstack([x, x + [d, -d]])
            for name in ("u", "u_t", "grad", "lap"):
                v = getattr(self, name)(both, 0.5)
                check(name, v[:n_probes], v[n_probes:], "its value at (x + d, y - d) "
                      "although the case is declared planar")
        return True


@dataclass(frozen=True)
class Separable:
    """u = P(t) S(x): a ``PowerSum`` profile P and the spatial factors S,
    grad S and lap S, functions of the (n, 2) points alone."""

    P: PowerSum
    S: object
    gradS: object
    lapS: object

    def case(self, name, homogeneous_bc=True):
        """The ``ManufacturedCase`` of this factorization."""
        P, dP, S, gradS, lapS = self.P, self.P.derivative(), self.S, self.gradS, self.lapS
        return ManufacturedCase(
            name, lambda x, t: P(t) * S(x), lambda x, t: dP(t) * S(x),
            lambda x, t: np.asarray(P(t))[..., None] * gradS(x),
            lambda x, t: P(t) * lapS(x), homogeneous_bc, separable=self)


def _sine_mode(m, profile, name):
    """The separable case u = P(t) sin(m pi x) sin(m pi y), P = ``profile``."""
    k = m * np.pi

    def S(x):
        return np.sin(k * x[:, 0]) * np.sin(k * x[:, 1])

    def gradS(x):
        return k * np.column_stack([
            np.cos(k * x[:, 0]) * np.sin(k * x[:, 1]),
            np.sin(k * x[:, 0]) * np.cos(k * x[:, 1]),
        ])

    def lapS(x):
        return -2.0 * k**2 * S(x)

    return Separable(profile, S, gradS, lapS).case(name)


def type_one():
    """u = (t^3 - t^2 + 1) sin(pi x) sin(pi y)."""
    return _sine_mode(1, PowerSum([(1.0, 3.0), (-1.0, 2.0), (1.0, 0.0)]), "type1")


def type_two():
    """u = t^(3/2) sin(2 pi x) sin(2 pi y)."""
    return _sine_mode(2, PowerSum([(1.0, 1.5)]), "type2")


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
        return np.stack([gx, gx], axis=-1)

    def lap(x, t):
        e = E(x, t)
        return 2.0 * r**2 * e * (e - 1.0) / (1.0 + e) ** 3

    case = ManufacturedCase(f"traveling_wave_re{int(reynolds)}", u, u_t, grad, lap,
                            homogeneous_bc=False)
    case.planar = True
    return case


def _planar_reduction(x):
    """(representative points, inverse) of the distinct values of x + y.

    ``reps[inv]`` has, row by row, bit-for-bit the same x + y as x.
    """
    _, idx, inv = np.unique(x[:, 0] + x[:, 1], return_index=True, return_inverse=True)
    return x[idx], inv


@functools.lru_cache(maxsize=16)
def _jacobi_rule(mu):
    """Gauss-Jacobi nodes and weights for the weight (1-z)^(-mu), read-only."""
    z, w = roots_jacobi(JACOBI_NODES, -mu, 0.0)
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def _jacobi_convolution(lap, mu, x, t):
    """int_0^t (t - tau)^(-mu) lap(x, tau) dtau by Gauss-Jacobi in tau.

    The substitution tau = t (z+1)/2 absorbs the endpoint singularity
    into the Jacobi weight (1-z)^(-mu); the rule is spectrally accurate
    in the smooth factor.  ``t`` is a float or an (m,) array of times
    ((n,) or (m, n) values); times t <= 0 give zero.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (len(x),))
    positive = t > 0.0
    if not positive.any():
        return out
    z, w = _jacobi_rule(mu)
    tp = t[positive]
    # one lap call for all nodes of as many times as JACOBI_CHUNK_VALUES
    # allows; the sum over the node axis adds them in node order, bit for
    # bit as a loop over the nodes would (w @ L would not), and each
    # time's scale is the float power
    per_call = max(1, JACOBI_CHUNK_VALUES // (JACOBI_NODES * len(x)))
    sums = []
    for i in range(0, len(tp), per_call):
        L = lap(x, (tp[i : i + per_call, None] * (z + 1.0) / 2.0)[..., None])
        sums.append((w[:, None] * L).sum(axis=-2))
    scale = np.array([(s / 2.0) ** (1.0 - mu) for s in tp.tolist()])
    out[positive] = scale[:, None] * np.concatenate(sums)
    return out


def _separable_forcing(case, p, kernel_spec, caputo_order):
    """f = sum_i a_i(t) Phi_i(x) for a separable case u = P(t) S(x).

    With u^d = P^d S^d the strong operator expands over the spatial
    factors S, lap S, S^d (S_x + S_y), S^(d+1) and S^(2d+1); the reaction
    -beta u (1 - u^d)(u^d - gamma) gives beta gamma P S
    - beta (1 + gamma) P^(d+1) S^(d+1) + beta P^(2d+1) S^(2d+1).
    """
    d, gamma = p.delta, p.reaction_gamma
    sep = case.separable
    P, dP = sep.P, sep.P.derivative()
    memory = P.convolved(kernel_spec.mu) if p.eta > 0.0 else None
    caputo = None if caputo_order is None else P.caputo(caputo_order)

    def factors(x):
        S, gS, lS = sep.S(x), sep.gradS(x), sep.lapS(x)
        Sd = S**d
        return np.stack([S, lS, Sd * (gS[:, 0] + gS[:, 1]), Sd * S, Sd * Sd * S])

    def scalars(t):
        """The (m, 5) scalars a_i of the (m,) times t."""
        Pt = P(t)
        a_S = dP(t) + p.beta * gamma * Pt
        a_lap = -p.nu * Pt
        if memory is not None:
            a_lap -= p.eta * memory(t)
        if caputo is not None:
            a_S += caputo(t)
        Pd1 = Pt ** (d + 1)
        return np.stack([a_S, a_lap, p.alpha * Pd1, -p.beta * (1.0 + gamma) * Pd1,
                         p.beta * Pt ** (2 * d + 1)], axis=1)

    # a float time is the one-row case of an array of times, so each row
    # of a batch is bit for bit the value at its time; einsum sums in
    # numpy's own fixed order, where a BLAS product (a @ Phi) would give
    # bits that depend on its thread count
    def at(Phi, t):
        t = np.asarray(t, dtype=float)
        vals = np.einsum("mi,ij->mj", scalars(t.reshape(-1)), Phi)
        return vals.reshape(t.shape + Phi.shape[1:])

    def f(x, t):
        return at(factors(x), t)

    def on(points):
        return functools.partial(at, factors(points))

    f.on = on
    return f


def forcing(case, params, kernel_spec=None, caputo_order=None):
    """Pointwise forcing of the strong operator for the given exact case.

    f = u_t - nu lap(u) + alpha u^d (u_x + u_y) - beta u(1-u^d)(u^d-gamma)
        - eta int_0^t K(t-s) lap(u)(s) ds  [+ Caputo term].

    ``f(x, t)`` takes (n, 2) points and a float time, giving (n,) values,
    or an (m,) array of times, giving (m, n) values whose rows are bit for
    bit those of each time alone.  A separable case (``case.separable``
    set) gets f = sum_i a_i(t) Phi_i(x): five spatial factors weighted by
    scalars from the power sums of its profile, its derivative and the
    closed-form memory and Caputo terms, built here, once.  Other cases are
    evaluated point by point, with the memory convolution by a
    Gauss-Jacobi rule (``lap`` called once for all nodes of many times);
    the Caputo term requires a separable case.  The Caputo order is
    ``caputo_order``, else ``kernel_spec.caputo_order`` (ValueError when
    both are set and differ).

    ``f.on(points)`` returns g(t), f bound to fixed (n, 2) points: bit for
    bit ``f(points, t)`` for a float or an array t, with the separable
    factors or the planar reduction done once, in the bind.
    """
    p = params
    caputo_order = resolve_caputo_order(kernel_spec, caputo_order)
    if p.eta > 0.0 and kernel_spec is None:
        raise ValueError("eta > 0 requires a kernel_spec")
    if case.separable is not None:
        return _separable_forcing(case, p, kernel_spec, caputo_order)
    if caputo_order is not None:
        raise UnsupportedCaseError(
            f"case {case.name}: Caputo forcing needs a power-family time profile")

    def f(x, t):
        t = np.asarray(t, dtype=float)
        tc = t[:, None] if t.ndim else t        # (m, 1) times give (m, n) values
        uval = case.u(x, tc)
        g = case.grad(x, tc)
        ud = uval ** p.delta
        val = (case.u_t(x, tc) - p.nu * case.lap(x, tc)
               + p.alpha * ud * (g[..., 0] + g[..., 1])
               - p.beta * uval * (1.0 - ud) * (ud - p.reaction_gamma))
        if p.eta > 0.0:
            val -= p.eta * _jacobi_convolution(case.lap, kernel_spec.mu, x, t)
        return val

    def on(points):
        if not case.planar:
            return functools.partial(f, points)
        reps, inv = _planar_reduction(points)
        return lambda t: f(reps, t)[..., inv]

    f.on = on
    return f


def _l2_error(space, u, ue):
    """L2 norm of u_h - ue, ue the exact values at the error quadrature points."""
    rule, B, _ = space.volume_quad(ERROR_QUAD_DEGREE)
    uh = u[space.cell_dofs] @ B.T
    ue = np.asarray(ue, dtype=float).reshape(uh.shape)
    return float(np.sqrt(np.einsum("cq,q,c->", (uh - ue) ** 2, rule.weights,
                                   space.det_jacobians)))


def error_l2(space, u, exact, t):
    """L2 norm of u_h - exact(., t) by cell quadrature."""
    X = space.volume_quad(ERROR_QUAD_DEGREE)[2]
    return _l2_error(space, u, exact(X.reshape(-1, 2), t))


def error_linf_l2(space, traj, case):
    """max over time nodes of the L2 error (the reported L-inf-L2 proxy)."""
    X = space.volume_quad(ERROR_QUAD_DEGREE)[2]
    exact, _ = case.on(X.reshape(-1, 2))
    return max(_l2_error(space, u, exact(t)) for u, t in zip(traj.fields, traj.times))


def error_energy(space, traj, case, params):
    """Discrete energy-norm error sqrt(dt sum_k |||u_h^k - u(t_k)|||^2).

    The exact gradient is evaluated by quadrature (not interpolated).
    The norm adds ``params.penalty_gamma`` times the space's
    ``penalty_jump_sq`` (DG: the jumps of u_h - u, with the exact trace
    on boundary edges; CR: none).
    """
    dt = float(traj.times[1] - traj.times[0])
    rule, _, X = space.volume_quad(ERROR_QUAD_DEGREE)
    _, grad = case.on(X.reshape(-1, 2))
    det = space.det_jacobians
    total = 0.0
    for k in range(1, len(traj.times)):
        u = traj.fields[k]
        t = float(traj.times[k])
        gh = space.field_gradients(u)                      # (nc, 2)
        ge = grad(t).reshape(X.shape[0], X.shape[1], 2)
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


def study_level(level, box, base_n, coupling, t_final):
    """(n, h, n_steps) of a convergence study's level: the n = base_n 2^level
    mesh of the box and round(t_final / dt) steps of dt = coupling * h."""
    n = base_n * 2**level
    h = max(box[2] - box[0], box[3] - box[1]) / n
    dt = coupling * h
    n_steps = int(round(t_final / dt))
    if n_steps < 1:
        raise ValueError(f"t_final = {t_final!r} gives level {level} no time step "
                         f"of dt = {dt!r}")
    return n, h, n_steps


def convergence_study(case, scheme, params, *, levels=3, base_n=8, coupling=0.25,
                      t_final=1.0, kernel_spec=None, caputo_order=None,
                      box=(0.0, 0.0, 1.0, 1.0), newton_tol=1e-10, newton_cap=25):
    """Refinement study with dt proportional to h (dt = coupling * h).

    Runs ``levels`` meshes obtained by doubling ``base_n`` and reports
    nodal-max L2 and energy-norm errors with rates log2(e_i / e_{i+1}).
    The case's self-consistency gate runs first.  Every level's
    BackwardEulerSolver solves its Newton corrections by preconditioned
    GMRES with the direct LU as fallback (``linalg.solve``).  Cases with
    homogeneous Dirichlet data also get each level's ``stability_check``
    report.
    """
    if levels < 2:
        raise ValueError("a study needs at least 2 levels")
    if scheme not in SPACES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {sorted(SPACES)}")
    sizes = [study_level(lev, box, base_n, coupling, t_final) for lev in range(levels)]
    case.self_check(box=box)
    f = forcing(case, params, kernel_spec, caputo_order)
    bc = None if case.homogeneous_bc else case.boundary

    rows, reports = [], []
    for lev, (n, h, n_steps) in enumerate(sizes):
        mesh = generate_rect_mesh(box, n)
        space = SPACES[scheme](mesh)
        grid = TimeGrid(t_final, n_steps)
        solver = BackwardEulerSolver(
            space, params, grid, forcing=f, u0=case.initial, bc=bc,
            kernel_spec=kernel_spec, caputo_order=caputo_order,
            newton_tol=newton_tol, newton_cap=newton_cap)
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
