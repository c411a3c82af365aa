"""Acceptance suite: one test per criterion, one printed PASS line each.

The convergence studies dominate the runtime (several minutes in total);
they are shared across criteria through session-scoped fixtures.
"""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import gbhfem.mms as mms
from gbhfem.forms import ModelParams, assemble_mass, assemble_stiffness_cr
from gbhfem.kernel import KernelSpec, memory_weights
from gbhfem.mesh import generate_rect_mesh
from gbhfem.solver import BackwardEulerSolver, TimeGrid
from gbhfem.space_cr import CRSpace
from gbhfem.space_dg import DGSpace

UNIT = (0.0, 0.0, 1.0, 1.0)
SQRT_KERNEL = KernelSpec(kind="power", mu=0.5)
PARAMS_31 = dict(nu=1.0, alpha=1.0, beta=1.0, reaction_gamma=0.5, delta=1)


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def c1_study():
    params = ModelParams(eta=1.0, **PARAMS_31)
    return mms.convergence_study(mms.type_one(), "cr", params, levels=4,
                                 base_n=8, coupling=0.25, kernel_spec=SQRT_KERNEL)


@pytest.fixture(scope="session")
def c2_study():
    params = ModelParams(eta=1.0, penalty_gamma=40.0, **PARAMS_31)
    return mms.convergence_study(mms.type_one(), "dg", params, levels=4,
                                 base_n=8, coupling=0.25, kernel_spec=SQRT_KERNEL)


@pytest.fixture(scope="session")
def c3_studies():
    params = ModelParams(eta=1.0, **PARAMS_31)
    case = mms.type_two()
    return {
        scheme: mms.convergence_study(case, scheme, params, levels=3, base_n=8,
                                      coupling=0.25, kernel_spec=SQRT_KERNEL)
        for scheme in ("cr", "dg")
    }


@pytest.fixture(scope="session")
def c4_studies():
    spec = KernelSpec(kind="power", mu=0.5, caputo_order=0.5)
    params = ModelParams(eta=1.0, **PARAMS_31)
    case = mms.type_one()
    return {
        scheme: mms.convergence_study(case, scheme, params, levels=3, base_n=8,
                                      coupling=0.25, kernel_spec=spec,
                                      caputo_order=0.5)
        for scheme in ("cr", "dg")
    }


def fmt_rows(rows):
    return "; ".join(
        f"n={r.n} eE={r.err_energy:.4f}"
        + (f" rate={r.rate_energy:.3f}" if r.rate_energy is not None else "")
        for r in rows)


def test_criterion_01_cr_memory_rate(c1_study):
    rate = c1_study.rows[-1].rate_energy
    report(1, rate >= 0.9,
           f"Type I CR with sqrt kernel, dt=h/4: finest energy rate {rate:.3f} "
           f"(>= 0.9) [{fmt_rows(c1_study.rows)}]")


def test_criterion_02_dg_memory_rate(c2_study):
    rate = c2_study.rows[-1].rate_energy
    l2rate = c2_study.rows[-1].rate_l2
    if l2rate < 1.5:
        print(f"[criterion  2] WARNING (soft): L-inf-L2 rate {l2rate:.3f} < 1.5")
    report(2, rate >= 0.9,
           f"Type I DG (penalty 40): finest energy rate {rate:.3f} (>= 0.9), "
           f"L2 rate {l2rate:.3f} (soft 1.5) [{fmt_rows(c2_study.rows)}]")


def test_criterion_03_type_two_rates(c3_studies):
    rates = {s: r.rows[-1].rate_energy for s, r in c3_studies.items()}
    report(3, all(r >= 0.9 for r in rates.values()),
           "Type II energy rates despite t^(3/2) time regularity: "
           + ", ".join(f"{s}={r:.3f}" for s, r in rates.items()) + " (>= 0.9)")


def test_criterion_04_caputo_rates(c4_studies):
    rates = {s: r.rows[-1].rate_energy for s, r in c4_studies.items()}
    report(4, all(r >= 0.9 for r in rates.values()),
           "Caputo(1/2) + sqrt kernel, Type I energy rates: "
           + ", ".join(f"{s}={r:.3f}" for s, r in rates.items()) + " (>= 0.9)")


def test_criterion_05_newton_economy(c1_study):
    worst = max(r.newton_max for r in c1_study.rows)
    report(5, worst <= 3,
           f"criterion 1 runs: max Newton iterations per step = {worst} "
           f"(<= 3 at tolerance 1e-10)")


@pytest.fixture(scope="session")
def c6_studies():
    out = {}
    for re_num, base_n in ((50, 8), (100, 16)):
        case = mms.traveling_wave(re_num)
        for eta in (0.0, 1.0):
            params = ModelParams(nu=1.0 / re_num, eta=eta, **{
                k: v for k, v in PARAMS_31.items() if k != "nu"})
            out[(re_num, eta)] = mms.convergence_study(
                case, "cr", params, levels=3, base_n=base_n, coupling=0.25,
                kernel_spec=SQRT_KERNEL if eta else None)
    return out


def test_criterion_06_traveling_wave(c6_studies):
    rates = {k: s.rows[-1].rate_energy for k, s in c6_studies.items()}
    detail = ", ".join(f"Re={k[0]} eta={k[1]:g}: {r:.3f}" for k, r in rates.items())
    report(6, all(r >= 0.85 for r in rates.values()),
           f"traveling wave energy rates over 3 levels: {detail} (>= 0.85)")


def test_criterion_07_skew_symmetry():
    rng = np.random.default_rng(2024)
    params = ModelParams(**{**PARAMS_31, "beta": 0.0})          # convection alone
    worst = 0.0
    for n in (2, 4, 8):
        mesh = generate_rect_mesh(UNIT, n)
        cr, dg = CRSpace(mesh), DGSpace(mesh)
        for _ in range(100):
            u = rng.uniform(-1.0, 1.0, cr.n_dofs)
            res = cr.nonlinear_residual(u, params, None)
            worst = max(worst, abs(float(u @ res)))
            v = rng.uniform(-1.0, 1.0, dg.n_dofs)
            resd = dg.nonlinear_residual(v, params, None)
            worst = max(worst, abs(float(v @ resd)))
    report(7, worst <= 1e-10,
           f"b(u;u,u) over 100 random fields on n in {{2,4,8}}, both schemes: "
           f"max |value| = {worst:.2e} (<= 1e-10)")


def oracle_lag_weight(mu, dt, m):
    def inner(t):
        if m == 0:
            val, _ = quad(lambda s: 1.0, 0.0, t, weight="alg", wvar=(-mu, 0.0),
                          epsabs=1e-14, epsrel=1e-13)
            return val
        lo = (m - 1) * dt + (t - m * dt)
        hi = m * dt + (t - m * dt)
        val, _ = quad(lambda s: s**-mu if mu else 1.0, lo, hi,
                      epsabs=1e-14, epsrel=1e-13)
        return val

    val, _ = quad(inner, m * dt, (m + 1) * dt, epsabs=1e-15, epsrel=1e-12,
                  limit=200)
    return val / dt**2


def test_criterion_08_weight_oracle():
    worst = 0.0
    for mu in (0.0, 0.25, 0.5, 0.75):
        for dt in (0.1, 0.01):
            w = memory_weights(KernelSpec(kind="power", mu=mu), dt, 20)
            assert np.all(w.lag_weights >= 0.0)
            dense = w.dense()
            lag_oracle = [oracle_lag_weight(mu, dt, m) for m in range(20)]
            for k in range(1, 21):
                for j in range(1, k + 1):
                    o = lag_oracle[k - j]
                    worst = max(worst, abs(dense[k - 1, j - 1] - o) / abs(o))
    w0 = memory_weights(KernelSpec(kind="power", mu=0.0), 0.1, 3)
    wh = memory_weights(KernelSpec(kind="power", mu=0.5), 0.1, 3)
    closed = (abs(w0.diagonal - 0.5) < 1e-14
              and abs(wh.diagonal - (4.0 / 3.0) * 0.1**-0.5) < 1e-11)
    report(8, worst <= 1e-9 and closed,
           f"omega_kj vs adaptive double-integration oracle, mu in "
           f"{{0,.25,.5,.75}}, dt in {{0.1,0.01}}, N=20: max rel err {worst:.2e} "
           f"(<= 1e-9); closed forms 1/2 and (4/3)dt^-1/2 verified; all >= 0")


def test_criterion_09_jacobians_vs_central_differences():
    rng = np.random.default_rng(99)
    mesh = generate_rect_mesh(UNIT, 4)
    space = CRSpace(mesh)
    params = ModelParams(eta=1.0, **PARAMS_31)
    dt = 1.0 / 16.0
    weights = memory_weights(SQRT_KERNEL, dt, 16)
    M = assemble_mass(space)
    A = assemble_stiffness_cr(space)
    u = space.interpolate(lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    u_prev = 0.9 * u
    lin = (M / dt + (params.nu + params.eta * dt * weights.diagonal) * A).tocsr()

    def jacobian(p):
        data = space.add_nonlinear_jacobian(np.zeros(space.pattern.nnz), u, p, None)
        return space.pattern.matrix(data)

    def newton_residual(v):
        return lin @ v - (M / dt) @ u_prev + space.nonlinear_residual(v, params, None)

    J_full = (lin + jacobian(params)).tocsr()
    # convection alone, and (minus) reaction alone
    alone = [(p, jacobian(p)) for p in (dataclasses.replace(params, beta=0.0),
                                        dataclasses.replace(params, alpha=0.0))]
    eps = 1e-6
    worst = 0.0
    for _ in range(10):
        w = rng.standard_normal(space.n_dofs)
        for p, J in alone:
            rp = space.nonlinear_residual(u + eps * w, p, None)
            rm = space.nonlinear_residual(u - eps * w, p, None)
            Jw = J @ w
            worst = max(worst, np.linalg.norm((rp - rm) / (2 * eps) - Jw) / np.linalg.norm(Jw))
        # combined Newton matrix
        fd = (newton_residual(u + eps * w) - newton_residual(u - eps * w)) / (2 * eps)
        err = np.linalg.norm(fd - J_full @ w) / np.linalg.norm(J_full @ w)
        worst = max(worst, err)
    report(9, worst <= 1e-5,
           f"analytic Jacobians (convection, reaction, full Newton matrix) vs "
           f"central differences in 10 random directions: max rel err {worst:.2e} "
           f"(<= 1e-5)")


def test_criterion_10_stability_estimate(c1_study, c2_study, c3_studies, c4_studies):
    reports = list(c1_study.stability) + list(c2_study.stability)
    for st in list(c3_studies.values()) + list(c4_studies.values()):
        reports.extend(st.stability)
    ok = all(r.holds for r in reports)
    margins = [r.rhs / r.lhs for r in reports]
    sample = reports[0]
    report(10, ok and len(reports) >= 10,
           f"energy stability estimate holds for all {len(reports)} "
           f"homogeneous-BC acceptance runs; e.g. lhs {sample.lhs:.4f} <= "
           f"rhs {sample.rhs:.4f}; min margin factor {min(margins):.1f}")


def test_criterion_11_dg_coercivity():
    rng = np.random.default_rng(7)
    minima = []
    for n in (4, 8, 16):
        space = DGSpace(generate_rect_mesh(UNIT, n))
        _, A, N = space.diffusion_matrices(40.0)
        ratios = np.empty(1000)
        for i in range(1000):
            v = rng.standard_normal(space.n_dofs)
            ratios[i] = float(v @ (A @ v)) / float(v @ (N @ v))
        minima.append(ratios.min())
    no_degrade = all(minima[i + 1] >= 0.5 * minima[i] for i in range(2))
    report(11, min(minima) >= 0.05 and no_degrade,
           f"a_DG coercivity over 1000 random fields, n in {{4,8,16}}: minima "
           f"{[f'{m:.3f}' for m in minima]} (>= 0.05, no 2x degradation)")


def test_criterion_12_fhn_spiral_smoke():
    mesh = generate_rect_mesh((0.0, 0.0, 300.0, 300.0), 64)
    space = DGSpace(mesh)
    params = ModelParams(nu=4.0, alpha=0.1, beta=1.0, reaction_gamma=0.25,
                         delta=1, eta=0.01)
    u0 = lambda x: np.where(x[:, 1] >= 150.0, 1.0, 0.0)
    v0 = lambda x: np.where(x[:, 0] >= 150.0, 0.4, 0.0)
    solver = BackwardEulerSolver(
        space, params, TimeGrid(150.0, 150), forcing=None, u0=u0, v0=v0,
        fhn=(0.005, 1.0), kernel_spec=SQRT_KERNEL)
    traj = solver.run()
    umax = max(float(np.abs(f).max()) for f in traj.fields)
    variance = float(traj.fields[-1].var())
    report(12, umax <= 2.0 and variance > 1e-4,
           f"FHN spiral run (64x64 cells, eps=0.005, rho=1, eta=0.01) reached "
           f"t=150: max|u| = {umax:.3f} (<= 2), final variance = {variance:.2e} "
           f"(> 1e-4)")
