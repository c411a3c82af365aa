import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import gbhfem.forms as forms
import gbhfem.linalg as linalg
import gbhfem.mms as mms
import gbhfem.solver as solver
from gbhfem.errors import StepFailureError
from gbhfem.forms import ModelParams
from gbhfem.kernel import HISTORY_BLOCK, KernelSpec, PowerSum
from gbhfem.mesh import generate_rect_mesh
from gbhfem.solver import (BackwardEulerSolver, TimeGrid, fhn_v_update,
                           stability_check)
from gbhfem.space_cr import CRSpace
from gbhfem.space_dg import DGSpace
from test_assembly_oracle import ref_nonlinear

UNIT = (0.0, 0.0, 1.0, 1.0)


class DirectLU(BackwardEulerSolver):
    """Reference solver: every Newton correction by a direct LU of its matrix."""

    def _linear_solve(self, J, F, stats, forcing):
        return linalg.solve(J, F)


def count_factors(monkeypatch, option=None):
    """List that records each SuperLU factorization as its function's name
    ("splu" exact, "spilu" incomplete), or as (name, the ``option`` keyword
    it was given)."""
    calls = []
    for name in ("splu", "spilu"):
        def counting(*args, _name=name, _factor=getattr(linalg.spla, name), **kwargs):
            calls.append(_name if option is None else (_name, kwargs.get(option)))
            return _factor(*args, **kwargs)
        monkeypatch.setattr(linalg.spla, name, counting)
    return calls


def test_time_grid():
    grid = TimeGrid(2.0, 8)
    assert grid.delta_t == 0.25
    assert len(grid.times) == 9
    assert np.all(np.diff(grid.times) > 0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


@pytest.mark.parametrize("scheme", ["cr", "dg"])
def test_zero_data_zero_trajectory(scheme):
    mesh = generate_rect_mesh(UNIT, 4)
    space = CRSpace(mesh) if scheme == "cr" else DGSpace(mesh)
    params = ModelParams(eta=1.0)
    s = BackwardEulerSolver(space, params, TimeGrid(1.0, 5),
                            kernel_spec=KernelSpec(mu=0.5))
    traj = s.run()
    assert len(traj.fields) == 6
    assert max(np.abs(f).max() for f in traj.fields) == 0.0
    assert all(r.newton_iters == 1 for r in traj.records[1:])


def test_heat_mode_single_newton_iteration():
    # alpha = beta = eta = 0 is linear: exactly one iteration per step
    mesh = generate_rect_mesh(UNIT, 4)
    space = CRSpace(mesh)
    params = ModelParams(alpha=0.0, beta=0.0)
    case = mms.type_one()
    f = mms.forcing(case, params)
    s = BackwardEulerSolver(space, params, TimeGrid(1.0, 8), forcing=f,
                            u0=case.initial)
    traj = s.run()
    assert all(r.newton_iters == 1 for r in traj.records[1:])


def test_full_model_newton_economy_small():
    mesh = generate_rect_mesh(UNIT, 8)
    space = CRSpace(mesh)
    params = ModelParams(eta=1.0)
    spec = KernelSpec(mu=0.5)
    case = mms.type_one()
    f = mms.forcing(case, params, spec)
    s = BackwardEulerSolver(space, params, TimeGrid(1.0, 32), forcing=f,
                            u0=case.initial, kernel_spec=spec)
    traj = s.run()
    assert max(r.newton_iters for r in traj.records[1:]) <= 3
    times = [r.time for r in traj.records]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_memory_off_is_bitwise_identical():
    mesh = generate_rect_mesh(UNIT, 4)
    params = ModelParams(eta=0.0)
    case = mms.type_one()
    f = mms.forcing(case, params)
    runs = []
    for spec in (None, KernelSpec(mu=0.5)):
        space = CRSpace(mesh)
        s = BackwardEulerSolver(space, params, TimeGrid(1.0, 6), forcing=f,
                                u0=case.initial, kernel_spec=spec)
        runs.append(s.run())
        assert s.weights is None  # weights never built when eta = 0
    for a, b in zip(runs[0].fields, runs[1].fields):
        assert np.array_equal(a, b)


def test_eta_required_kernel():
    mesh = generate_rect_mesh(UNIT, 2)
    with pytest.raises(ValueError):
        BackwardEulerSolver(CRSpace(mesh), ModelParams(eta=1.0), TimeGrid(1.0, 2))


def test_caputo_order_taken_from_kernel_spec():
    space = CRSpace(generate_rect_mesh(UNIT, 4))
    case = mms.type_one()
    params = ModelParams(eta=1.0)
    f = mms.forcing(case, params, KernelSpec(mu=0.5), caputo_order=0.5)

    def fields(spec, caputo_order=None):
        s = BackwardEulerSolver(space, params, TimeGrid(1.0, 4), forcing=f, u0=case.initial,
                                kernel_spec=spec, caputo_order=caputo_order)
        return s.run().fields

    spec_only = fields(KernelSpec(mu=0.5, caputo_order=0.5))
    arg_only = fields(KernelSpec(mu=0.5), 0.5)
    both = fields(KernelSpec(mu=0.5, caputo_order=0.5), 0.5)
    without = fields(KernelSpec(mu=0.5))
    assert all(np.array_equal(a, b) for a, b in zip(spec_only, arg_only))
    assert all(np.array_equal(a, b) for a, b in zip(spec_only, both))
    assert not np.allclose(spec_only[-1], without[-1])
    with pytest.raises(ValueError, match="caputo_order"):
        BackwardEulerSolver(space, params, TimeGrid(1.0, 4),
                            kernel_spec=KernelSpec(mu=0.5, caputo_order=0.5), caputo_order=0.25)


def test_caputo_temporal_order():
    # linear-in-space manufactured solution: spatial error vanishes in the
    # CR space, leaving the O(dt) time discretization error
    mu = 0.5
    caputo = PowerSum([(1.0, 2.0), (1.0, 0.0)]).caputo(mu)     # of g(t) = t^2 + 1

    def exact(x, t):
        return (t**2 + 1.0) * (x[:, 0] + x[:, 1])

    def f(x, t):
        gdot = 2.0 * t
        gcap = caputo(t)
        return (gdot + gcap) * (x[:, 0] + x[:, 1])

    params = ModelParams(alpha=0.0, beta=0.0, eta=0.0)
    mesh = generate_rect_mesh(UNIT, 4)
    errs = []
    for n in (8, 16, 32):
        space = CRSpace(mesh)
        s = BackwardEulerSolver(
            space, params, TimeGrid(1.0, n), forcing=f,
            u0=lambda x: exact(x, 0.0), bc=exact, caputo_order=mu)
        traj = s.run()
        errs.append(mms.error_l2(space, traj.fields[-1], exact, 1.0))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9


def test_newton_quadratic_phase():
    # strong reaction and a large step force several iterations; the final
    # ones contract quadratically
    mesh = generate_rect_mesh(UNIT, 4)
    space = CRSpace(mesh)
    params = ModelParams(beta=5.0)
    u0 = lambda x: 2.0 * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    s = BackwardEulerSolver(space, params, TimeGrid(1.0, 2), forcing=None, u0=u0)
    traj = s.run()
    hist = traj.records[1].residual_history
    assert len(hist) >= 4
    r_prev, r_last = hist[-2], hist[-1]
    if r_prev > 1e-13:
        assert r_last <= 0.2 * r_prev
        assert r_last / r_prev**2 < 1e6


def test_step_failure_carries_context():
    mesh = generate_rect_mesh(UNIT, 4)
    space = CRSpace(mesh)
    params = ModelParams(beta=10.0)
    u0 = lambda x: 2.0 * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    s = BackwardEulerSolver(space, params, TimeGrid(2.0, 2), forcing=None,
                            u0=u0, newton_cap=1)
    with pytest.raises(StepFailureError) as info:
        s.run()
    assert info.value.step == 1
    assert info.value.residual > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # overflow on purpose
@pytest.mark.parametrize("make_solver", [BackwardEulerSolver, DirectLU], ids=["gmres", "lu"])
@pytest.mark.parametrize("make_space", [CRSpace, DGSpace])
@pytest.mark.parametrize("bad", ["huge_initial_value", "nan_forcing"])
def test_non_finite_residual_fails_before_any_solve(bad, make_space, make_solver,
                                                    monkeypatch):
    solves = []
    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    space = make_space(generate_rect_mesh(UNIT, 4))
    params = ModelParams(nu=0.01, alpha=5, beta=50, delta=2)
    if bad == "huge_initial_value":
        data = dict(u0=lambda x: np.full(len(x), 1e100))
    else:
        data = dict(forcing=lambda x, t: np.full(len(x), np.nan))
    s = make_solver(space, params, TimeGrid(10.0, 1), **data)
    with pytest.raises(StepFailureError, match="step 1: residual is not finite") as info:
        s.run()
    assert info.value.step == 1 and info.value.iterations == 0
    assert not np.isfinite(info.value.residual)
    assert solves == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # ||F||^2 overflows on purpose
@pytest.mark.parametrize("make_space", [CRSpace, DGSpace])
def test_huge_finite_residual_is_reported_finite(make_space):
    # ||F||^2 overflows, but ||F|| itself is a double; the one correction
    # allowed leaves a rounding-level residual (about 1e-16 ||F||), so the
    # step fails at the iteration cap with a finite norm
    space = make_space(generate_rect_mesh(UNIT, 2))
    s = DirectLU(space, ModelParams(alpha=0.0, beta=0.0), TimeGrid(1.0, 1),
                 forcing=lambda x, t: np.full(len(x), 1e200), newton_cap=1)
    with pytest.raises(StepFailureError, match=r"residual \d\.\d{3}e\+\d+ after 1 ") as info:
        s.run()
    assert np.isfinite(info.value.residual) and info.value.residual > 1e150


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # ||F||^2 overflows on purpose
def test_huge_forcing_krylov_reduces_residual_as_far_as_lu():
    # the solve tolerance 1e-10 (1 + ||F||) stays finite, so GMRES cannot
    # accept x = 0 for a residual whose squares overflow
    residual = {}
    for name, make_solver in (("gmres", BackwardEulerSolver), ("lu", DirectLU)):
        s = make_solver(CRSpace(generate_rect_mesh(UNIT, 2)),
                        ModelParams(alpha=0.0, beta=0.0), TimeGrid(1.0, 1),
                        forcing=lambda x, t: np.full(len(x), 1e200), newton_cap=1)
        with pytest.raises(StepFailureError) as info:
            s.run()
        residual[name] = info.value.residual
    assert residual["lu"] < 1e190
    assert residual["gmres"] <= 2.0 * residual["lu"]


def test_fhn_v_update_recurrence():
    # u = 0, rho = 1: v^k = (1 + dt*eps)^(-k)
    dt, eps = 0.2, 0.3
    v = 1.0
    for k in range(1, 6):
        v = fhn_v_update(v, 0.0, eps, 1.0, dt)
        assert abs(v - (1.0 + dt * eps) ** -k) < 1e-14


def test_fhn_eps_zero_keeps_v_constant():
    mesh = generate_rect_mesh(UNIT, 4)
    space = CRSpace(mesh)
    params = ModelParams(alpha=0.1, beta=1.0, reaction_gamma=0.25)
    v0 = lambda x: np.where(x[:, 0] > 0.5, 0.3, 0.0)
    s = BackwardEulerSolver(space, params, TimeGrid(1.0, 4), u0=None,
                            fhn=(0.0, 1.0), v0=v0)
    traj = s.run()
    assert traj.v_fields is not None
    for v in traj.v_fields[1:]:
        assert np.array_equal(v, traj.v_fields[0])


def test_fhn_coupling_moves_u():
    mesh = generate_rect_mesh(UNIT, 4)
    space = CRSpace(mesh)
    params = ModelParams(alpha=0.1)
    v0 = lambda x: np.ones(len(x))
    s = BackwardEulerSolver(space, params, TimeGrid(0.5, 4), u0=None,
                            fhn=(0.5, 1.0), v0=v0)
    traj = s.run()
    # L u + v = 0 with v > 0 pushes u negative
    assert traj.fields[-1].min() < -1e-4


def test_stability_zero_data():
    mesh = generate_rect_mesh(UNIT, 4)
    space = CRSpace(mesh)
    params = ModelParams()
    s = BackwardEulerSolver(space, params, TimeGrid(1.0, 4))
    traj = s.run()
    rep = stability_check(traj, space, params, None, None)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.holds


def test_stability_quadratic_in_forcing():
    mesh = generate_rect_mesh(UNIT, 4)
    space = CRSpace(mesh)
    params = ModelParams(alpha=0.0, beta=1.0)
    f1 = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) * (1.0 + t)
    f2 = lambda x, t: 2.0 * f1(x, t)
    reps = []
    for f in (f1, f2):
        s = BackwardEulerSolver(space, params, TimeGrid(1.0, 8), forcing=f)
        traj = s.run()
        reps.append(stability_check(traj, space, params, f, None))
    assert abs(reps[1].f_part - 4.0 * reps[0].f_part) < 1e-12 * reps[1].f_part
    assert reps[0].holds and reps[1].holds


def test_stability_holds_for_manufactured_run():
    mesh = generate_rect_mesh(UNIT, 8)
    space = CRSpace(mesh)
    params = ModelParams(eta=1.0)
    spec = KernelSpec(mu=0.5)
    case = mms.type_one()
    f = mms.forcing(case, params, spec)
    s = BackwardEulerSolver(space, params, TimeGrid(1.0, 16), forcing=f,
                            u0=case.initial, kernel_spec=spec)
    traj = s.run()
    rep = stability_check(traj, space, params, f, case.initial)
    assert rep.holds and rep.lhs < rep.rhs


def _wave_cr(cls=BackwardEulerSolver, **kw):
    # nonhomogeneous Dirichlet data imposed strongly, memory on
    case = mms.traveling_wave(20)
    params = ModelParams(nu=1.0 / 20, eta=1.0)
    spec = KernelSpec(mu=0.5)
    return cls(
        CRSpace(generate_rect_mesh(UNIT, 4)), params, TimeGrid(0.5, 6),
        forcing=mms.forcing(case, params, spec), u0=case.initial, bc=case.boundary,
        kernel_spec=spec, **kw)


def _wave_dg(n_steps=6, **kw):
    # the same data weakly imposed (Nitsche vector and upwind flux datum)
    case = mms.traveling_wave(20)
    params = ModelParams(nu=1.0 / 20, eta=1.0)
    spec = KernelSpec(mu=0.5)
    return BackwardEulerSolver(
        DGSpace(generate_rect_mesh(UNIT, 4)), params, TimeGrid(0.5, n_steps),
        forcing=mms.forcing(case, params, spec), u0=case.initial, bc=case.boundary,
        kernel_spec=spec, **kw)


def _memory_caputo_cr(n_steps=6, cells=4, cls=BackwardEulerSolver, **kw):
    case = mms.type_one()
    params = ModelParams(eta=1.0)
    spec = KernelSpec(mu=0.5, caputo_order=0.5)
    return cls(
        CRSpace(generate_rect_mesh(UNIT, cells)), params, TimeGrid(1.0, n_steps),
        forcing=mms.forcing(case, params, spec), u0=case.initial, kernel_spec=spec, **kw)


#: Steps of the runs that cross two history blocks.
LONG = 2 * HISTORY_BLOCK + 5


def _memory_caputo_cr_long(**kw):
    return _memory_caputo_cr(LONG, **kw)


def _wave_dg_long(**kw):
    return _wave_dg(LONG, **kw)


def _spiral_dg(cls=BackwardEulerSolver, **kw):
    params = ModelParams(nu=4.0, alpha=0.1, beta=1.0, reaction_gamma=0.25, eta=0.01)
    return cls(
        DGSpace(generate_rect_mesh((0.0, 0.0, 300.0, 300.0), 8)), params,
        TimeGrid(3.0, 3), u0=lambda x: np.where(x[:, 1] >= 150.0, 1.0, 0.0),
        v0=lambda x: np.where(x[:, 0] >= 150.0, 0.4, 0.0), fhn=(0.005, 1.0),
        kernel_spec=KernelSpec(mu=0.5), **kw)


@pytest.mark.parametrize("make", [_wave_cr, _memory_caputo_cr, _spiral_dg])
def test_newton_krylov_matches_direct_lu(make):
    krylov, direct = make().run(), make(cls=DirectLU).run()
    for a, b in zip(krylov.fields, direct.fields):
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)
    assert ([r.newton_iters for r in krylov.records]
            == [r.newton_iters for r in direct.records])
    assert all(r.krylov_iters > 0 and r.lu_fallbacks == 0 for r in krylov.records[1:])
    assert all(r.krylov_iters == 0 and r.lu_fallbacks == 0 for r in direct.records)


@pytest.mark.parametrize("make", [_wave_cr, _spiral_dg])
def test_forcing_saves_krylov_iterations_not_newton_iterations(make, monkeypatch):
    # ETA_MAX = 0 makes every correction's forcing 0, so GMRES keeps the
    # tight aim of a solve without forcing: the reference run
    s = make()
    forced = s.run()
    monkeypatch.setattr(solver, "ETA_MAX", 0.0)
    tight = make().run()
    assert all(r.newton_residual <= s.newton_tol for r in forced.records[1:])
    assert ([r.newton_iters for r in forced.records]
            == [r.newton_iters for r in tight.records])
    assert (sum(r.krylov_iters for r in forced.records)
            < sum(r.krylov_iters for r in tight.records))


@pytest.mark.parametrize("make", [_wave_cr, _memory_caputo_cr, _spiral_dg])
def test_preconditioner_factored_once_per_run(make, monkeypatch):
    # L_base is factored once per run; a Newton matrix only when GMRES has
    # started to need many iterations, which the CR miniatures never do
    # and the DG spiral does.  Preconditioner factors are incomplete, the
    # direct reference's exact, all with one ordering
    calls = count_factors(monkeypatch, "permc_spec")
    s = make()
    assert calls == []                      # construction factors nothing
    traj = s.run()
    refreshes = sum(r.precond_refreshes for r in traj.records)
    assert calls == [("spilu", "MMD_AT_PLUS_A")] * (1 + refreshes)
    if isinstance(s.space, DGSpace):
        assert refreshes >= 1
    else:
        assert refreshes == 0
    calls.clear()
    traj = make(cls=DirectLU).run()
    # the direct reference factors every Newton matrix exactly
    assert calls == [("splu", "MMD_AT_PLUS_A")] * sum(r.newton_iters for r in traj.records)
    assert all(r.precond_refreshes == 0 for r in traj.records)


def test_no_factor_is_held_while_another_is_built(monkeypatch):
    # a refresh frees the old factor before it builds the new one, and a
    # second run frees the first run's, so two factors never coexist
    factorize = linalg.factorize
    built = []

    class Factor:
        def __init__(self, A):
            self.lu = factorize(A)

        def solve(self, v):
            return self.lu.solve(v)

    def guarded(A):
        assert s._precond is None
        assert all(ref() is None for ref in built)
        factor = Factor(A)
        built.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(linalg, "factorize", guarded)
    s = _spiral_dg()
    refreshes = [sum(r.precond_refreshes for r in s.run().records) for _ in range(2)]
    assert len(built) == 2 + sum(refreshes) and min(refreshes) >= 1


@pytest.mark.parametrize("make", [_wave_cr, _spiral_dg])
def test_runs_are_bit_identical(make):
    # the refresh state starts afresh in every run
    s = make()
    runs = [s.run(), s.run(), make().run(), make().run()]
    for traj in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(traj.fields, runs[0].fields))
        assert traj.records == runs[0].records


def test_missed_krylov_solve_falls_back_to_lu(monkeypatch):
    # a useless preconditioner and three one-iteration Krylov cycles make
    # every GMRES solve miss; the direct fallback keeps the run exact
    class Identity:
        def __init__(self, P):
            pass

        def solve(self, v):
            return v

    monkeypatch.setattr(linalg, "factorize", Identity)
    monkeypatch.setattr(linalg, "GMRES_RESTART", 1)
    monkeypatch.setattr(linalg, "GMRES_MAXITER", 3)
    traj = _wave_cr().run()
    direct = _wave_cr(cls=DirectLU).run()
    assert all(r.lu_fallbacks == r.newton_iters > 0 and r.krylov_iters > 0
               for r in traj.records[1:])
    for a, b in zip(traj.fields, direct.fields):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("make", [_wave_cr, _spiral_dg])
def test_one_jacobian_per_newton_iteration(make, monkeypatch):
    # the converged iterate of each step gets a residual but no Jacobian
    s = make()
    calls = {"nonlinear_residual": 0, "add_nonlinear_jacobian": 0}
    for name in calls:
        def counting(*args, name=name, method=getattr(s.space, name)):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(s.space, name, counting)
    traj = s.run()
    iters = sum(r.newton_iters for r in traj.records)
    steps = len(traj.records) - 1
    assert calls == {"nonlinear_residual": iters + steps, "add_nonlinear_jacobian": iters}


def test_cr_newton_matrix_is_the_constrained_jacobian():
    # the slot mask gives scipy's Di (L + J) Di + Db, L + J the Jacobian
    # added into L_base's data
    s = _wave_cr()
    s.params.beta = 2.0
    space = s.space
    u = np.random.default_rng(9).uniform(-1, 1, space.n_dofs)
    J = s._newton_matrix(u)
    add = space.add_nonlinear_jacobian
    raw = space.pattern.matrix(add(s.L_base.data.copy(), u, s.params, None))
    jac = space.pattern.matrix(add(np.zeros(space.pattern.nnz), u, s.params, None))
    assert abs(raw - (s.L_base + jac)).max() <= 1e-15 * abs(raw).max()
    keep = np.ones(space.n_dofs)
    keep[space.boundary_dofs] = 0.0
    ref = sp.diags(keep) @ raw @ sp.diags(keep) + sp.diags(1.0 - keep)
    assert abs(J - ref).max() == 0.0
    assert np.array_equal(s._newton_matrix().toarray(),
                          (sp.diags(keep) @ s.L_base @ sp.diags(keep)
                           + sp.diags(1.0 - keep)).toarray())


@pytest.mark.parametrize("make", [_wave_cr, _spiral_dg])
def test_newton_matrix_parts_share_one_pattern(make):
    s = make()
    space = s.space
    u = np.random.default_rng(4).uniform(-1, 1, space.n_dofs)
    data = s.L_base.data.copy()        # the Jacobian adds into pattern data
    assert space.add_nonlinear_jacobian(data, u, s.params, None) is data
    for A in [s.M, s.A, s.G, s.N_energy, s.L_base, s._newton_matrix(u)]:
        assert np.shares_memory(A.indptr, space.pattern.indptr)
        assert np.shares_memory(A.indices, space.pattern.indices)


@pytest.mark.parametrize("make", [_wave_cr, _spiral_dg])
def test_run_builds_no_coo_and_sums_no_duplicates(make, monkeypatch):
    # after construction, a run assembles only onto the fixed pattern;
    # splu's own sum_duplicates call on a canonical matrix does nothing
    # and is not counted
    counts = {"coo": 0, "sum_duplicates": 0}
    coo_init = sp._coo._coo_base.__init__
    coo_sum = sp._coo._coo_base.sum_duplicates
    csr_sum = sp._compressed._cs_matrix.sum_duplicates

    def count_coo(self, *args, **kwargs):
        counts["coo"] += 1
        coo_init(self, *args, **kwargs)

    def count_coo_sum(self):
        counts["sum_duplicates"] += 1
        coo_sum(self)

    def count_csr_sum(self):
        counts["sum_duplicates"] += not self.has_canonical_format
        csr_sum(self)

    s = make()
    monkeypatch.setattr(sp._coo._coo_base, "__init__", count_coo)
    monkeypatch.setattr(sp._coo._coo_base, "sum_duplicates", count_coo_sum)
    monkeypatch.setattr(sp._compressed._cs_matrix, "sum_duplicates", count_csr_sum)
    sp.coo_matrix(np.eye(2))                              # the counters count
    sp.csr_matrix((np.ones(2), [1, 1], [0, 2, 2]), shape=(2, 2)).sum_duplicates()
    assert counts == {"coo": 1, "sum_duplicates": 1}
    counts.update(coo=0, sum_duplicates=0)
    s.run()
    assert counts == {"coo": 0, "sum_duplicates": 0}


def per_term_residual(s, u, u_prev, load, mem_known, cap_known, fhn_const,
                      nitsche_k, flux_datum):
    """The step residual written term by term (the reference oracle of the
    L_base u - b_k form): mass, diffusion, Nitsche datum, convection,
    reaction, memory, Caputo and FitzHugh-Nagumo parts."""
    p = s.params
    dt = s.grid.delta_t
    Au = s.A @ u
    F = s.M @ ((u - u_prev) / dt) + p.nu * Au - load
    if nitsche_k is not None:
        F -= p.nu * nitsche_k
    F += ref_nonlinear(s.space, u, p, flux_datum)[0]
    if s.weights is not None:
        own = Au if nitsche_k is None else Au - nitsche_k
        F += p.eta * dt * (mem_known + s.weights.diagonal * own)
    if s.cweights is not None:
        F += cap_known + s.cweights.diagonal * (s.M @ (u - u_prev))
    if fhn_const is not None:
        eps, rho = s.fhn
        F += fhn_const + (dt * eps / (1.0 + dt * eps * rho)) * (s.M @ u)
    F[s.space.boundary_dofs] = 0.0
    return F


def _recorded_run(s, monkeypatch):
    """Run ``s`` with the arguments (k, b, bvals, datum, guess) of each of
    its ``step`` calls recorded; returns (trajectory, calls)."""
    step, calls = s.step, []
    monkeypatch.setattr(s, "step", lambda *args: calls.append(args) or step(*args))
    return s.run(), calls


@pytest.mark.parametrize("make", [_memory_caputo_cr, _wave_cr, _wave_dg, _spiral_dg])
def test_residual_and_newton_matrix_match_the_per_term_formula(make, monkeypatch):
    # the b_k that run() hands to step 3, at a random iterate, against
    # the per-term residual with the history rebuilt from the stored fields
    s = make()
    space, p = s.space, s.params
    k = 3
    traj, calls = _recorded_run(s, monkeypatch)
    _, b, bvals, datum, _ = calls[k - 1]
    terms = dict(per_step_terms(s, traj))[k]
    flux_datum = terms[-1]
    assert (datum is None) == (flux_datum is None)
    assert datum is None or np.array_equal(datum, flux_datum)
    u = np.random.default_rng(11).uniform(-1, 1, space.n_dofs)
    u[space.boundary_dofs] = bvals
    ref = per_term_residual(s, u, traj.fields[k - 1], *terms)
    F = s._residual(u, b, datum)
    assert np.linalg.norm(F - ref) <= 1e-13 * np.linalg.norm(ref)

    keep = np.ones(space.n_dofs)
    keep[space.boundary_dofs] = 0.0
    J_ref = (sp.diags(keep) @ (s.L_base + ref_nonlinear(space, u, p, flux_datum)[1])
             @ sp.diags(keep) + sp.diags(1.0 - keep))
    J = s._newton_matrix(u, datum)
    assert abs(J - J_ref).max() <= 1e-13 * abs(J_ref).max()


def test_dg_datum_evaluated_once_per_step(monkeypatch):
    # one evaluation feeds the Nitsche vector, the upwind flux and the
    # memory history
    times = []
    original = forms.dg_boundary_values

    def counting(space, g, t):
        times.append(t)
        return original(space, g, t)

    monkeypatch.setattr(forms, "dg_boundary_values", counting)
    traj = _wave_dg().run()
    assert times == list(traj.times[1:])


@pytest.mark.parametrize("make", [_wave_cr, _wave_dg])
def test_dirichlet_datum_one_call_per_step(make):
    # one space.dirichlet call per step evaluates the datum once, on the
    # boundary midpoints (CR) or the boundary-edge quadrature points (DG)
    s = make()
    bc, calls = s.bc, []
    s.bc = lambda x, t: calls.append((len(x), t)) or bc(x, t)
    traj = s.run()
    n_points = len(s.space.boundary_dofs) or len(s.space.face_data.Xb.reshape(-1, 2))
    assert n_points > 0
    assert calls == [(n_points, t) for t in traj.times[1:]]
    values, datum = s.space.dirichlet(None, 0.5)
    assert np.array_equal(values, np.zeros(len(s.space.boundary_dofs)))
    assert datum is None


def test_dg_nitsche_vector_built_once_per_step(monkeypatch):
    # the datum and its memory history enter each b_k through one
    # Nitsche vector
    calls = []
    nitsche = forms.dirichlet_rhs_dg
    monkeypatch.setattr(forms, "dirichlet_rhs_dg", lambda *a: calls.append(1) or nitsche(*a))
    s = _wave_dg_long()
    s.run()
    assert len(calls) == s.grid.n_steps


def per_step_terms(s, traj):
    """For each step k of ``traj``: k and the u-independent arguments of
    ``per_term_residual``, with every history sum rebuilt from the stored
    fields."""
    space, p = s.space, s.params
    dt = s.grid.delta_t
    U = traj.fields
    own, cap = [None], [None]
    for k in range(1, len(U)):
        t_k = k * dt
        flux_datum = nitsche_k = fhn_const = None
        if isinstance(space, DGSpace) and s.bc is not None:
            flux_datum = forms.dg_boundary_values(space, s.bc, t_k)
            nitsche_k = forms.dirichlet_rhs_dg(space, flux_datum, p.penalty_gamma)
        own.append(s.A @ U[k] - (0.0 if nitsche_k is None else nitsche_k))
        cap.append(s.M @ (U[k] - U[k - 1]))
        mem_known = cap_known = 0.0
        if s.weights is not None and k > 1:
            row = s.weights.row(k)
            mem_known = sum(row[j - 1] * own[j] for j in range(1, k))
        if s.cweights is not None and k > 1:
            row = s.cweights.row(k)
            cap_known = sum(row[j - 1] * cap[j] for j in range(1, k))
        if s.fhn is not None:
            eps, rho = s.fhn
            fhn_const = (s.M @ traj.v_fields[k - 1]) / (1.0 + dt * eps * rho)
        load = forms.assemble_load(space, forms.bind_load(space, s.forcing), (k - 1) * dt, t_k)
        yield k, (load, mem_known, cap_known, fhn_const, nitsche_k, flux_datum)


@pytest.mark.parametrize("make", [_memory_caputo_cr, _wave_dg, _spiral_dg,
                                  _memory_caputo_cr_long, _wave_dg_long])
def test_trajectory_solves_the_per_term_equations(make):
    # rebuilds every step's history sums from the stored fields, so run()'s
    # memory (diffusion minus Nitsche vector), Caputo and FHN bookkeeping
    # is checked end to end; the long runs cross two history blocks
    s = make()
    traj = s.run()
    U = traj.fields
    for k, terms in per_step_terms(s, traj):
        F = per_term_residual(s, U[k], U[k - 1], *terms)
        assert np.linalg.norm(F) <= 1e-9


@pytest.mark.parametrize("make", [_memory_caputo_cr_long, _wave_dg_long])
def test_run_history_term_matches_the_direct_sums(make, monkeypatch):
    # run() sums the memory over the stored fields and the DG datum; the
    # history part of each b_k, eta dt sum_j omega_kj A u^j
    # + sum_j omega^c_kj M (u^j - u^{j-1}) over j < k, and the argument
    # nu g^k + eta dt sum_{j<=k} omega_kj g^j of its Nitsche vector
    # against the row-by-row sums
    s = make()
    space, p, dt = s.space, s.params, s.grid.delta_t
    args, vectors = [], []
    weak = isinstance(space, DGSpace) and s.bc is not None
    if weak:
        nitsche = space.nitsche

        def recording(g, penalty_gamma):
            args.append(g.copy())
            vectors.append(nitsche(g, penalty_gamma))
            return vectors[-1]

        monkeypatch.setattr(space, "nitsche", recording)
    traj, calls = _recorded_run(s, monkeypatch)
    assert len(calls) == s.grid.n_steps
    U = traj.fields
    if weak:
        g = [None] + [forms.dg_boundary_values(space, s.bc, k * dt) for k in range(1, len(U))]
    load = forms.bind_load(space, s.forcing)
    for k in range(1, len(U)):
        row = s.weights.row(k)
        want = p.eta * dt * sum(row[j - 1] * (s.A @ U[j]) for j in range(1, k))
        if s.cweights is not None:
            crow = s.cweights.row(k)
            want = want + sum(crow[j - 1] * (s.M @ (U[j] - U[j - 1])) for j in range(1, k))
        got = (forms.assemble_load(space, load, (k - 1) * dt, k * dt)
               + s._prev_coef * (s.M @ U[k - 1]))
        if weak:
            got = got + vectors[k - 1]
            want_g = p.nu * g[k] + p.eta * dt * sum(row[j - 1] * g[j] for j in range(1, k + 1))
            assert np.linalg.norm(args[k - 1] - want_g) <= 1e-10 * np.linalg.norm(want_g)
        got = got - calls[k - 1][1]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert np.linalg.norm(want) > 0.0
    assert len(vectors) == (s.grid.n_steps if weak else 0)


def test_run_keeps_one_field_array_and_the_caputo_rows():
    # the stored fields are the memory history, so the run's traced peak
    # is the (N+1, dofs) fields plus the Caputo rows and the solver's
    # small working set, well below three such arrays
    s = _memory_caputo_cr(800, cells=16)
    n_dofs = s.space.n_dofs
    assert n_dofs == 800
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = s.run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(traj.fields) == 801
    assert peak < 2.5 * 801 * n_dofs * 8


@pytest.mark.parametrize("make", [_memory_caputo_cr, _wave_cr, _wave_dg, _spiral_dg])
def test_newton_starts_from_the_extrapolated_field(make):
    # residual_history[0] is the residual at u^0 on step 1 and at
    # 2u^{k-1} - u^{k-2}, datum pinned, on every later step
    s = make()
    traj = s.run()
    U = traj.fields
    bdofs = s.space.boundary_dofs
    for k, terms in per_step_terms(s, traj):
        start = U[0].copy() if k == 1 else 2.0 * U[k - 1] - U[k - 2]
        start[bdofs] = s.space.dirichlet(s.bc, k * s.grid.delta_t)[0]
        r_start = np.linalg.norm(per_term_residual(s, start, U[k - 1], *terms))
        r_prev = np.linalg.norm(per_term_residual(s, U[k - 1], U[k - 1], *terms))
        got = traj.records[k].residual_history[0]
        assert abs(got - r_start) <= 1e-10 * (1.0 + r_start)
        if k > 1:
            assert abs(got - r_prev) > 1e-6 * r_prev


def test_extrapolated_start_saves_newton_iterations(monkeypatch):
    def newton_total(s):
        return sum(r.newton_iters for r in s.run().records)

    extrapolated = newton_total(_memory_caputo_cr())
    s = _memory_caputo_cr()
    step, fields = s.step, []

    def from_previous(k, b, bvals, datum, guess):       # start at u^{k-1}
        u, record = step(k, b, bvals, datum, fields[-1] if fields else guess)
        fields.append(u)
        return u, record

    monkeypatch.setattr(s, "step", from_previous)
    assert extrapolated < newton_total(s)


@pytest.mark.parametrize("make", [_memory_caputo_cr, _spiral_dg])
def test_stored_fields_share_no_memory(make):
    traj = make().run()
    stored = traj.fields + (traj.v_fields or [])
    assert len(stored) == len(traj.times) * (1 + (traj.v_fields is not None))
    for i, a in enumerate(stored):
        for b in stored[i + 1:]:
            assert not np.shares_memory(a, b)


def _count_load_calls(monkeypatch):
    """The time arrays that bound loads are called with from now on."""
    calls = []
    bind = forms.bind_load

    def counting(space, f):
        load = bind(space, f)
        return lambda ts: calls.append(np.shape(ts)) or load(ts)

    monkeypatch.setattr(forms, "bind_load", counting)
    return calls


def stability_f_part(traj, space, params, f):
    """(1/nu) int ||f||^2 dt time by time: the reference of the batched sum."""
    dt = traj.times[1] - traj.times[0]
    rule, _, X = space.volume_quad(forms.LOAD_QUAD_DEGREE)
    total = 0.0
    for t_prev in traj.times[:-1]:
        for xg, wg in zip(forms.TIME_GAUSS_X, forms.TIME_GAUSS_W):
            v2 = f(X.reshape(-1, 2), t_prev + dt * xg).reshape(X.shape[:2]) ** 2
            total += dt * wg * np.einsum("cq,q,c->", v2, rule.weights, space.det_jacobians)
    return total / params.nu


def test_forcing_evaluated_once_per_step_and_per_chunk(monkeypatch):
    # the load evaluates its three Gauss times in one call per step, and
    # the stability check all 3N times in ceil(3N / chunk) calls, with
    # the same sum for any chunk
    calls = _count_load_calls(monkeypatch)
    s = _memory_caputo_cr(LONG)
    traj = s.run()
    assert calls == [(3,)] * LONG
    space, params = s.space, s.params
    n_points = space.volume_quad(forms.LOAD_QUAD_DEGREE)[2][..., 0].size
    reports = []
    for chunk in (10, 3 * LONG, 1):
        calls.clear()
        monkeypatch.setattr(solver, "STABILITY_CHUNK_VALUES", chunk * n_points)
        reports.append(stability_check(traj, space, params, s.forcing, None))
        assert len(calls) == -(-3 * LONG // chunk)
        assert set(calls[:-1]) <= {(chunk,)}
    assert reports[0] == reports[1] == reports[2]
    want = stability_f_part(traj, space, params, s.forcing)
    assert abs(reports[0].f_part - want) <= 1e-13 * want
