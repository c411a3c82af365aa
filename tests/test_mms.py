import numpy as np
import pytest

import gbhfem.forms as forms
import gbhfem.mms as mms
from gbhfem.errors import UnsupportedCaseError
from gbhfem.forms import ModelParams
from gbhfem.kernel import KernelSpec, caputo_power, convolve_power
from gbhfem.mesh import generate_rect_mesh
from gbhfem.solver import BackwardEulerSolver, TimeGrid, Trajectory, stability_check
from gbhfem.space_cr import CRSpace
from gbhfem.space_dg import DGSpace

UNIT = (0.0, 0.0, 1.0, 1.0)


def zero_case():
    z = lambda x, t: np.zeros(len(x))
    return mms.ManufacturedCase(
        "zero", z, z, lambda x, t: np.zeros((len(x), 2)), z,
        time_profile=[(0.0, 0.0)], spatial=lambda x: np.zeros(len(x)),
        spatial_grad=lambda x: np.zeros((len(x), 2)), spatial_lap=lambda x: np.zeros(len(x)))


@pytest.mark.parametrize("case", [mms.type_one(), mms.type_two(),
                                  mms.traveling_wave(50), mms.traveling_wave(100)])
def test_self_consistency_gate(case):
    assert case.self_check()


def test_gate_rejects_wrong_derivatives():
    c = mms.type_one()
    broken = mms.ManufacturedCase("broken", c.u, c.u_t,
                                  lambda x, t: 1.1 * c.grad(x, t), c.lap)
    with pytest.raises(ValueError):
        broken.self_check()


@pytest.mark.parametrize("missing", ["spatial", "spatial_grad", "spatial_lap"])
def test_time_profile_needs_every_spatial_factor(missing):
    c = mms.type_one()
    factors = {name: getattr(c, name) for name in ("spatial", "spatial_grad", "spatial_lap")}
    factors[missing] = None
    with pytest.raises(ValueError, match=f"needs {missing}$"):
        mms.ManufacturedCase("partial", c.u, c.u_t, c.grad, c.lap,
                             time_profile=c.time_profile, **factors)


@pytest.mark.parametrize("case", [mms.type_one(), mms.type_two(),
                                  mms.traveling_wave(50), mms.traveling_wave(100)])
def test_case_callables_broadcast_array_times(case):
    # (n,) times pair with the points; (m, 1) times give one row per time
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, (9, 2))
    t = rng.uniform(0.0, 1.0, 9)
    for name in ("u", "u_t", "grad", "lap"):
        fn = getattr(case, name)
        paired = fn(x, t)
        rows = fn(x, t[:, None])
        assert rows.shape == (9,) + paired.shape
        for i in range(9):
            at_ti = fn(x, t[i])
            scale = np.abs(at_ti).max()
            assert np.abs(paired[i] - at_ti[i]).max() <= 1e-14 * scale
            assert np.abs(rows[i] - at_ti).max() <= 1e-14 * scale


def test_forcing_zero_case():
    f = mms.forcing(zero_case(), ModelParams(eta=1.0), KernelSpec(mu=0.5))
    x = np.random.default_rng(0).uniform(0, 1, (10, 2))
    assert np.abs(f(x, 0.7)).max() == 0.0


def test_forcing_type_one_at_t0():
    # empty memory integral at t = 0, du/dt(0) = 0
    case = mms.type_one()
    p = ModelParams(eta=1.0)
    f = mms.forcing(case, p, KernelSpec(mu=0.5))
    x = np.random.default_rng(1).uniform(0.05, 0.95, (20, 2))
    u0 = case.u(x, 0.0)
    g0 = case.grad(x, 0.0)
    expect = (-p.nu * case.lap(x, 0.0)
              + p.alpha * u0**p.delta * (g0[:, 0] + g0[:, 1])
              - p.beta * u0 * (1 - u0**p.delta) * (u0**p.delta - p.reaction_gamma))
    assert np.abs(f(x, 0.0) - expect).max() < 1e-13


def test_forcing_type_two_memory_contribution():
    # closed form: the memory part of f is -eta * B(1/2, 5/2) t^2 * lap(S)
    case = mms.type_two()
    spec = KernelSpec(mu=0.5)
    f1 = mms.forcing(case, ModelParams(eta=1.0), spec)
    f0 = mms.forcing(case, ModelParams(eta=0.0))
    x = np.random.default_rng(2).uniform(0, 1, (15, 2))
    for t in (0.3, 0.8):
        got = f1(x, t) - f0(x, t)
        want = -(3.0 * np.pi / 8.0) * t**2 * case.spatial_lap(x)
        assert np.abs(got - want).max() < 1e-12


def pointwise_forcing(case, p, spec, x, t):
    """The strong operator applied to the exact solution, point by point."""
    u, g = case.u(x, t), case.grad(x, t)
    ud = u**p.delta
    f = (case.u_t(x, t) - p.nu * case.lap(x, t) + p.alpha * ud * (g[:, 0] + g[:, 1])
         - p.beta * u * (1.0 - ud) * (ud - p.reaction_gamma))
    if p.eta > 0.0:
        f -= p.eta * convolve_power(case.time_profile, spec, t) * case.spatial_lap(x)
    if spec.caputo_order is not None:
        f += caputo_power(case.time_profile, spec.caputo_order, t) * case.spatial(x)
    return f


@pytest.mark.parametrize("make", [mms.type_one, mms.type_two])
@pytest.mark.parametrize("delta", [1, 2])
@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("caputo", [None, 0.5])
@pytest.mark.parametrize("points", ["cr", "dg", "writable"])
def test_separable_forcing_matches_pointwise_formula(make, delta, eta, caputo, points):
    case = make()
    p = ModelParams(nu=0.7, alpha=1.3, beta=0.9, reaction_gamma=0.4, delta=delta, eta=eta)
    spec = KernelSpec(mu=0.5, caputo_order=caputo)
    if points == "writable":
        x = np.random.default_rng(8).uniform(0.0, 1.0, (50, 2))
    else:
        x = mms.SPACES[points](generate_rect_mesh(UNIT, 3)).volume_quad(5)[2].reshape(-1, 2)
        assert not x.flags.writeable
    f = mms.forcing(case, p, spec)
    f_on = f.on(x)
    for t in (0.0, 0.3, 0.3, 0.9, 1.0):
        want = pointwise_forcing(case, p, spec, x, t)
        assert np.abs(f(x, t) - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(f_on(t), f(x, t))


def test_forcing_caputo_needs_power_profile():
    tw = mms.traveling_wave(50)
    with pytest.raises(UnsupportedCaseError):
        mms.forcing(tw, ModelParams(), KernelSpec(mu=0.5), caputo_order=0.5)


def test_forcing_eta_needs_kernel():
    with pytest.raises(ValueError):
        mms.forcing(mms.type_one(), ModelParams(eta=1.0))


def test_forcing_takes_caputo_order_from_kernel_spec():
    case = mms.type_two()
    p = ModelParams(eta=1.0)
    x = np.random.default_rng(5).uniform(0, 1, (15, 2))
    spec_only = mms.forcing(case, p, KernelSpec(mu=0.5, caputo_order=0.5))
    both = mms.forcing(case, p, KernelSpec(mu=0.5, caputo_order=0.5), caputo_order=0.5)
    arg_only = mms.forcing(case, p, KernelSpec(mu=0.5), caputo_order=0.5)
    without = mms.forcing(case, p, KernelSpec(mu=0.5))
    for t in (0.3, 0.8):
        assert np.array_equal(spec_only(x, t), both(x, t))
        assert np.array_equal(spec_only(x, t), arg_only(x, t))
        assert not np.allclose(spec_only(x, t), without(x, t))
    with pytest.raises(ValueError, match="caputo_order"):
        mms.forcing(case, p, KernelSpec(mu=0.5, caputo_order=0.5), caputo_order=0.25)


def test_jacobi_rule_computed_once_per_order(monkeypatch):
    calls = []
    real = mms.roots_jacobi
    monkeypatch.setattr(mms, "roots_jacobi", lambda *a: calls.append(a) or real(*a))
    mms._jacobi_rule.cache_clear()
    case = mms.traveling_wave(50)
    f = mms.forcing(case, ModelParams(eta=1.0), KernelSpec(mu=0.5))
    x = np.random.default_rng(6).uniform(0, 1, (20, 2))
    vals = [f(x, t) for t in (0.2, 0.7, 0.7)]
    assert calls == [(mms.JACOBI_NODES, -0.5, 0.0)]
    assert np.array_equal(vals[1], vals[2])
    # the uncached rule, summed in the same order, gives the same bits
    z, w = real(mms.JACOBI_NODES, -0.5, 0.0)
    direct = np.zeros(len(x))
    for zi, wi in zip(z, w):
        direct += wi * case.lap(x, 0.7 * (zi + 1.0) / 2.0)
    direct *= (0.7 / 2.0) ** 0.5
    assert np.array_equal(mms._jacobi_convolution(case.lap, 0.5, x, 0.7), direct)


def per_point_case(case):
    """``case`` without its time profile: ``on`` binds it point by point."""
    return mms.ManufacturedCase(case.name, case.u, case.u_t, case.grad, case.lap)


@pytest.mark.parametrize("make", [mms.type_one, mms.type_two])
@pytest.mark.parametrize("caputo", [None, 0.5])
@pytest.mark.parametrize("scheme", ["cr", "dg"])
def test_cached_spatial_factors_bit_identical(make, caputo, scheme):
    # the spatial factors evaluated in the bind give the per-point values,
    # and runs, error norms and the stability check on the bound path give
    # those of a plain callable and a per-point case
    case = make()
    space = mms.SPACES[scheme](generate_rect_mesh(UNIT, 4))
    Xf = space.volume_quad(5)[2].reshape(-1, 2)
    u_on, grad_on = case.on(Xf)
    spec = KernelSpec(mu=0.5, caputo_order=caputo)
    for eta in (0.0, 1.0):
        params = ModelParams(eta=eta)
        f = mms.forcing(case, params, spec)
        f_on = f.on(Xf)
        for t in (0.0, 0.3, 0.3, 0.9):
            assert np.array_equal(u_on(t), case.u(Xf, t))
            assert np.array_equal(grad_on(t), case.grad(Xf, t))
            assert np.array_equal(f_on(t), f(Xf, t))
        plain_f = lambda x, t: f(x, t)
        grid = TimeGrid(1.0, 6)
        traj = BackwardEulerSolver(space, params, grid, forcing=f, u0=case.initial,
                                   kernel_spec=spec).run()
        traj_plain = BackwardEulerSolver(space, params, grid, forcing=plain_f,
                                         u0=case.initial, kernel_spec=spec).run()
        for a, b in zip(traj.fields, traj_plain.fields):
            assert np.array_equal(a, b)
        plain = per_point_case(case)
        e_l2 = mms.error_linf_l2(space, traj, case)
        assert e_l2 == mms.error_linf_l2(space, traj, plain)
        assert e_l2 == max(mms.error_l2(space, u, case.u, t)
                           for u, t in zip(traj.fields, traj.times))
        assert (mms.error_energy(space, traj, case, params)
                == mms.error_energy(space, traj, plain, params))
        assert (stability_check(traj, space, params, f, case.initial)
                == stability_check(traj, space, params, plain_f, case.initial))


def test_spatial_factors_evaluated_once_per_point_set(monkeypatch):
    # a miniature of the long memory run: Type I, memory and Caputo,
    # then both error norms and the stability check; S, grad S and lap S
    # see the quadrature points once per bind, however many steps run
    calls = {"S": [], "gradS": [], "lapS": []}
    separable = mms._separable

    def counted(key, fn):
        def spatial(x):
            calls[key].append(x)
            return fn(x)
        return spatial

    def counting(name, profile, S, gradS, lapS, homogeneous):
        return separable(name, profile, counted("S", S), counted("gradS", gradS),
                         counted("lapS", lapS), homogeneous)

    monkeypatch.setattr(mms, "_separable", counting)
    case = mms.type_one()
    params = ModelParams(nu=1.0, alpha=1.0, beta=1.0, reaction_gamma=0.5, delta=1, eta=1.0)
    spec = KernelSpec(mu=0.5, caputo_order=0.5)
    case.self_check()
    f = mms.forcing(case, params, spec)
    space = CRSpace(generate_rect_mesh(UNIT, 4))
    X = space.volume_quad(5)[2]
    on_X = []
    for n_steps in (20, 40):
        for v in calls.values():
            v.clear()
        traj = BackwardEulerSolver(space, params, TimeGrid(1.0, n_steps), forcing=f,
                                   u0=case.initial, kernel_spec=spec).run()
        stability_check(traj, space, params, f, case.initial)
        mms.error_linf_l2(space, traj, case)
        mms.error_energy(space, traj, case, params)
        on_X.append({k: sum(np.shares_memory(x, X) for x in v) for k, v in calls.items()})
    # binds: the solver's load, the stability check's forcing and the two
    # error norms' exact solution; S once more for the stability check's u0
    assert on_X[0] == on_X[1] == {"S": 5, "gradS": 4, "lapS": 2}


def test_point_set_cache_follows_its_argument():
    # binds on several point sets, used in turn as convergence_study
    # alternates meshes, each give the per-point values of their own points
    case = mms.type_two()
    f = mms.forcing(case, ModelParams(eta=1.0), KernelSpec(mu=0.5, caputo_order=0.5))
    Xa = CRSpace(generate_rect_mesh(UNIT, 2)).volume_quad(5)[2].reshape(-1, 2)
    Xb = DGSpace(generate_rect_mesh(UNIT, 3)).volume_quad(5)[2].reshape(-1, 2)
    x = np.random.default_rng(4).uniform(0, 1, (12, 2))
    binds = [(X, f.on(X), *case.on(X)) for X in (Xa, Xb, Xa[::2], x)]
    for t in (0.2, 0.7):
        for X, f_on, u_on, grad_on in binds + binds[::-1]:
            assert np.array_equal(f_on(t), f(X, t))
            assert np.array_equal(u_on(t), case.u(X, t))
            assert np.array_equal(grad_on(t), case.grad(X, t))


def test_planar_is_declared_by_the_traveling_wave_only():
    assert mms.traveling_wave(50).planar and mms.traveling_wave(100).planar
    assert not mms.type_one().planar and not mms.type_two().planar
    assert not zero_case().planar


def test_gate_rejects_a_false_planar_declaration():
    case = mms.type_one()
    case.planar = True
    with pytest.raises(ValueError, match="declared planar"):
        case.self_check()


WAVE_SPEC = KernelSpec(mu=0.5)


def _wave_params(reynolds, eta):
    return ModelParams(nu=1.0 / reynolds, eta=eta)


@pytest.mark.parametrize("reynolds", [50, 100])
@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("scheme", ["cr", "dg"])
def test_planar_forcing_bit_identical_to_per_point(reynolds, eta, scheme):
    # the per-point f(x, t) is the oracle of the bound, reduced forcing
    case = mms.traveling_wave(reynolds)
    f = mms.forcing(case, _wave_params(reynolds, eta), WAVE_SPEC)
    X = mms.SPACES[scheme](generate_rect_mesh(UNIT, 4)).volume_quad(5)[2].reshape(-1, 2)
    f_on = f.on(X)
    u_on, grad_on = case.on(X)
    for t in (0.0, 0.3, 0.3, 0.9):
        assert np.array_equal(f_on(t), f(X, t))
        assert np.array_equal(u_on(t), case.u(X, t))
        assert np.array_equal(grad_on(t), case.grad(X, t))


def test_planar_study_bit_identical_to_per_point(monkeypatch):
    def study():
        return mms.convergence_study(case, "cr", _wave_params(50, 1.0), levels=2,
                                     base_n=4, kernel_spec=WAVE_SPEC)

    case = mms.traveling_wave(50)
    reduced = study()
    monkeypatch.setattr(case, "planar", False)
    assert reduced.rows == study().rows


def _count_reductions(monkeypatch):
    """The point sets that planar forcings reduce from now on."""
    reductions = []
    reduce = mms._planar_reduction
    monkeypatch.setattr(mms, "_planar_reduction", lambda x: reductions.append(x) or reduce(x))
    return reductions


def test_planar_forcing_reduced_once_per_point_set(monkeypatch):
    # miniature wave runs on two meshes: one np.unique per bind, however
    # many steps run, and lap only ever sees one point per distinct x + y:
    # per step once for the diffusion term at the three Gauss times and
    # once for all their Gauss-Jacobi nodes
    reductions = _count_reductions(monkeypatch)
    case = mms.traveling_wave(100)
    case.self_check()
    rows = []
    lap = case.lap
    case.lap = lambda x, t: rows.append((len(x), np.shape(t))) or lap(x, t)
    params = _wave_params(100, 1.0)
    f = mms.forcing(case, params, WAVE_SPEC)
    for n in (4, 8):
        space = CRSpace(generate_rect_mesh(UNIT, n))
        X = space.volume_quad(5)[2]
        distinct = len(np.unique(X[..., 0] + X[..., 1]))
        assert distinct < X.shape[0] * X.shape[1] / 4
        for n_steps in (8, 16):
            rows.clear()
            reductions.clear()
            BackwardEulerSolver(space, params, TimeGrid(1.0, n_steps), forcing=f,
                                u0=case.initial, bc=case.boundary,
                                kernel_spec=WAVE_SPEC).run()
            assert len(rows) == n_steps * 2
            assert set(rows) == {(distinct, (3, 1)), (distinct, (3, mms.JACOBI_NODES, 1))}
            assert len(reductions) == 1 and np.shares_memory(reductions[0], X)


def test_planar_cache_follows_its_argument(monkeypatch):
    # binds on several point sets, used in turn, each give the per-point
    # values of their own points; evaluating a bound forcing reduces nothing
    reductions = _count_reductions(monkeypatch)
    f = mms.forcing(mms.traveling_wave(100), _wave_params(100, 1.0), WAVE_SPEC)
    Xa = CRSpace(generate_rect_mesh(UNIT, 2)).volume_quad(5)[2].reshape(-1, 2)
    Xb = CRSpace(generate_rect_mesh(UNIT, 3)).volume_quad(5)[2].reshape(-1, 2)
    x = np.random.default_rng(4).uniform(0, 1, (12, 2))
    binds = [(X, f.on(X)) for X in (Xa, Xb, Xa[::2], x)]
    assert len(reductions) == 4
    for X, f_on in binds + binds[::-1]:
        assert np.array_equal(f_on(0.4), f(X, 0.4))
    assert len(reductions) == 4


def _array_time_forcing(kind):
    """(case, params, kernel spec) of a separable, planar or general forcing."""
    if kind == "separable":
        return mms.type_two(), ModelParams(eta=1.0, delta=2), KernelSpec(mu=0.5)
    if kind == "separable-caputo":
        return mms.type_one(), ModelParams(eta=1.0), KernelSpec(mu=0.5, caputo_order=0.5)
    if kind == "planar":
        return mms.traveling_wave(50), _wave_params(50, 1.0), WAVE_SPEC
    # type one without its profile: neither separable nor planar, so the
    # memory term goes through the Gauss-Jacobi rule at every point
    return per_point_case(mms.type_one()), ModelParams(eta=1.0), KernelSpec(mu=0.3)


@pytest.mark.parametrize("kind", ["separable", "separable-caputo", "planar", "general"])
@pytest.mark.parametrize("scheme", ["cr", "dg"])
def test_forcing_over_an_array_of_times(kind, scheme):
    # each row of the bound forcing at (m,) times is bit for bit its value
    # at that time alone, bound or per point
    case, params, spec = _array_time_forcing(kind)
    f = mms.forcing(case, params, spec)
    space = mms.SPACES[scheme](generate_rect_mesh(UNIT, 3))
    X = space.volume_quad(forms.LOAD_QUAD_DEGREE)[2].reshape(-1, 2)
    load = forms.bind_load(space, f)
    ts = np.array([0.0, 0.05, 0.3, 0.3, 0.9, 1.0])
    rows = load(ts)
    assert rows.shape == (len(ts), len(X))
    assert np.array_equal(f(X, ts), rows)
    for row, t in zip(rows, ts):
        assert np.array_equal(row, load(t))
        assert np.array_equal(row, f(X, t))
        assert np.array_equal(row, load(np.array([t]))[0])


@pytest.mark.parametrize("kind", ["planar", "general"])
def test_jacobi_convolution_over_times_up_to_zero(kind, monkeypatch):
    # times t <= 0 give zero memory rows and never reach lap; the others
    # are bit for bit their single-time values, with one lap call for all
    # of them, or one per JACOBI_CHUNK_VALUES
    case, params, spec = _array_time_forcing(kind)
    x = np.random.default_rng(5).uniform(0.0, 1.0, (11, 2))
    seen = []
    lap = lambda x_, t: seen.append(np.shape(t)) or case.lap(x_, t)
    ts = np.array([-0.4, 0.0, 0.2, 0.7])
    rows = mms._jacobi_convolution(lap, spec.mu, x, ts)
    assert seen == [(2, mms.JACOBI_NODES, 1)]
    assert rows.shape == (4, 11) and not rows[:2].any() and rows[2:].all()
    for row, t in zip(rows, ts):
        assert np.array_equal(row, mms._jacobi_convolution(case.lap, spec.mu, x, t))
    assert seen == [(2, mms.JACOBI_NODES, 1)]
    f = mms.forcing(case, params, spec)
    for row, t in zip(f(x, ts), ts):
        assert np.array_equal(row, f(x, t))
    seen.clear()
    monkeypatch.setattr(mms, "JACOBI_CHUNK_VALUES", 2 * mms.JACOBI_NODES * 11)
    many = np.linspace(-0.2, 1.0, 7)
    rows = mms._jacobi_convolution(lap, spec.mu, x, many)
    assert seen == [(2, mms.JACOBI_NODES, 1)] * 2 + [(1, mms.JACOBI_NODES, 1)]
    for row, t in zip(rows, many):
        assert np.array_equal(row, mms._jacobi_convolution(case.lap, spec.mu, x, t))


def test_jacobi_convolution_matches_beta_identity():
    # the non-separable fallback is exact on polynomial profiles and
    # spectrally accurate on smooth ones; branch points at t=0 degrade it
    # to algebraic convergence, still far below the discretization errors
    from gbhfem.kernel import convolve_power
    from gbhfem.mms import _jacobi_convolution
    x = np.zeros((3, 2))
    poly = lambda x_, t: (t**2 + 2.0 * t) * np.ones(len(x_))
    got = _jacobi_convolution(poly, 0.5, x, 0.9)
    want = convolve_power([(1.0, 2.0), (2.0, 1.0)], KernelSpec(mu=0.5), 0.9)
    assert np.abs(got - want).max() < 1e-12
    rough = lambda x_, t: t**1.5 * np.ones(len(x_))
    got = _jacobi_convolution(rough, 0.5, x, 0.9)
    want = convolve_power([(1.0, 1.5)], KernelSpec(mu=0.5), 0.9)
    assert np.abs(got - want).max() < 1e-8


def test_jacobi_convolution_smooth_integrand():
    from scipy.integrate import quad
    from gbhfem.mms import _jacobi_convolution
    phi = lambda x_, t: np.exp(3.0 * t) * np.ones(len(x_))
    x = np.zeros((2, 2))
    got = _jacobi_convolution(phi, 0.5, x, 1.0)
    want, _ = quad(lambda s: (1.0 - s) ** -0.5 * np.exp(3.0 * s), 0.0, 1.0,
                   points=[1.0], epsabs=1e-14, epsrel=1e-13)
    assert np.abs(got - want).max() < 1e-11


def test_error_l2_zero_and_positive():
    space = CRSpace(generate_rect_mesh(UNIT, 4))
    zero = lambda x, t: np.zeros(len(x))
    assert mms.error_l2(space, np.zeros(space.n_dofs), zero, 0.0) == 0.0
    case = mms.type_one()
    u = space.interpolate(lambda x: case.u(x, 0.5))
    assert mms.error_l2(space, u, case.u, 0.5) > 0.0


def test_interpolant_l2_error_second_order():
    case = mms.type_one()
    errs = []
    for n in (4, 8, 16):
        space = CRSpace(generate_rect_mesh(UNIT, n))
        u = space.interpolate(lambda x: case.u(x, 0.5))
        errs.append(mms.error_l2(space, u, case.u, 0.5))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 1.8


def test_energy_error_zero_for_linear_exact():
    lin = mms.ManufacturedCase(
        "linear", lambda x, t: (1 + t) * (x[:, 0] + x[:, 1]),
        lambda x, t: x[:, 0] + x[:, 1],
        lambda x, t: (1 + t) * np.ones((len(x), 2)),
        lambda x, t: np.zeros(len(x)), homogeneous_bc=False)
    space = CRSpace(generate_rect_mesh(UNIT, 3))
    times = np.linspace(0.0, 1.0, 5)
    fields = [space.interpolate(lambda x, tt=t: lin.u(x, tt)) for t in times]
    traj = Trajectory(times, fields, records=[])
    assert mms.error_energy(space, traj, lin, ModelParams()) <= 1e-10


def test_spatial_rate_isolated_at_fixed_dt():
    # fixed tiny dt: doubling spatial resolution shows the O(h) energy rate
    case = mms.type_one()
    params = ModelParams(alpha=0.0, beta=0.0)
    f = mms.forcing(case, params)
    errs = []
    for n in (4, 8, 16):
        space = CRSpace(generate_rect_mesh(UNIT, n))
        s = BackwardEulerSolver(space, params, TimeGrid(1.0, 128), forcing=f,
                                u0=case.initial)
        traj = s.run()
        errs.append(mms.error_energy(space, traj, case, params))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for r in rates:
        assert abs(r - 1.0) <= 0.15


def test_convergence_study_shape_and_rates():
    case = mms.type_one()
    params = ModelParams(alpha=0.0, beta=0.0)
    res = mms.convergence_study(case, "cr", params, levels=3, base_n=2,
                                coupling=0.25)
    assert len(res.rows) == 3
    assert res.rows[0].rate_energy is None
    assert res.rows[-1].rate_energy is not None
    assert res.rows[-1].dofs > res.rows[0].dofs
    assert len(res.stability) == 3
    with pytest.raises(ValueError):
        mms.convergence_study(case, "cr", params, levels=1)


def test_convergence_study_rejects_unknown_scheme():
    # "CR" once ran the DG scheme (24 dofs at base_n = 2, where CR has 16)
    params = ModelParams(alpha=0.0, beta=0.0)
    with pytest.raises(ValueError, match="unknown scheme 'CR'"):
        mms.convergence_study(mms.type_one(), "CR", params, levels=2, base_n=2)
    assert mms.SPACES == {"cr": CRSpace, "dg": DGSpace}
