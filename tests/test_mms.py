import numpy as np
import pytest

import gbhfem.mms as mms
from gbhfem.errors import UnsupportedCaseError
from gbhfem.forms import ModelParams
from gbhfem.kernel import KernelSpec
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
        spatial_lap=lambda x: np.zeros(len(x)))


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


def _uncached(monkeypatch, make):
    """The same case with its spatial factors evaluated on every call."""
    with monkeypatch.context() as m:
        m.setattr(mms, "_per_point_set", lambda fn: fn)
        return make()


@pytest.mark.parametrize("make", [mms.type_one, mms.type_two])
@pytest.mark.parametrize("caputo", [None, 0.5])
@pytest.mark.parametrize("scheme", ["cr", "dg"])
def test_cached_spatial_factors_bit_identical(monkeypatch, make, caputo, scheme):
    raw = _uncached(monkeypatch, make)
    case = make()
    params = ModelParams(eta=1.0)
    spec = KernelSpec(mu=0.5, caputo_order=caputo)
    space = (CRSpace if scheme == "cr" else DGSpace)(generate_rect_mesh(UNIT, 4))
    Xf = space.volume_quad(5)[2].reshape(-1, 2)
    f, f_raw = mms.forcing(case, params, spec), mms.forcing(raw, params, spec)
    for t in (0.0, 0.3, 0.3, 0.9):
        assert np.array_equal(case.u(Xf, t), raw.u(Xf, t))
        assert np.array_equal(case.grad(Xf, t), raw.grad(Xf, t))
        assert np.array_equal(f(Xf, t), f_raw(Xf, t))
    grid = TimeGrid(1.0, 6)
    traj = BackwardEulerSolver(space, params, grid, forcing=f, u0=case.initial,
                               kernel_spec=spec).run()
    traj_raw = BackwardEulerSolver(space, params, grid, forcing=f_raw, u0=raw.initial,
                                   kernel_spec=spec).run()
    for a, b in zip(traj.fields, traj_raw.fields):
        assert np.array_equal(a, b)
    assert mms.error_linf_l2(space, traj, case) == mms.error_linf_l2(space, traj, raw)
    assert (mms.error_energy(space, traj, case, params)
            == mms.error_energy(space, traj, raw, params))
    assert (stability_check(traj, space, params, f, case.initial)
            == stability_check(traj, space, params, f_raw, raw.initial))


def test_spatial_factors_evaluated_once_per_point_set(monkeypatch):
    # a miniature of the long memory run: Type I, memory and Caputo,
    # then both error norms and the stability check
    calls = {"S": [], "gradS": [], "lapS": []}
    separable = mms._separable

    def counted(key, fn):
        def spatial(x):
            calls[key].append(x)
            return fn(x)
        return spatial

    def counting(name, profile, dprofile, S, gradS, lapS, homogeneous):
        return separable(name, profile, dprofile, counted("S", S),
                         counted("gradS", gradS), counted("lapS", lapS), homogeneous)

    monkeypatch.setattr(mms, "_separable", counting)
    case = mms.type_one()
    params = ModelParams(nu=1.0, alpha=1.0, beta=1.0, reaction_gamma=0.5, delta=1, eta=1.0)
    spec = KernelSpec(mu=0.5, caputo_order=0.5)
    case.self_check()
    forcing = mms.forcing(case, params, spec)
    n_forcing = []

    def f(x, t):
        n_forcing.append(t)
        return forcing(x, t)

    space = CRSpace(generate_rect_mesh(UNIT, 4))
    traj = BackwardEulerSolver(space, params, TimeGrid(1.0, 40), forcing=f,
                               u0=case.initial, kernel_spec=spec).run()
    stability_check(traj, space, params, f, case.initial)
    mms.error_linf_l2(space, traj, case)
    mms.error_energy(space, traj, case, params)
    X = space.volume_quad(5)[2]
    on_X = {k: sum(np.shares_memory(x, X) for x in v) for k, v in calls.items()}
    assert len(n_forcing) == 2 * 3 * 40
    assert on_X == {"S": 1, "gradS": 1, "lapS": 1}


def test_point_set_cache_follows_its_argument():
    case = mms.type_two()

    def S(x):
        return np.sin(2 * np.pi * x[:, 0]) * np.sin(2 * np.pi * x[:, 1])

    Xa = CRSpace(generate_rect_mesh(UNIT, 2)).volume_quad(5)[2].reshape(-1, 2)
    Xb = CRSpace(generate_rect_mesh(UNIT, 3)).volume_quad(5)[2].reshape(-1, 2)
    va = case.spatial(Xa)
    assert not va.flags.writeable
    assert np.array_equal(case.spatial(Xb), S(Xb))
    assert np.array_equal(case.spatial(Xa), va)
    assert np.array_equal(case.spatial(Xa[::2]), S(Xa[::2]))
    # writable points, changed in place between calls, give the new values
    x = np.random.default_rng(4).uniform(0, 1, (12, 2))
    first = case.spatial(x)
    x += 0.01
    assert np.array_equal(case.spatial(x), S(x))
    assert not np.array_equal(case.spatial(x), first)
    assert np.array_equal(case.u(x, 0.5), 0.5**1.5 * S(x))
    # a read-only view of writable memory is not a fixed point set
    view = x.view()
    view.flags.writeable = False
    before = case.spatial(view)
    x -= 0.02
    assert np.array_equal(case.spatial(view), S(x))
    assert not np.array_equal(case.spatial(view), before)


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
