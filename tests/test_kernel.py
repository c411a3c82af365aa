import numpy as np
import pytest
from scipy.integrate import quad

from gbhfem.kernel import (KernelSpec, caputo_power, caputo_weights,
                           convolve_power, memory_weights)


def oracle_lag_weight(mu, dt, m):
    """Adaptive numeric double integration of the weight at lag m.

    The inner integral uses QUADPACK's algebraic-weight handling when the
    integration region touches the kernel singularity (m = 0).
    """
    def inner(t):
        if m == 0:
            val, _ = quad(lambda s: 1.0, 0.0, t - 0.0 * dt, weight="alg",
                          wvar=(-mu, 0.0), epsabs=1e-14, epsrel=1e-13)
            return val
        lo = (m - 1) * dt + (t - m * dt)
        hi = m * dt + (t - m * dt)
        val, _ = quad(lambda s: s**-mu if mu else 1.0, lo, hi,
                      epsabs=1e-14, epsrel=1e-13)
        return val

    val, _ = quad(inner, m * dt, (m + 1) * dt, epsabs=1e-15, epsrel=1e-12, limit=200)
    return val / dt**2


def test_constant_kernel_weights():
    w = memory_weights(KernelSpec(kind="constant"), 0.2, 6)
    assert abs(w.diagonal - 0.5) < 1e-14
    for k in range(2, 7):
        row = w.row(k)
        assert np.abs(row[:-1] - 1.0).max() < 1e-14
        assert abs(row[-1] - 0.5) < 1e-14


def test_sqrt_kernel_diagonal():
    for dt in (0.1, 0.02):
        w = memory_weights(KernelSpec(mu=0.5), dt, 4)
        assert abs(w.diagonal - (4.0 / 3.0) * dt**-0.5) < 1e-12 * dt**-0.5


def test_weights_match_numeric_oracle():
    dt, n = 0.1, 20
    w = memory_weights(KernelSpec(mu=0.5), dt, n)
    for m in range(n):
        o = oracle_lag_weight(0.5, dt, m)
        assert abs(w.lag_weights[m] - o) <= 1e-9 * abs(o)


def test_weights_nonnegative_and_stationary():
    for mu in (0.0, 0.25, 0.5, 0.75):
        w = memory_weights(KernelSpec(mu=mu), 0.05, 12)
        assert np.all(w.lag_weights >= 0.0)
        dense = w.dense()
        for k in range(1, 13):
            for j in range(1, k + 1):
                assert dense[k - 1, j - 1] == w.lag_weights[k - j]
        # strictly lower triangle of the transpose is empty
        assert np.all(dense[np.triu_indices(12, 1)] == 0.0)


def test_weight_errors():
    with pytest.raises(ValueError):
        KernelSpec(mu=1.0)
    with pytest.raises(ValueError):
        KernelSpec(mu=1.2)
    with pytest.raises(ValueError):
        memory_weights(KernelSpec(mu=0.5), 0.0, 4)
    with pytest.raises(ValueError):
        memory_weights(KernelSpec(mu=0.5), 0.1, 0)
    with pytest.raises(ValueError):
        caputo_weights(1.2, 0.1, 4)


def test_callable_kernel_matches_power_law():
    # bounded kernel: compare the numeric path against the closed form mu=0
    spec = KernelSpec(kind="callable", k_func=lambda t: 1.0)
    w_num = memory_weights(spec, 0.3, 4)
    w_exact = memory_weights(KernelSpec(kind="constant"), 0.3, 4)
    assert np.abs(w_num.lag_weights - w_exact.lag_weights).max() < 1e-9


def test_caputo_constant_is_zero():
    w = caputo_weights(0.5, 0.1, 10)
    u = np.full(11, 3.7)
    for k in range(1, 11):
        diffs = np.diff(u[: k + 1])
        assert abs(float(w.row(k) @ diffs)) == 0.0


def test_caputo_of_t_first_order():
    # discrete Caputo(1/2) of u(t) = t approaches 2 sqrt(t)/sqrt(pi)
    errs = []
    for n in (16, 32, 64):
        dt = 1.0 / n
        w = caputo_weights(0.5, dt, n)
        disc = float(w.row(n).sum()) * dt     # u^j - u^{j-1} = dt
        errs.append(abs(disc - 2.0 / np.sqrt(np.pi)))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert min(ratios) > 1.7 and max(ratios) < 2.3
    assert np.all(w.lag_weights > 0.0)


def test_convolve_power_examples():
    spec = KernelSpec(mu=0.5)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    out = convolve_power([(1.0, 0.0)], spec, t)
    assert np.abs(out - 2.0 * np.sqrt(t)).max() < 1e-13
    got = convolve_power([(1.0, 1.5)], spec, 2.0)
    assert abs(got - (3.0 * np.pi / 8.0) * 4.0) < 1e-12
    assert convolve_power([(0.0, 2.0)], spec, 1.0) == 0.0
    with pytest.raises(ValueError):
        convolve_power([(1.0, -1.5)], spec, 1.0)


def test_convolve_power_against_quadrature():
    spec = KernelSpec(mu=0.25)
    profile = [(2.0, 3.0), (-1.0, 2.0), (0.5, 0.0)]
    t = 0.7
    want, _ = quad(lambda s: (t - s) ** -0.25 * (2 * s**3 - s**2 + 0.5), 0.0, t,
                   points=[t], epsabs=1e-13, epsrel=1e-12)
    assert abs(convolve_power(profile, spec, t) - want) < 1e-10


def test_caputo_power_closed_form():
    # d^(1/2)/dt^(1/2) of t = 2 sqrt(t/pi); constants drop out
    t = 0.81
    got = caputo_power([(1.0, 1.0), (5.0, 0.0)], 0.5, t)
    assert abs(got - 2.0 * np.sqrt(t / np.pi)) < 1e-13


def per_call_convolve_power(profile, spec, t):
    """convolve_power with its Beta factors evaluated at every call (the
    reference oracle of the cached factors)."""
    from scipy.special import beta as beta_fn
    mu = spec.mu
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    for c, p in profile:
        out = out + np.where(pos, c * beta_fn(1.0 - mu, p + 1.0) * t**(p + 1.0 - mu), 0.0)
    return out if out.ndim else float(out)


def per_call_caputo_power(profile, mu_c, t):
    """caputo_power with its Gamma factors evaluated at every call."""
    from scipy.special import gamma as gamma_fn
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    for c, p in profile:
        if p == 0.0:
            continue
        coef = c * gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - mu_c)
        out = out + np.where(pos, coef * t**(p - mu_c), 0.0)
    return out if out.ndim else float(out)


PROFILES = [[(1.0, 3.0), (-1.0, 2.0), (1.0, 0.0)], [(2.0, 1.5)], [(1.0, 0.0)],
            [(0.5, 0.75), (-3.0, 2.0), (1e-3, 1.0)]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # negative powers of t = 0
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, 0.9])
def test_power_closed_forms_bit_identical_to_per_call_factors(profile, mu):
    ts = [0.0, 1e-300, 0.37, 1.0, 2.5, np.linspace(0.0, 3.0, 31)]
    for t in ts:
        for _ in range(2):                  # the second call hits the cache
            assert np.array_equal(convolve_power(profile, KernelSpec(mu=mu), t),
                                  per_call_convolve_power(profile, KernelSpec(mu=mu), t))
            if mu > 0.0:
                assert np.array_equal(caputo_power(profile, mu, t),
                                      per_call_caputo_power(profile, mu, t))
    assert type(convolve_power(profile, KernelSpec(mu=mu), 0.5)) is float


def test_manufactured_forcing_bit_identical_to_per_call_factors(monkeypatch):
    from gbhfem import mms
    from gbhfem.forms import ModelParams

    case = mms.type_one()
    params = ModelParams(eta=1.0)
    spec = KernelSpec(mu=0.5, caputo_order=0.5)
    x = np.random.default_rng(5).uniform(0.0, 1.0, (40, 2))
    times = np.linspace(0.0, 1.0, 17)
    got = [mms.forcing(case, params, spec)(x, t) for t in times]
    monkeypatch.setattr(mms, "convolve_power", per_call_convolve_power)
    monkeypatch.setattr(mms, "caputo_power", per_call_caputo_power)
    want = [mms.forcing(case, params, spec)(x, t) for t in times]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_discrete_positivity():
    # sum_k sum_j omega_kj dt^2 v_j v_k >= 0 for the power-law family
    rng = np.random.default_rng(9)
    for mu in (0.0, 0.25, 0.5, 0.75):
        w = memory_weights(KernelSpec(mu=mu), 0.05, 30)
        for _ in range(20):
            v = rng.standard_normal(31)
            total = sum(
                w.delta_t**2 * float(w.row(k) @ v[1 : k + 1]) * v[k]
                for k in range(1, 31)
            )
            assert total >= -1e-10


def test_convolution_quadrature_first_order():
    # sum_j omega_kj dt g(t_j) -> int_0^{t_k} K(t_k - s) g(s) ds at O(dt)
    mu, T = 0.5, 1.0
    g = lambda s: np.cos(3.0 * s)
    exact, _ = quad(lambda s: (T - s) ** -mu * g(s), 0.0, T, points=[T],
                    epsabs=1e-13, epsrel=1e-12)
    errs = []
    for n in (32, 64, 128):
        dt = T / n
        w = memory_weights(KernelSpec(mu=mu), dt, n)
        tj = dt * np.arange(1, n + 1)
        disc = dt * float(w.row(n) @ g(tj))
        errs.append(abs(disc - exact))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) >= 0.8
