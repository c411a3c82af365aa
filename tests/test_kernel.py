import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gbhfem.kernel import (HISTORY_BLOCK, History, KernelSpec, PowerSum, caputo_weights,
                           memory_weights)


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


@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9])
def test_weights_match_mpmath_at_long_lags(mu):
    # the second differences of the double antiderivative cancel about
    # log10(m^2) digits at lag m when formed directly
    mpmath = pytest.importorskip("mpmath")
    n = 10_000
    dt = 1.0 / n
    w = memory_weights(KernelSpec(mu=mu), dt, n).lag_weights
    wc = caputo_weights(mu, dt, n).lag_weights
    lags = np.unique(np.r_[0:8, np.geomspace(8, n - 1, 60).astype(int)])
    with mpmath.workdps(40):
        a, h = 2 - mpmath.mpf(mu), mpmath.mpf(dt)
        K2 = lambda m: (m * h) ** a / ((1 - mpmath.mpf(mu)) * a) / h**2
        gamma = mpmath.gamma(1 - mpmath.mpf(mu))
        for m in lags:
            want = K2(1) if m == 0 else K2(m + 1) - 2 * K2(m) + K2(m - 1)
            assert abs(w[m] - want) <= 1e-14 * want
            assert abs(wc[m] - want / gamma) <= 1e-14 * want / gamma


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
    with pytest.raises(ValueError, match="one of \\('power', 'constant'\\)"):
        KernelSpec(kind="callable")


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
    t = np.array([0.0, 0.5, 1.0, 2.0])
    out = PowerSum([(1.0, 0.0)]).convolved(0.5)(t)
    assert np.abs(out - 2.0 * np.sqrt(t)).max() < 1e-13
    got = PowerSum([(1.0, 1.5)]).convolved(0.5)(2.0)
    assert abs(got - (3.0 * np.pi / 8.0) * 4.0) < 1e-12
    assert PowerSum([(0.0, 2.0)]).convolved(0.5)(1.0) == 0.0
    with pytest.raises(ValueError, match="must exceed -1"):
        PowerSum([(1.0, -1.5)])
    with pytest.raises(ValueError, match="must exceed -1"):
        PowerSum([(1.0, -1.0)])
    with pytest.raises(ValueError, match="must exceed -1"):
        PowerSum([(1.0, -0.5)]).caputo(0.75)


def test_convolve_power_against_quadrature():
    profile = PowerSum([(2.0, 3.0), (-1.0, 2.0), (0.5, 0.0)])
    t = 0.7
    want, _ = quad(lambda s: (t - s) ** -0.25 * (2 * s**3 - s**2 + 0.5), 0.0, t,
                   points=[t], epsabs=1e-13, epsrel=1e-12)
    assert abs(profile.convolved(0.25)(t) - want) < 1e-10


def test_caputo_power_closed_form():
    # d^(1/2)/dt^(1/2) of t = 2 sqrt(t/pi); constants drop out
    t = 0.81
    got = PowerSum([(1.0, 1.0), (5.0, 0.0)]).caputo(0.5)(t)
    assert abs(got - 2.0 * np.sqrt(t / np.pi)) < 1e-13
    with pytest.raises(ValueError, match="caputo order"):
        PowerSum([(1.0, 1.0)]).caputo(1.0)


def per_call_convolved(profile, mu, t):
    """The memory term of the profile's (c, p) pairs, its Beta factors
    evaluated at every call (the reference oracle of ``convolved``)."""
    from scipy.special import beta as beta_fn
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    for c, p in profile:
        out = out + np.where(pos, c * beta_fn(1.0 - mu, p + 1.0) * t**(p + 1.0 - mu), 0.0)
    return out if out.ndim else float(out)


def per_call_caputo(profile, mu_c, t):
    """The Caputo term, its Gamma factors evaluated at every call."""
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


def per_call_profile(profile, t):
    """sum c t^p, term by term in numpy (the oracle of a plain PowerSum)."""
    t = np.asarray(t, dtype=float)
    out = sum((c * t**p for c, p in profile), np.zeros(t.shape))
    return out if out.ndim else float(out)


PROFILES = [[(1.0, 3.0), (-1.0, 2.0), (1.0, 0.0)], [(2.0, 1.5)], [(1.0, 0.0)],
            [(0.5, 0.75), (-3.0, 2.0), (1e-3, 1.0)]]
TIMES = [0.0, 1e-300, 0.37, 1.0, 2.5, np.linspace(0.0, 3.0, 31)]


def test_causal_sum_is_zero_without_warning_where_masked():
    # a negative power of t = 0 (or a fractional one of t < 0) is masked to
    # 0 in a causal sum, so it raises no warning; a plain sum still warns
    caputo = PowerSum([(0.5, 0.75), (1.0, 2.0)]).caputo(0.9)
    assert caputo.terms[0][1] < 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert caputo(0.0) == 0.0
        ts = np.array([-1.0, 0.0, 0.25, 0.0])
        assert np.array_equal(caputo(ts) == 0.0, ts <= 0.0)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        PowerSum(caputo.terms)(0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # the oracles' t^p at t = 0
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("mu", [0.0, 0.25, 0.5, 0.9])
def test_power_closed_forms_bit_identical_to_per_call_factors(profile, mu):
    P = PowerSum(profile)
    memory = P.convolved(mu)
    caputo = P.caputo(mu) if mu > 0.0 else None
    for t in TIMES:
        assert np.array_equal(memory(t), per_call_convolved(profile, mu, t))
        if caputo is not None:
            assert np.array_equal(caputo(t), per_call_caputo(profile, mu, t))
    assert type(memory(0.5)) is float


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # t^(-1/4) at t = 0
@pytest.mark.parametrize("profile", PROFILES)
def test_derivative_term_by_term(profile):
    P = PowerSum(profile)
    dP = P.derivative()
    assert dP.terms == tuple((c * p, p - 1.0) for c, p in profile if p)
    assert not dP.causal and not P.causal
    for t in TIMES[1:]:
        assert np.array_equal(P(t), per_call_profile(profile, t))
        assert np.array_equal(dP(t), per_call_profile(dP.terms, t))
    # against central differences at t = 0.6
    h = 1e-6
    assert abs(dP(0.6) - (P(0.6 + h) - P(0.6 - h)) / (2 * h)) < 1e-8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # the derivative's t^(-1/4) at t = 0
@pytest.mark.parametrize("profile", PROFILES)
def test_float_time_is_the_row_of_an_array_of_times(profile):
    # a float time and the matching entry of an array of times take the
    # same numpy path, so they agree bit for bit; a float time gives a float
    ts = TIMES[-1]
    P = PowerSum(profile)
    for fn in (P, P.derivative(), P.convolved(0.5), P.caputo(0.5)):
        rows = fn(ts)
        assert rows.shape == ts.shape
        for t, row in zip(ts.tolist(), rows):
            value = fn(t)
            assert type(value) is float
            assert np.array_equal(value, row)


def test_manufactured_forcing_bit_identical_to_per_call_factors():
    # the separable forcing, its sums built once, against the strong
    # operator summed from the per-call closed forms at each time
    from gbhfem import mms
    from gbhfem.forms import ModelParams

    case = mms.type_one()
    sep = case.separable
    p = ModelParams(eta=1.0)
    spec = KernelSpec(mu=0.5, caputo_order=0.5)
    x = np.random.default_rng(5).uniform(0.0, 1.0, (40, 2))
    times = np.linspace(0.0, 1.0, 17)
    f = mms.forcing(case, p, spec)
    S, gS, lS = sep.S(x), sep.gradS(x), sep.lapS(x)
    Sd = S**p.delta
    Phi = np.stack([S, lS, Sd * (gS[:, 0] + gS[:, 1]), Sd * S, Sd * Sd * S])
    profile = sep.P.terms
    for t in times:
        P = per_call_profile(profile, np.array([t]))
        dP = per_call_profile(sep.P.derivative().terms, np.array([t]))
        a = np.stack([dP + p.beta * p.reaction_gamma * P
                      + per_call_caputo(profile, 0.5, np.array([t])),
                      -p.nu * P - p.eta * per_call_convolved(profile, 0.5, np.array([t])),
                      p.alpha * P**2, -p.beta * (1.0 + p.reaction_gamma) * P**2,
                      p.beta * P**3], axis=1)
        assert np.array_equal(f(x, t), np.einsum("mi,ij->mj", a, Phi)[0])


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


B = HISTORY_BLOCK
HISTORY_WEIGHTS = {
    "memory-mu0.1": lambda n: memory_weights(KernelSpec(mu=0.1), 1.0 / n, n),
    "memory-mu0.5": lambda n: memory_weights(KernelSpec(mu=0.5), 1.0 / n, n),
    "memory-mu0.9": lambda n: memory_weights(KernelSpec(mu=0.9), 1.0 / n, n),
    "constant": lambda n: memory_weights(KernelSpec(kind="constant"), 1.0 / n, n),
    "caputo": lambda n: caputo_weights(0.5, 1.0 / n, n),
}


@pytest.mark.parametrize("n_steps", [1, B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("weights", sorted(HISTORY_WEIGHTS))
def test_history_matches_the_direct_sum(n_steps, weights):
    # the blocked sums against row(k) @ H, the direct sum of every step
    w = HISTORY_WEIGHTS[weights](n_steps)
    H = np.random.default_rng(n_steps).uniform(-1.0, 1.0, (n_steps, 5))
    history = History(w, 5)
    for k in range(1, n_steps + 1):
        got = history.known()
        want = w.row(k)[: k - 1] @ H[: k - 1]
        assert got.shape == (5,)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(initial=0.0)
        history.push(H[k - 1])


def test_history_scratch_per_block_is_bounded():
    # at the long memory run's size the block product's transient memory
    # is the Toeplitz window's copy (B x k0 weights) and the block's
    # (B, n) sums, not a (B, k0) index matrix or a per-step copy of rows
    n_steps, n = 1500, 800
    history = History(memory_weights(KernelSpec(mu=0.5), 1.0 / n_steps, n_steps), n)
    row = np.ones(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(n_steps):
            history.known()
            history.push(row)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * B * n_steps + 2 * B * n + 2 * n)
