"""Time quadrature for the weakly singular memory term.

The convolution int_0^t K(t-s) psi(s) ds with a power-law kernel
K(t) = t^(-mu), mu in [0, 1), is discretized with double-averaged
weights

    omega_kj = dt^-2 * int_{t_{k-1}}^{t_k} int_{t_{j-1}}^{min(t, t_j)} K(t-s) ds dt,

which are nonnegative and preserve the kernel's positivity in the
discrete energy balance.  For power-law kernels the double integrals
have closed forms (second differences of the double antiderivative), so
weights carry no quadrature error near the singularity.  The same
weights applied to difference quotients give an L1-type scheme for the
Caputo fractional derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

__all__ = [
    "KernelSpec", "KernelWeights",
    "memory_weights", "caputo_weights", "convolve_power", "caputo_power",
    "resolve_caputo_order",
]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel selection: power-law t^(-mu), constant, or a user callable.

    ``mu`` must lie in [0, 1) so the kernel is integrable on (0, T).
    ``caputo_order``, when set, requests the additional fractional time
    derivative of that order.
    """

    kind: str = "power"            # "power" | "constant" | "callable"
    mu: float = 0.5
    caputo_order: float | None = None
    k_func: object = None          # K(t) for kind="callable"; must be bounded

    def __post_init__(self):
        if self.kind not in ("power", "constant", "callable"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "constant":
            object.__setattr__(self, "mu", 0.0)
        if self.kind in ("power", "constant") and not 0.0 <= self.mu < 1.0:
            raise ValueError(f"kernel exponent mu must lie in [0, 1), got {self.mu!r}")
        if self.kind == "callable" and not callable(self.k_func):
            raise ValueError("kind='callable' requires k_func")
        if self.caputo_order is not None and not 0.0 < self.caputo_order < 1.0:
            raise ValueError(f"caputo order must lie in (0, 1), got {self.caputo_order!r}")


def resolve_caputo_order(kernel_spec, caputo_order):
    """The Caputo order of a run: ``caputo_order``, else the spec's.

    ``kernel_spec`` may be None.  Raises ValueError when both orders are
    set and differ.
    """
    spec_order = None if kernel_spec is None else kernel_spec.caputo_order
    if caputo_order is None:
        return spec_order
    if spec_order is not None and spec_order != caputo_order:
        raise ValueError(f"caputo_order {caputo_order!r} differs from the kernel "
                         f"spec's caputo_order {spec_order!r}")
    return caputo_order


@dataclass
class KernelWeights:
    """Lower-triangular weight table omega_kj, 1 <= j <= k <= n_steps.

    On a uniform grid the weights depend only on the lag k - j, so one
    vector of per-lag values is stored; ``row`` and ``dense`` materialize
    rows or the full table on demand.
    """

    delta_t: float
    n_steps: int
    lag_weights: np.ndarray      # (n_steps,) value at lag m = k - j

    def row(self, k):
        """omega_k1 .. omega_kk as an array of length k."""
        if not 1 <= k <= self.n_steps:
            raise ValueError(f"row index {k} out of range")
        return self.lag_weights[k - 1 :: -1].copy()

    def dense(self):
        out = np.zeros((self.n_steps, self.n_steps))
        for k in range(1, self.n_steps + 1):
            out[k - 1, :k] = self.row(k)
        return out

    @property
    def diagonal(self):
        return float(self.lag_weights[0])


def _double_antiderivative_power(x, mu):
    # K2 with K2'' = t^(-mu): x^(2-mu) / ((1-mu)(2-mu))
    return x ** (2.0 - mu) / ((1.0 - mu) * (2.0 - mu))


def memory_weights(spec, delta_t, n_steps):
    """Nonnegative quadrature weights for the memory convolution.

    Power-law and constant kernels use exact closed forms; callable
    kernels are integrated numerically (they must be bounded).
    """
    if not delta_t > 0.0:
        raise ValueError("delta_t must be positive")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    n_steps = int(n_steps)

    if spec.kind in ("power", "constant"):
        mu = spec.mu
        if not 0.0 <= mu < 1.0:
            raise ValueError(f"kernel exponent mu must lie in [0, 1), got {mu!r}")
        m = np.arange(n_steps, dtype=float)
        K2 = lambda x: _double_antiderivative_power(x, mu)
        lag = np.empty(n_steps)
        lag[0] = K2(delta_t) / delta_t**2
        if n_steps > 1:
            mm = m[1:]
            lag[1:] = (
                K2((mm + 1.0) * delta_t) - 2.0 * K2(mm * delta_t) + K2((mm - 1.0) * delta_t)
            ) / delta_t**2
        # convexity of K2 makes these second differences nonnegative;
        # clip pure roundoff noise
        lag[lag < 0.0] = 0.0
        return KernelWeights(float(delta_t), n_steps, lag)

    from scipy.integrate import dblquad

    K = spec.k_func
    lag = np.empty(n_steps)
    for m in range(n_steps):
        t0, t1 = m * delta_t, (m + 1.0) * delta_t
        # region: t in (t0, t1), s in (t - t1 ... ) rewritten in lag variable
        val, _ = dblquad(
            lambda s, t: K(t - s),
            t0, t1,
            lambda t: 0.0,
            lambda t: min(t, delta_t),
            epsabs=1e-13, epsrel=1e-11,
        )
        lag[m] = val / delta_t**2
    return KernelWeights(float(delta_t), n_steps, lag)


def caputo_weights(mu_c, delta_t, n_steps):
    """Weights of the discrete Caputo derivative of order ``mu_c``.

    The derivative is approximated by (1/Gamma(1-mu)) * sum_j omega_kj
    (u^j - u^{j-1}) with the same double-averaged quadrature applied to
    the piecewise-constant difference quotient; the Gamma factor is
    folded into the returned weights.
    """
    if not 0.0 < mu_c < 1.0:
        raise ValueError(f"caputo order must lie in (0, 1), got {mu_c!r}")
    w = memory_weights(KernelSpec(kind="power", mu=mu_c), delta_t, n_steps)
    w.lag_weights = w.lag_weights / gamma_fn(1.0 - mu_c)
    return w


def _profile_terms(profile):
    terms = tuple((float(c), float(p)) for c, p in profile)
    for _, p in terms:
        if p <= -1.0:
            raise ValueError(f"profile power {p} must exceed -1")
    return terms


def _power_sum(terms, t):
    """sum of coef * t^power over terms for t > 0, and 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = 0.0
    for coef, power in terms:
        out = out + coef * t**power
    out = np.where(t > 0.0, out, 0.0)
    return out if out.ndim else float(out)


# The t-independent factors of convolve_power and caputo_power, per
# (profile terms, order): a forcing evaluates the same ones at every time.

@lru_cache(maxsize=64)
def _beta_terms(terms, mu):
    return tuple((c * beta_fn(1.0 - mu, p + 1.0), p + 1.0 - mu) for c, p in terms)


@lru_cache(maxsize=64)
def _gamma_terms(terms, mu_c):
    return tuple((c * gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - mu_c), p - mu_c)
                 for c, p in terms if p != 0.0)


def convolve_power(profile, spec, t):
    """Exact int_0^t (t-tau)^(-mu) g(tau) dtau for g = sum c * tau^p.

    Uses the Beta identity int_0^t (t-tau)^(-mu) tau^p dtau =
    B(1-mu, p+1) t^(p+1-mu).  ``profile`` is an iterable of (c, p) pairs
    with p > -1.
    """
    if spec.kind == "callable":
        raise ValueError("closed-form convolution needs a power-law kernel")
    terms = _beta_terms(_profile_terms(profile), spec.mu)
    return _power_sum(terms, t)


def caputo_power(profile, mu_c, t):
    """Exact Caputo derivative of order mu_c of g = sum c * t^p, p >= 0.

    d^mu/dt^mu t^p = Gamma(p+1)/Gamma(p+1-mu) t^(p-mu); constant terms
    drop out.
    """
    if not 0.0 < mu_c < 1.0:
        raise ValueError(f"caputo order must lie in (0, 1), got {mu_c!r}")
    terms = _gamma_terms(_profile_terms(profile), float(mu_c))
    return _power_sum(terms, t)
