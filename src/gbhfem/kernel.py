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
Caputo fractional derivative.  ``History`` sums sum_{j<k} omega_kj h_j
exactly over its caller's rows, one block of steps per matrix product.

``PowerSum`` is the one closed-form algebra of the power law on a
profile sum_i c_i t^(p_i): its derivative, its convolution with
t^(-mu) (Beta identity) and its Caputo derivative (Gamma identity;
Podlubny, Fractional Differential Equations, 1999, sec. 2.3) are power
sums again.  The manufactured forcing of a separable case builds them
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

__all__ = [
    "KernelSpec", "KernelWeights", "History", "HISTORY_BLOCK",
    "memory_weights", "caputo_weights", "PowerSum", "resolve_caputo_order",
]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel selection: power-law t^(-mu) or constant.

    ``mu`` must lie in [0, 1) so the kernel is integrable on (0, T).
    ``caputo_order``, when set, requests the additional fractional time
    derivative of that order.
    """

    kind: str = "power"            # "power" | "constant"
    mu: float = 0.5
    caputo_order: float | None = None

    def __post_init__(self):
        if self.kind not in ("power", "constant"):
            raise ValueError(f"kernel kind must be one of ('power', 'constant'), "
                             f"got {self.kind!r}")
        if self.kind == "constant":
            object.__setattr__(self, "mu", 0.0)
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"kernel exponent mu must lie in [0, 1), got {self.mu!r}")
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


#: Steps per block of ``History``: the rows older than a block are summed
#: for all its steps in one matrix product.
HISTORY_BLOCK = 32


class History:
    """The weighted history sums of one kernel over the caller's rows.

    ``rows`` is the caller's (n_steps, n) array, row j - 1 holding h_j,
    kept without a copy.  ``known(k)``, called in step order, returns
    sum_{j<k} omega_kj h_j and reads only h_1 .. h_{k-1}, so row k - 1
    may be written after it.  On the first step k0 of each block of
    ``HISTORY_BLOCK`` steps, h_1 .. h_{k0-1} are summed for every step of
    the block at once: a (B, k0-1) Toeplitz window of the lag weights
    times the (k0-1, n) rows, one matrix product that reads the rows once
    per block instead of once per step.  The rows of the block itself are
    added per step: the direct sum ``weights.row(k)[:k-1] @ rows[:k-1]``
    in another order.
    """

    def __init__(self, weights, rows):
        self._lag = weights.lag_weights
        self._rows = rows
        self._block = 0            # first step of the block in ``_older``
        self._older = None         # (B, n) sums over the rows before it

    def known(self, k):
        k0 = k - (k - 1) % HISTORY_BLOCK
        if k0 != self._block:
            self._older = None          # free the last block's sums first
            self._block, self._older = k0, self._older_sums(k0)
        r = k - k0
        out = self._lag[r:0:-1] @ self._rows[k0 - 1 : k - 1]
        if self._older is not None:
            out += self._older[r]
        return out

    def _older_sums(self, k0):
        """Row r: sum_{j<k0} omega_{k0+r, j} h_j for the block's steps."""
        if k0 == 1:
            return None
        n_lags = len(self._lag)
        size = min(HISTORY_BLOCK, n_lags - k0 + 1)
        # window i of the reversed lags holds lag[n_lags-1-i-c] at column c,
        # so window n_lags-k0-r is row r: lag[k0-1+r-c] weighs h_{c+1}
        windows = sliding_window_view(self._lag[::-1], k0 - 1)
        toeplitz = windows[n_lags - k0 - size + 1 : n_lags - k0 + 1][::-1]
        return toeplitz @ self._rows[: k0 - 1]


#: Terms of the binomial series in ``_second_difference``; at lag 2 the
#: first one left out is below 4^-30 of the sum.
_SERIES_TERMS = 30


def _second_difference(a, m):
    """(m+1)^a - 2 m^a + (m-1)^a for the lags m >= 1, 1 <= a <= 2.

    The plain difference loses digits to cancellation at long lags (about
    log10(m^2) of them).  With h = 1/m it equals m^(a-2) * 2 s(h) where
    s(h) = sum_k C(a, 2k) h^(2k-2), the even binomial series of
    (1+h)^a + (1-h)^a - 2, whose terms are all nonnegative for 1 <= a <= 2;
    it converges for m >= 2.  Lag 1 is 2 (2^(a-1) - 1) = 2 expm1((a-1) ln 2).
    """
    out = np.empty(len(m))
    out[m == 1] = 2.0 * np.expm1((a - 1.0) * np.log(2.0))
    far = m >= 2
    h2 = 1.0 / m[far] ** 2
    # C(a, j) by C(a, j+1) = C(a, j) (a - j) / (j + 1); keep the even j
    coef, binom = [], 1.0
    for j in range(2 * _SERIES_TERMS):
        binom *= (a - j) / (j + 1.0)
        if j % 2:
            coef.append(binom)
    s = np.full(len(h2), coef[-1])
    for c in reversed(coef[:-1]):
        s = s * h2 + c
    out[far] = 2.0 * s * m[far] ** (a - 2.0)
    return out


def memory_weights(spec, delta_t, n_steps):
    """Nonnegative quadrature weights for the memory convolution, exact:
    second differences of the kernel's double antiderivative."""
    if not delta_t > 0.0:
        raise ValueError("delta_t must be positive")
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError("n_steps must be a positive integer")
    n_steps = int(n_steps)
    mu = spec.mu
    # K2(t) = t^(2-mu) / ((1-mu)(2-mu)), scaled by dt^-2
    scale = delta_t**-mu / ((1.0 - mu) * (2.0 - mu))
    lag = np.empty(n_steps)
    lag[0] = scale
    lag[1:] = scale * _second_difference(2.0 - mu, np.arange(1.0, n_steps))
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


@dataclass(frozen=True)
class PowerSum:
    """The power sum t -> sum_i c_i t^(p_i) of (c_i, p_i) terms, p_i > -1.

    A float time gives a float and an array of times an array, both
    through numpy.  A ``causal`` sum is 0 for t <= 0.  The transforms
    return new sums: ``derivative``, and the two causal closed forms of
    the weakly singular kernel, ``convolved`` (the Beta identity) and
    ``caputo`` (the Gamma identity).
    """

    terms: tuple
    causal: bool = False

    def __post_init__(self):
        terms = tuple((float(c), float(p)) for c, p in self.terms)
        for _, p in terms:
            if p <= -1.0:
                raise ValueError(f"power {p} must exceed -1")
        object.__setattr__(self, "terms", terms)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        tt = np.where(t > 0.0, t, 1.0) if self.causal else t
        for c, p in self.terms:
            out = out + c * tt**p
        if self.causal:
            out = np.where(t > 0.0, out, 0.0)
        return out if out.ndim else float(out)

    def derivative(self):
        return PowerSum([(c * p, p - 1.0) for c, p in self.terms if p], self.causal)

    def convolved(self, mu):
        """int_0^t (t - s)^(-mu) g(s) ds, by B(1-mu, p+1) t^(p+1-mu) per term."""
        return PowerSum([(c * beta_fn(1.0 - mu, p + 1.0), p + 1.0 - mu)
                         for c, p in self.terms], causal=True)

    def caputo(self, order):
        """The Caputo derivative of the given order, by Gamma(p+1)/Gamma(p+1-order)
        t^(p-order) per term; constants drop out."""
        if not 0.0 < order < 1.0:
            raise ValueError(f"caputo order must lie in (0, 1), got {order!r}")
        return PowerSum([(c * gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - order), p - order)
                         for c, p in self.terms if p != 0.0], causal=True)
