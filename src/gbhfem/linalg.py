"""Sparse linear algebra behind the Newton solves.

Matrices are scipy CSR in canonical form (sorted indices, summed
duplicates).  Every solve meets ||Ax - b|| <= 1e-10 (1 + ||b||) and has
two paths:

* "lu": SuperLU of A itself with COLAMD ordering, one factorization per
  call; deterministic for a fixed matrix.
* "gmres": Newton-Krylov.  GMRES on A, right-preconditioned by a fixed
  factor of a nearby matrix P (``factorize``, MMD ordering on A^T + A),
  so the solver factors the constant part of its Newton matrix once per
  run.  A call whose GMRES misses the tolerance falls back to the "lu"
  path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrixError

__all__ = ["SolveStats", "factorize", "solve", "add_scaled", "canonical_csr"]

SOLVE_RTOL = 1e-10
GMRES_RESTART = 60


@dataclass
class SolveStats:
    """Counters one or more ``solve`` calls add to."""

    krylov_iters: int = 0
    lu_fallbacks: int = 0


def canonical_csr(A):
    """CSR with sorted column indices and no duplicate entries."""
    A = sp.csr_matrix(A)
    A.sum_duplicates()
    A.sort_indices()
    return A


def add_scaled(accumulator, A, c):
    """Entrywise ``accumulator + c * A`` on the union sparsity pattern."""
    if accumulator.shape != A.shape:
        raise ValueError(f"shape mismatch: {accumulator.shape} vs {A.shape}")
    return canonical_csr(accumulator + c * A)


def _splu(A, permc_spec):
    try:
        return spla.splu(sp.csc_matrix(A), permc_spec=permc_spec)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularMatrixError(str(exc)) from exc


def factorize(A):
    """SuperLU factor of A with minimum-degree ordering on A^T + A.

    On the structurally symmetric FE matrices this has about half the
    fill of COLAMD, which makes both the factorization and every later
    triangular solve cheaper.  ``.solve(v)`` applies A^{-1}.
    """
    return _splu(A, "MMD_AT_PLUS_A")


def _residual(A, x, b):
    if not np.all(np.isfinite(x)):
        return np.inf
    return float(np.linalg.norm(A @ x - b))


def _direct(A, b, tol):
    lu = _splu(A, "COLAMD")
    x = lu.solve(b)
    if _residual(A, x, b) > tol:
        x = x + lu.solve(b - A @ x)  # one step of iterative refinement
    res = _residual(A, x, b)
    if res > tol:
        raise SingularMatrixError(
            f"direct solve residual {res:.3e} exceeds tolerance {tol:.3e}"
        )
    return x


def _gmres(A, b, tol, precond, maxiter, stats):
    """Right-preconditioned GMRES: solve (A P^{-1}) y = b, x = P^{-1} y.

    The Krylov residual is then the true residual of A x = b.  GMRES aims
    at a tenth of ``tol``, so that the recomputed residual passes too, and
    below ||b||^2 (the Eisenstat-Walker forcing term eta = ||b||), so that
    a Newton iteration whose residual is b still converges quadratically;
    never below the 1e-12 ||b|| that rounding allows.  Returns None when
    ``tol`` is missed.
    """
    AP = spla.LinearOperator(A.shape, matvec=lambda v: A @ precond(v), dtype=float)
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    bnorm = np.linalg.norm(b)
    target = max(min(0.1 * tol, bnorm**2), 1e-12 * bnorm)
    y, _ = spla.gmres(AP, b, rtol=0.0, atol=target, restart=GMRES_RESTART,
                      maxiter=maxiter, callback=count, callback_type="pr_norm")
    if stats is not None:
        stats.krylov_iters += iters
    x = precond(y)
    return x if _residual(A, x, b) <= tol else None


def solve(A, b, method="lu", precond=None, stats=None, gmres_maxiter=3):
    """Solve A x = b with residual ||Ax-b|| <= 1e-10 (1 + ||b||).

    ``method`` is "lu" (sparse LU of A, deterministic pivoting/ordering)
    or "gmres" (GMRES on A, right-preconditioned by ``precond``, a
    callable v -> P^{-1} v such as ``factorize(P).solve``).  GMRES restarts every 60 iterations and
    stops after ``gmres_maxiter`` cycles; if it has missed the tolerance
    by then, A is factored directly for this call.  ``stats``, a
    SolveStats, counts Krylov iterations and those fallbacks.  A matrix
    that is singular to tolerance raises SingularMatrixError.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} vs rhs {b.shape}")
    if method not in ("lu", "gmres"):
        raise ValueError(f"unknown solve method {method!r}")
    if method == "gmres" and precond is None:
        raise ValueError("gmres needs a preconditioner")
    tol = SOLVE_RTOL * (1.0 + np.linalg.norm(b))

    if method == "gmres":
        x = _gmres(A, b, tol, precond, gmres_maxiter, stats)
        if x is not None:
            return x
        if stats is not None:
            stats.lu_fallbacks += 1
    return _direct(A, b, tol)
