"""Sparse linear algebra behind the Newton solves.

Matrices are scipy CSR in canonical form (sorted indices, summed
duplicates).  All matrices of one space live on one ``BlockPattern``:
they share its ``indptr``/``indices`` and differ only in ``data``, so
sums of them are sums of ``data`` vectors.  Every solve meets
||Ax - b|| <= 1e-10 (1 + ||b||) and has two paths:

* "lu": SuperLU of A itself with COLAMD ordering, one factorization per
  call; deterministic for a fixed matrix.
* "gmres": Newton-Krylov.  GMRES on A, right-preconditioned by the
  factor of a nearby matrix P (``factorize``, MMD ordering on A^T + A),
  which the solver keeps across Newton iterations and steps and rebuilds
  only when GMRES starts to need many iterations.  A call whose GMRES
  misses the tolerance falls back to the "lu" path.

Norms are the overflow-safe ``norm``, so a huge right-hand side keeps a
finite tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrixError

__all__ = ["SolveStats", "BlockPattern", "factorize", "solve", "norm"]

SOLVE_RTOL = 1e-10
GMRES_RESTART = 60
GMRES_MAXITER = 3         # restart cycles before the LU fallback
#: a Newton solver whose last GMRES solve took more iterations than this
#: factors its current matrix as the new preconditioner
REFRESH_KRYLOV_ITERS = 10


@dataclass
class SolveStats:
    """Counters one or more ``solve`` calls add to."""

    krylov_iters: int = 0
    lu_fallbacks: int = 0
    precond_refreshes: int = 0    # preconditioner factors the caller rebuilt


def norm(v):
    """Euclidean norm of v, finite whenever v is and the norm is
    representable: a sum of squares that overflows is redone on v / max|v|."""
    vnorm = float(np.linalg.norm(v))
    if np.isinf(vnorm) and np.all(np.isfinite(v)):
        m = np.abs(v).max()
        vnorm = float(m * np.linalg.norm(v / m))
    return vnorm


class BlockPattern:
    """One CSR sparsity pattern for every matrix of a space, built once.

    The pattern is the union of the 3x3 dof blocks in ``blocks``, a dict
    of name -> (row_dofs, col_dofs) with both arrays (m, 3): block e
    couples rows row_dofs[e] with columns col_dofs[e].  ``slots[name]``
    (m, 9) holds the position in ``data`` of entry (row_dofs[e, i],
    col_dofs[e, j]) at column 3*i + j, so a form adds its block values
    into a data vector with ``np.add.at(data, slots, values)``.
    ``indptr`` and ``indices`` are read-only: matrices share them, and an
    in-place change such as ``eliminate_zeros`` would corrupt every one.
    """

    def __init__(self, n, blocks):
        self.n = int(n)
        keys = [(np.repeat(r, 3, axis=1) * self.n + np.tile(c, (1, 3))).ravel()
                for r, c in blocks.values()]
        unique, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        self.nnz = len(unique)
        counts = np.bincount(unique // self.n, minlength=self.n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self.indices = (unique % self.n).astype(np.int32)
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        ends = np.cumsum([len(k) for k in keys])
        self.slots = {name: part.reshape(-1, 9) for name, part in
                      zip(blocks, np.split(inverse.ravel(), ends[:-1]))}

    def matrix(self, data):
        """CSR matrix with this pattern and the given ``data`` (nnz,)."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def dirichlet_slots(self, dofs):
        """Positions of the entries in the rows or columns of ``dofs``, and
        of the diagonal entries of ``dofs``; zeroing the first and setting
        the second to one is the strong constraint ``Di A Di + Db``."""
        if not len(dofs):                   # nothing constrained (DG)
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        on = np.zeros(self.n, dtype=bool)
        on[dofs] = True
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return (np.flatnonzero(on[rows] | on[self.indices]),
                np.flatnonzero(on[rows] & (rows == self.indices)))


def _splu(A, permc_spec):
    # entries a constraint zeroed stay in a pattern matrix; they must not
    # couple dofs in the ordering or the fill
    A = sp.csc_matrix(A, copy=True)
    A.eliminate_zeros()
    try:
        return spla.splu(A, permc_spec=permc_spec)
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
    return norm(A @ x - b)


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


def _gmres(A, b, tol, precond, stats):
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

    bnorm = norm(b)
    # bnorm * bnorm is inf on overflow, where a float's ** 2 would raise
    target = max(min(0.1 * tol, bnorm * bnorm), 1e-12 * bnorm)
    y, _ = spla.gmres(AP, b, rtol=0.0, atol=target, restart=GMRES_RESTART,
                      maxiter=GMRES_MAXITER, callback=count, callback_type="pr_norm")
    if stats is not None:
        stats.krylov_iters += iters
    x = precond(y)
    return x if _residual(A, x, b) <= tol else None


def solve(A, b, method="lu", precond=None, stats=None):
    """Solve A x = b with residual ||Ax-b|| <= 1e-10 (1 + ||b||).

    ``method`` is "lu" (sparse LU of A, deterministic pivoting/ordering)
    or "gmres" (GMRES on A, right-preconditioned by ``precond``, a
    callable v -> P^{-1} v such as ``factorize(P).solve``).  GMRES
    restarts every ``GMRES_RESTART`` iterations and stops after
    ``GMRES_MAXITER`` cycles; if it has missed the tolerance by then, A
    is factored directly for this call.  ``stats``, a SolveStats, counts
    Krylov iterations and those fallbacks.  A matrix that is singular to
    tolerance raises SingularMatrixError.
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
    tol = SOLVE_RTOL * (1.0 + norm(b))

    if method == "gmres":
        x = _gmres(A, b, tol, precond, stats)
        if x is not None:
            return x
        if stats is not None:
            stats.lu_fallbacks += 1
    return _direct(A, b, tol)
