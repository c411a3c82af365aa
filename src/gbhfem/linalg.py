"""Sparse linear algebra behind the Newton solves.

Matrices are scipy CSR in canonical form (sorted indices, summed
duplicates).  All matrices of one space live on one ``BlockPattern``:
they share its ``indptr``/``indices`` and differ only in ``data``, so
sums of them are sums of ``data`` vectors.  Every solve meets
||Ax - b|| <= 1e-10 (1 + ||b||) unless its caller passes a looser
forcing.  Newton corrections are Newton-Krylov: GMRES on A,
right-preconditioned by an incomplete LU factor (ILUTP, drop_tol 1e-3)
of a nearby matrix P (``factorize``), which the solver keeps across
Newton iterations and steps and rebuilds only when GMRES starts to need
many iterations.  GMRES keeps the preconditioned basis Z = P^{-1} V
beside its Arnoldi basis V (Saad, SIAM J. Sci. Comput. 14 (1993) 461),
so each Krylov iteration costs one triangular solve pair and one product
with A, and neither the iterate nor a restart residual needs another
solve.  A Newton solver passes the Eisenstat-Walker forcing of its
correction (Eisenstat & Walker, SIAM J. Sci. Comput. 17 (1996) 16),
which loosens the GMRES aim while the Newton residual is large.  A solve
whose GMRES misses its tolerance falls back to an exact LU of A, which
is also what ``solve`` does without a preconditioner (the tests'
reference).  Every factor is SuperLU with minimum-degree ordering on
A^T + A, deterministic for a fixed matrix.

Norms are the overflow-safe ``norm``, so a huge right-hand side keeps a
finite tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrixError

__all__ = ["SolveStats", "BlockPattern", "factorize", "solve", "norm"]

SOLVE_RTOL = 1e-10
#: GMRES keeps two (GMRES_RESTART, n) bases per call; at 20 each stays
#: below numpy's 4 MiB huge-page advice threshold up to n = 26,214
GMRES_RESTART = 20
GMRES_MAXITER = 9         # restart cycles before the LU fallback
#: a Newton solver whose last GMRES solve took more iterations than this
#: factors its current matrix as the new preconditioner
REFRESH_KRYLOV_ITERS = 10
_EPS = np.finfo(float).eps


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


def _splu(A, **ilu):
    """SuperLU factor of A, exact or, given ILU options ``ilu``, incomplete
    (``spla.spilu``), with minimum-degree ordering on A^T + A: on the
    structurally symmetric FE matrices it has about half the fill of
    COLAMD, so the factorization and every later triangular solve are
    cheaper.  ``.solve(v)`` applies the factor's inverse."""
    # entries a constraint zeroed stay in a pattern matrix; they must not
    # couple dofs in the ordering or the fill
    A = sp.csc_matrix(A, copy=True)
    A.eliminate_zeros()
    try:
        return (spla.spilu if ilu else spla.splu)(A, permc_spec="MMD_AT_PLUS_A", **ilu)
    except RuntimeError as exc:  # "Factor is exactly singular", "matrix is singular"
        raise SingularMatrixError(str(exc)) from exc


def factorize(A):
    """Incomplete LU factor of A (SuperLU's ILUTP: Li & Shao, ACM TOMS 37
    (2011) 43) for use as a preconditioner.  drop_tol 1e-3 is measured on
    the DG spiral; 1e-2 took a quarter more Krylov iterations there and no
    less time.  The direct path calls ``_splu`` itself, so a stand-in for
    ``factorize`` never reaches the LU fallback."""
    return _splu(A, drop_tol=1e-3, fill_factor=10)


def _residual(A, x, b):
    if not np.all(np.isfinite(x)):
        return np.inf
    return norm(A @ x - b)


def _direct(A, b, tol):
    lu = _splu(A)
    x = lu.solve(b)
    if _residual(A, x, b) > tol:
        x = x + lu.solve(b - A @ x)  # one step of iterative refinement
    res = _residual(A, x, b)
    if res > tol:
        raise SingularMatrixError(
            f"direct solve residual {res:.3e} exceeds tolerance {tol:.3e}"
        )
    return x


def _gmres(A, b, aim, accept, precond, stats):
    """Right-preconditioned GMRES(``GMRES_RESTART``) on A x = b; None on a miss.

    Arnoldi builds an orthonormal basis V of the Krylov space of A P^{-1}
    by classical Gram-Schmidt done twice, and keeps Z[j] = P^{-1} V[j], so
    an iteration makes one ``precond`` call and one product with A, and
    the iterate x = Z y costs no further solve.  Givens rotations keep the
    least-squares residual, which is the true residual of A x = b up to
    rounding; a cycle ends once it is at most ``aim``.  A restart starts
    from b - A x.  After ``GMRES_MAXITER`` cycles, or once that residual
    is at most ``aim``, x is returned if its true residual is at most
    ``accept``.  A zero pivot of the rotated Hessenberg matrix (A P^{-1}
    singular on the Krylov space) returns None at once, so that the
    direct path decides.
    """
    n = len(b)
    m = min(GMRES_RESTART, n)
    V = np.empty((m, n))
    Z = np.empty((m, n))
    x = np.zeros(n)
    r, rnorm = b, norm(b)
    for _ in range(GMRES_MAXITER):
        if rnorm <= aim:
            break
        V[0] = r / rnorm
        g = [rnorm]               # rotated right-hand side
        R = []                    # rotated Hessenberg columns
        rotations = []
        for j in range(m):
            stats.krylov_iters += 1
            Z[j] = precond(V[j])
            w = A @ Z[j]
            wnorm = norm(w)
            h = V[:j + 1] @ w
            w -= h @ V[:j + 1]
            h2 = V[:j + 1] @ w
            w -= h2 @ V[:j + 1]
            col = (h + h2).tolist()
            below = norm(w)
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            pivot = math.hypot(col[j], below)
            if pivot == 0.0:
                return None
            c, s = col[j] / pivot, below / pivot
            rotations.append((c, s))
            col[j] = pivot
            R.append(col)
            g.append(-s * g[j])
            g[j] *= c
            # a Krylov space that A P^{-1} maps into itself holds the solution
            if abs(g[j + 1]) <= aim or below <= _EPS * wnorm or j + 1 == m:
                break
            V[j + 1] = w / below
        y = [0.0] * len(R)
        for i in reversed(range(len(R))):
            y[i] = (g[i] - sum(R[k][i] * y[k] for k in range(i + 1, len(R)))) / R[i][i]
        x += np.asarray(y) @ Z[:len(R)]
        r = b - A @ x
        rnorm = norm(r)
    return x if rnorm <= accept else None


def solve(A, b, precond=None, stats=None, forcing=0.0):
    """Solve A x = b with residual ||Ax-b|| <= 1e-10 (1 + ||b||).

    With ``precond``, a callable v -> P^{-1} v such as
    ``factorize(P).solve``, GMRES on A right-preconditioned by it; GMRES
    restarts every ``GMRES_RESTART`` iterations and stops after
    ``GMRES_MAXITER`` cycles, and if it has missed the tolerance by then,
    A is factored directly for this call.  GMRES aims at a tenth of the
    tolerance, and below ||b||^2 so that a Newton correction whose
    right-hand side is the residual b keeps Newton quadratic; never below
    the 1e-12 ||b|| that rounding allows.  A ``forcing`` (a Newton
    solver's Eisenstat-Walker term) can only loosen that aim: GMRES then
    aims at the larger of the two and accepts a residual of up to ten
    times its aim.  Without ``precond``, the direct LU of A, which ignores
    ``forcing``.  ``stats``, a SolveStats, counts Krylov iterations and LU
    fallbacks.  A matrix that is singular to tolerance raises
    SingularMatrixError.
    """
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    if A.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} vs rhs {b.shape}")
    bnorm = norm(b)
    tol = SOLVE_RTOL * (1.0 + bnorm)

    if precond is not None:
        if stats is None:
            stats = SolveStats()
        # bnorm * bnorm is inf on overflow, where a float's ** 2 would raise
        aim = max(min(0.1 * tol, bnorm * bnorm), 1e-12 * bnorm, forcing)
        x = _gmres(A, b, aim, max(tol, 10.0 * aim), precond, stats)
        if x is not None:
            return x
        stats.lu_fallbacks += 1
    return _direct(A, b, tol)
