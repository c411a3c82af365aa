import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import gbhfem.linalg as linalg
from gbhfem.errors import SingularMatrixError
from gbhfem.forms import assemble_load, assemble_mass, assemble_stiffness_cr, bind_load
from gbhfem.linalg import SolveStats, factorize, solve
from gbhfem.mesh import generate_rect_mesh
from gbhfem.space_cr import CRSpace
from gbhfem.space_dg import DGSpace
from test_solver import _spiral_dg, _wave_cr, count_factors


def test_spmv_identity_and_mass_rows():
    # the solver multiplies with the assembled CSR matrices through A @ x
    I = sp.eye(7, format="csr")
    x = np.arange(7.0)
    assert np.array_equal(I @ x, x)
    space = CRSpace(generate_rect_mesh((0, 0, 1, 1), 2))
    M = assemble_mass(space)
    rows = M @ np.ones(space.n_dofs)
    assert np.abs(rows - np.asarray(M.sum(axis=1)).ravel()).max() < 1e-15


def test_spmv_against_dense_oracle():
    rng = np.random.default_rng(13)
    space = DGSpace(generate_rect_mesh((0, 0, 1, 1), 3))
    A = space.diffusion_matrices(40.0)[1]
    x = rng.standard_normal(space.n_dofs)
    assert np.abs(A @ x - A.toarray() @ x).max() <= 1e-13 * abs(A).max()


def test_spmv_dimension_mismatch():
    space = CRSpace(generate_rect_mesh((0, 0, 1, 1), 2))
    with pytest.raises(ValueError):
        assemble_mass(space) @ np.ones(space.n_dofs + 1)


def test_solve_identity_and_2x2():
    I = sp.eye(4, format="csr")
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.abs(solve(I, b) - b).max() < 1e-14
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = solve(A, np.array([3.0, 4.0]))
    assert np.abs(x - 1.0).max() < 1e-12


def test_solve_spd_from_poisson(dirichlet_system):
    space = CRSpace(generate_rect_mesh((0, 0, 1, 1), 8))  # 200+ dofs
    A = assemble_stiffness_cr(space)
    b = assemble_load(space, bind_load(space, lambda x, t: np.ones(len(x))), 0.0, 1.0)
    J, F, _ = dirichlet_system(space, A, b, None)
    A2, b2 = J, -F          # u = 0 at the boundary midpoints, A u = b elsewhere
    iters = []
    for precond in (None, linalg._splu(A2).solve, factorize(A2).solve):
        stats = SolveStats()
        x = solve(A2, b2, precond=precond, stats=stats)
        assert np.linalg.norm(A2 @ x - b2) <= 1e-10 * (1.0 + np.linalg.norm(b2))
        assert stats.lu_fallbacks == 0
        iters.append(stats.krylov_iters)
    assert iters[0] == 0 and iters[1] <= 2   # preconditioned by A2's exact factor
    assert iters[2] > 0                      # and by its incomplete one


def test_gmres_preconditioned_by_a_nearby_matrix():
    # the Newton-Krylov setting: P is the constant part, A = P + a perturbation
    space = DGSpace(generate_rect_mesh((0, 0, 1, 1), 4))
    P = (assemble_mass(space) * 8.0 + space.diffusion_matrices(40.0)[1]).tocsr()
    rng = np.random.default_rng(7)
    A = (P + 0.5 * sp.diags(rng.uniform(-1.0, 1.0, space.n_dofs)) @ assemble_mass(space)).tocsr()
    b = rng.standard_normal(space.n_dofs)
    stats = SolveStats()
    x = solve(A, b, precond=factorize(P).solve, stats=stats)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))
    assert 0 < stats.krylov_iters <= 30 and stats.lu_fallbacks == 0
    x_lu = solve(A, b)
    assert np.linalg.norm(x - x_lu) <= 1e-8 * np.linalg.norm(x_lu)


def test_gmres_miss_falls_back_to_lu(monkeypatch):
    # an identity preconditioner and one restart cycle on an ill-conditioned
    # SIPG matrix: GMRES misses the tolerance, and the direct path still
    # returns a solution that passes, from an exact LU
    space = DGSpace(generate_rect_mesh((0, 0, 1, 1), 8))
    A = (assemble_mass(space) + space.diffusion_matrices(40.0)[1]).tocsr()
    b = np.random.default_rng(3).standard_normal(space.n_dofs)
    stats = SolveStats()
    monkeypatch.setattr(linalg, "GMRES_MAXITER", 1)
    factors = count_factors(monkeypatch)
    x = solve(A, b, precond=lambda v: v, stats=stats)
    assert stats.lu_fallbacks == 1 and stats.krylov_iters > 0
    assert factors == ["splu"]
    assert np.linalg.norm(A @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_gmres_fallback_keeps_singular_error():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    stats = SolveStats()
    with pytest.raises(SingularMatrixError):
        solve(A, np.array([1.0, 1.0]), precond=lambda v: v, stats=stats)
    assert stats.lu_fallbacks == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # squares overflow on purpose
def test_huge_rhs_keeps_a_finite_tolerance():
    # 1 + ||b|| overflowed to inf once b's entries passed about 1e154, and
    # GMRES then accepted x = 0
    b = np.full(4, 1e200)
    for precond in (lambda v: v, None):
        assert np.array_equal(solve(sp.identity(4, format="csr"), b, precond=precond), b)
    assert linalg.norm(b) == 2e200


def test_factorize_singular_raises():
    with pytest.raises(SingularMatrixError):
        factorize(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]])))


def test_solve_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrixError):
        solve(A, np.array([1.0, 1.0]))


def test_solve_shape_errors():
    with pytest.raises(ValueError):
        solve(sp.csr_matrix(np.ones((2, 3))), np.ones(3))
    with pytest.raises(ValueError):
        solve(sp.eye(3, format="csr"), np.ones(2))


def test_add_scaled():
    # the solver sums matrices of one space as data vectors on the shared
    # pattern; that must equal scipy's sparse sum
    for space in (CRSpace(generate_rect_mesh((0, 0, 1, 1), 3)),
                  DGSpace(generate_rect_mesh((0, 0, 1, 1), 3))):
        M = assemble_mass(space)
        A = space.diffusion_matrices(40.0)[1]
        pattern = space.pattern
        assert abs(pattern.matrix(M.data + 0.0 * A.data) - M).max() == 0.0
        assert abs(pattern.matrix(M.data - M.data)).max() == 0.0
        C = pattern.matrix(M.data + 2.0 * A.data)
        assert abs(C - (M + 2.0 * A)).max() <= 1e-15 * abs(A).max()
        x = np.random.default_rng(23).standard_normal(space.n_dofs)
        assert np.abs(C @ x - (M @ x + 2.0 * (A @ x))).max() <= 1e-13
        with pytest.raises(ValueError):
            pattern.matrix(np.ones(pattern.nnz + 1))


def _newton_system(make):
    # J(u) at the first step's field of a solver miniature, its L_base
    # factor, and a right-hand side with the Newton residual's zero
    # constrained rows
    s = make()
    u = s.run().fields[1]
    _, datum = s.space.dirichlet(s.bc, s.grid.delta_t)
    F = np.random.default_rng(5).standard_normal(s.space.n_dofs)
    F[s.space.boundary_dofs] = 0.0
    return s._newton_matrix(u, datum), F, factorize(s._newton_matrix())


@pytest.mark.parametrize("which", ["L_base", "newton"])
def test_preconditioner_factor_is_incomplete(which):
    # on the spiral miniature's L_base and one Newton matrix the incomplete
    # factor has less fill than the exact one, and GMRES with it converges
    # with no LU fallback
    J, F, _ = _newton_system(_spiral_dg)
    if which == "L_base":
        J = _spiral_dg()._newton_matrix()
    ilu, lu = factorize(J), linalg._splu(J)
    assert ilu.L.nnz + ilu.U.nnz < lu.L.nnz + lu.U.nnz
    stats = SolveStats()
    x = solve(J, F, precond=ilu.solve, stats=stats)
    assert stats.lu_fallbacks == 0 and stats.krylov_iters > 0
    assert np.linalg.norm(J @ x - F) <= 1e-10 * (1.0 + np.linalg.norm(F))


@pytest.mark.parametrize("make", [_spiral_dg, _wave_cr])
def test_gmres_matches_scipy_with_one_preconditioner_call_per_iteration(make):
    # scipy's GMRES on the right-preconditioned operator A P^{-1} is the
    # reference: the same solution and Krylov count, and one P^{-1} per
    # Krylov iteration (scipy's wrapper spent two more per solve)
    A, b, P = _newton_system(make)
    calls = []
    stats = SolveStats()
    x = solve(A, b, precond=lambda v: calls.append(1) or P.solve(v), stats=stats)
    assert stats.lu_fallbacks == 0 and len(calls) == stats.krylov_iters > 0

    bnorm = np.linalg.norm(b)
    tol = linalg.SOLVE_RTOL * (1.0 + bnorm)
    AP = spla.LinearOperator(A.shape, matvec=lambda v: A @ P.solve(v), dtype=float)
    iters = []
    y, info = spla.gmres(AP, b, rtol=0.0, atol=max(min(0.1 * tol, bnorm**2), 1e-12 * bnorm),
                         restart=linalg.GMRES_RESTART, maxiter=linalg.GMRES_MAXITER,
                         callback=iters.append, callback_type="pr_norm")
    x_ref = P.solve(y)
    assert info == 0
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)
    assert abs(stats.krylov_iters - len(iters)) <= 1
