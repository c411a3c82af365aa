import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gbhfem
from gbhfem.forms import (ModelParams, assemble_load, assemble_mass,
                          assemble_stiffness_cr, bind_load, dg_boundary_values)
from gbhfem.linalg import solve
from gbhfem.mesh import generate_rect_mesh, refine_uniform
from gbhfem.mms import error_l2
from gbhfem.quadrature import triangle_rule
from gbhfem.space_cr import CRSpace
from gbhfem.space_dg import DGSpace

UNIT = (0.0, 0.0, 1.0, 1.0)


def cr_space(n):
    return CRSpace(generate_rect_mesh(UNIT, n))


def dg_space(n):
    return DGSpace(generate_rect_mesh(UNIT, n))


def convection_only(**kwargs):
    return ModelParams(beta=0.0, **kwargs)


def reaction_only(**kwargs):
    return ModelParams(alpha=0.0, **kwargs)


def jacobian(space, u, params, datum=None):
    """The nonlinear Jacobian as a matrix on the space's pattern."""
    data = space.add_nonlinear_jacobian(np.zeros(space.pattern.nnz), u, params, datum)
    return space.pattern.matrix(data)


def central_difference_error(space, params, rng, datum=None, directions=5):
    """Worst relative gap between the nonlinear Jacobian at a random u and
    central differences of the residual, over random directions."""
    u = rng.uniform(-1, 1, space.n_dofs)
    J = jacobian(space, u, params, datum)
    eps = 1e-6
    worst = 0.0
    for _ in range(directions):
        w = rng.standard_normal(space.n_dofs)
        rp = space.nonlinear_residual(u + eps * w, params, datum)
        rm = space.nonlinear_residual(u - eps * w, params, datum)
        Jw = J @ w
        worst = max(worst, np.linalg.norm((rp - rm) / (2 * eps) - Jw) / np.linalg.norm(Jw))
    return worst


def test_model_params_validation():
    ModelParams()  # defaults valid
    with pytest.raises(ValueError):
        ModelParams(reaction_gamma=1.5)
    with pytest.raises(ValueError):
        ModelParams(nu=0.0)
    with pytest.raises(ValueError):
        ModelParams(delta=0)
    with pytest.raises(ValueError):
        ModelParams(delta=1.5)
    with pytest.raises(ValueError):
        ModelParams(delta=4)        # its volume quadrature degree exceeds MAX_DEGREE
    with pytest.raises(ValueError):
        ModelParams(eta=-1.0)
    with pytest.raises(ValueError):
        ModelParams(penalty_gamma=0.0)
    ModelParams(alpha=0.0, beta=0.0)  # degenerate modes allowed


@pytest.mark.parametrize("maker", [cr_space, dg_space])
def test_mass_matrix(maker):
    space = maker(2)
    M = assemble_mass(space)
    one = np.ones(space.n_dofs)
    assert abs(one @ (M @ one) - 1.0) < 1e-12
    assert abs(M - M.T).max() < 1e-14
    eig = np.linalg.eigvalsh(M.toarray())
    assert eig.min() > 0.0


def test_stiffness_cr_constants_and_seminorm():
    space = cr_space(4)
    A = assemble_stiffness_cr(space)
    one = np.ones(space.n_dofs)
    assert np.abs(A @ one).max() < 1e-12
    rng = np.random.default_rng(11)
    u = rng.uniform(-1, 1, space.n_dofs)
    grads = space.field_gradients(u)
    broken = float((0.5 * space.det_jacobians * (grads**2).sum(axis=1)).sum())
    assert abs(float(u @ (A @ u)) - broken) < 1e-11 * max(1.0, broken)


def test_cr_poisson_convergence(dirichlet_system):
    # -lap u = f with u = sin(pi x) sin(pi y): L2 rate ~2, broken-H1 rate ~1
    exact = lambda x, t: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    f = lambda x, t: 2.0 * np.pi**2 * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    grad = lambda x: np.pi * np.column_stack([
        np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
        np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])])
    e_l2, e_h1 = [], []
    mesh = generate_rect_mesh(UNIT, 4)
    for _ in range(3):
        space = CRSpace(mesh)
        A = assemble_stiffness_cr(space)
        b = assemble_load(space, bind_load(space, f), 0.0, 1.0)
        J, F, u0 = dirichlet_system(space, A, b, None)
        u = u0 - solve(J, F)
        e_l2.append(error_l2(space, u, exact, 0.0))
        rule, _, X = space.volume_quad(5)
        gh = space.field_gradients(u)
        ge = grad(X.reshape(-1, 2)).reshape(X.shape[0], X.shape[1], 2)
        diff = gh[:, None, :] - ge
        e_h1.append(np.sqrt(np.einsum("cqd,cqd,q,c->", diff, diff, rule.weights,
                                      space.det_jacobians)))
        mesh = refine_uniform(mesh)
    r_l2 = [np.log2(e_l2[i] / e_l2[i + 1]) for i in range(2)]
    r_h1 = [np.log2(e_h1[i] / e_h1[i + 1]) for i in range(2)]
    assert min(r_l2) > 1.8
    assert 0.9 < min(r_h1) and max(r_h1) < 1.3


def test_stiffness_dg_symmetry_and_consistency():
    space = dg_space(8)
    A = space.diffusion_matrices(40.0)[1]
    assert abs(A - A.T).max() < 1e-12
    # continuous interpolant of g vanishing on the boundary: face terms drop,
    # energy approximates the true Dirichlet energy
    g = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    v = space.interpolate(g)
    got = float(v @ (A @ v))
    grads = space.field_gradients(v)
    broken = float((0.5 * space.det_jacobians * (grads**2).sum(axis=1)).sum())
    assert abs(got - broken) < 1e-10
    assert abs(got - np.pi**2 / 2.0) / (np.pi**2 / 2.0) < 0.1  # ||grad g||^2 = pi^2/2


def test_sipg_is_consistent_for_a_linear_field():
    # -lap u = 0 for a linear u, so the SIPG operator applied to its
    # interpolant is the Nitsche vector of its boundary datum, every face
    # term of both included; and the interpolant has no jump, boundary
    # faces (exterior trace = u) included
    space = dg_space(5)
    u = lambda x, t: 0.5 + 2.0 * x[:, 0] - 3.0 * x[:, 1]
    v = space.interpolate(lambda x: u(x, 0.0))
    nitsche = space.nitsche(space.dirichlet(u, 0.0)[1], 40.0)
    A = space.diffusion_matrices(40.0)[1]
    assert np.abs(A @ v - nitsche).max() <= 1e-13 * np.abs(nitsche).max()
    assert space.penalty_jump_sq(v, u, 0.0) <= 1e-28


@pytest.mark.parametrize("make", [cr_space, dg_space])
def test_penalized_states_whether_the_diffusion_reads_the_penalty(make):
    # the config rejects [model] penalty_gamma for a space that is not
    # ``penalized``, so the attribute must say whether the scheme reads it
    space = make(2)
    blocks = zip(space.diffusion_matrices(40.0), space.diffusion_matrices(7.0))
    changed = [abs(a - b).max() > 0.0 for a, b in blocks]
    assert changed == [False, space.penalized, space.penalized]


def test_dg_coercivity_random_fields():
    space = dg_space(4)
    _, A, N = space.diffusion_matrices(40.0)
    rng = np.random.default_rng(5)
    ratios = []
    for _ in range(100):
        v = rng.standard_normal(space.n_dofs)
        ratios.append(float(v @ (A @ v)) / float(v @ (N @ v)))
    assert min(ratios) >= 0.1


def test_convection_cr_skew_and_zero():
    space = cr_space(4)
    params = convection_only()
    rng = np.random.default_rng(21)
    for _ in range(10):
        u = rng.uniform(-1, 1, space.n_dofs)
        res = space.nonlinear_residual(u, params, None)
        assert abs(float(u @ res)) < 1e-12
    zero = np.zeros(space.n_dofs)
    assert np.all(space.nonlinear_residual(zero, params, None) == 0.0)
    assert abs(jacobian(space, zero, params)).max() == 0.0


@pytest.mark.parametrize("delta", [1, 2])
def test_convection_cr_jacobian_fd(delta):
    # convection alone, and convection minus reaction
    space = cr_space(4)
    rng = np.random.default_rng(31)
    assert central_difference_error(space, convection_only(delta=delta), rng) <= 1e-6
    assert central_difference_error(space, ModelParams(delta=delta), rng) <= 1e-6


def test_convection_dg_skew_and_zero():
    space = dg_space(4)
    params = convection_only()
    rng = np.random.default_rng(41)
    for _ in range(10):
        u = rng.uniform(-1, 1, space.n_dofs)
        res = space.nonlinear_residual(u, params, None)
        assert abs(float(u @ res)) < 1e-10
    assert np.all(space.nonlinear_residual(np.zeros(space.n_dofs), params, None) == 0.0)


@pytest.mark.parametrize("delta", [1, 2])
def test_convection_dg_jacobian_central_differences(delta):
    # exact Jacobian, upwind factor included, with a nonzero Dirichlet datum;
    # convection alone, and convection minus reaction
    space = dg_space(4)
    rng = np.random.default_rng(43)
    g = dg_boundary_values(space, lambda x, t: 0.5 + x[:, 0] - x[:, 1], 0.0)
    for params in (convection_only(delta=delta), ModelParams(delta=delta)):
        assert central_difference_error(space, params, rng, g, directions=10) <= 1e-6


def dense_volume_skew_residual(space, u, params):
    # independent volume-only oracle: plain loops, separate quadrature
    rule = triangle_rule(6)
    alpha, delta = params.alpha, params.delta
    res = np.zeros(space.n_dofs)
    mesh = space.mesh
    for c in range(mesh.n_cells):
        dofs = space.cell_dofs[c]
        uloc = u[dofs]
        grads = space.grads[c]
        su = float(grads[:, 0] @ uloc + grads[:, 1] @ uloc)
        sphi = grads[:, 0] + grads[:, 1]
        det = space.det_jacobians[c]
        for lam, w in zip(rule.points, rule.weights):
            basis = lam  # DG P1 basis equals the barycentric coordinates
            uq = float(basis @ uloc)
            for i in range(3):
                res[dofs[i]] += (alpha / (delta + 2.0)) * w * det * (
                    uq**delta * su * basis[i] - uq ** (delta + 1) * sphi[i])
    return res


def test_convection_dg_matches_volume_form_for_continuous_fields():
    # on continuous trial AND test fields vanishing at the boundary, every
    # jump/flux term of the DG form drops and only the volume skew form is
    # left; the flux of the test function does not vanish entry-wise, so the
    # agreement is between the forms, not the raw residual vectors
    space = dg_space(4)
    params = convection_only()
    g = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    u = space.interpolate(g)
    res = space.nonlinear_residual(u, params, None)
    oracle = dense_volume_skew_residual(space, u, params)
    tests = [
        lambda x: np.sin(np.pi * x[:, 0]) * np.sin(2 * np.pi * x[:, 1]),
        lambda x: np.sin(2 * np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
        lambda x: x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1]),
    ]
    for gv in tests:
        v = space.interpolate(gv)
        assert abs(float(v @ res) - float(v @ oracle)) < 1e-10


@pytest.mark.parametrize("maker", [cr_space, dg_space])
def test_reaction_roots(maker):
    space = maker(3)
    params = reaction_only(reaction_gamma=0.5, delta=1)
    res1 = space.nonlinear_residual(np.ones(space.n_dofs), params, None)
    assert np.abs(res1).max() < 1e-14
    res_root = space.nonlinear_residual(np.full(space.n_dofs, 0.5), params, None)
    assert np.abs(res_root).max() < 1e-14


def test_reaction_jacobian_fd():
    space = cr_space(4)
    params = reaction_only(delta=2, reaction_gamma=0.3)
    assert central_difference_error(space, params, np.random.default_rng(51)) <= 1e-6


@pytest.mark.parametrize("maker", [cr_space, dg_space])
def test_load_examples(maker):
    space = maker(3)
    M = assemble_mass(space)
    one = np.ones(space.n_dofs)
    b1 = assemble_load(space, bind_load(space, lambda x, t: np.ones(len(x))), 0.0, 1.0)
    assert np.abs(b1 - M @ one).max() < 1e-13
    # f(x,t) = t over [0,1] averages to 1/2
    bt = assemble_load(space, bind_load(space, lambda x, t: np.full(len(x), t)), 0.0, 1.0)
    assert np.abs(bt - 0.5 * (M @ one)).max() < 1e-14
    # f(x,t) = t^2 over [0, dt] averages to dt^2 / 3
    dt = 0.25
    bq = assemble_load(space, bind_load(space, lambda x, t: np.full(len(x), t * t)), 0.0, dt)
    assert np.abs(bq - (dt**2 / 3.0) * (M @ one)).max() < 1e-15


@pytest.mark.parametrize("values", ["per point", "scalar"])
def test_plain_load_is_stacked_per_time(values):
    # a plain f(points, t) is called once per time; a scalar value is
    # spread over the points
    space = cr_space(3)
    X = space.volume_quad(5)[2].reshape(-1, 2)
    calls = []
    if values == "scalar":
        f = lambda x, t: calls.append(t) or 2.0 * t
    else:
        f = lambda x, t: calls.append(t) or np.sin(x[:, 0] + t) * x[:, 1]
    ts = np.array([0.0, 0.25, 0.25, 0.7])
    rows = bind_load(space, f)(ts)
    assert rows.shape == (len(ts), len(X)) and calls == list(ts)
    for row, t in zip(rows, ts):
        assert np.array_equal(row, np.broadcast_to(f(X, t), len(X)))


def test_load_requires_increasing_interval():
    space = cr_space(2)
    with pytest.raises(ValueError):
        assemble_load(space, bind_load(space, lambda x, t: np.ones(len(x))), 1.0, 1.0)


def test_assembly_deterministic():
    # fixed iteration order, serial accumulation: identical bits across calls
    space = cr_space(3)
    params = ModelParams()
    rng = np.random.default_rng(77)
    u = rng.uniform(-1, 1, space.n_dofs)
    A1 = assemble_stiffness_cr(space)
    A2 = assemble_stiffness_cr(CRSpace(generate_rect_mesh(UNIT, 3)))
    assert np.array_equal(A1.data, A2.data) and np.array_equal(A1.indices, A2.indices)
    d = dg_space(2)
    for s, v in ((space, u), (d, rng.uniform(-1, 1, d.n_dofs))):
        assert np.array_equal(s.nonlinear_residual(v, params, None),
                              s.nonlinear_residual(v, params, None))
        assert np.array_equal(jacobian(s, v, params).data, jacobian(s, v, params).data)


#: Prints a digest of the DG volume and upwind residuals and Jacobians of
#: one iterate, with a nonzero boundary datum.
_KERNEL_DIGEST = """
import hashlib
import numpy as np
from gbhfem import forms
from gbhfem.mesh import generate_rect_mesh
from gbhfem.space_dg import DGSpace
space = DGSpace(generate_rect_mesh((0.0, 0.0, 1.0, 1.0), 32))
params = forms.ModelParams(alpha=1.5, beta=2.0, reaction_gamma=0.3, delta=2)
u = np.random.default_rng(3).uniform(-1.0, 1.0, space.n_dofs)
datum = forms.dg_boundary_values(space, lambda x, t: 0.5 + x[:, 0] - x[:, 1], 0.0)
digest = hashlib.sha256()
for out in (forms.nonlinear_residual(space, u, params),
            forms.add_nonlinear_jacobian(space, np.zeros(space.pattern.nnz), u, params),
            forms.upwind_residual(space, u, params, datum),
            forms.add_upwind_jacobian(space, np.zeros(space.pattern.nnz), u, params, datum)):
    digest.update(out.tobytes())
print(digest.hexdigest())
"""


def test_dg_kernels_are_bit_identical_across_blas_threads():
    # the volume and face quadrature products are plain matmuls; the bytes
    # of every residual and Jacobian must not depend on the BLAS threads
    src = str(Path(gbhfem.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _KERNEL_DIGEST], env=env, check=True,
                             capture_output=True, text=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
