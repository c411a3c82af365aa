import numpy as np
import pytest


def _dirichlet_system(space, A, rhs, g, t=0.0):
    """The strongly constrained system of one Newton correction of the solver.

    ``u0`` holds the strong values of ``space.dirichlet(g, t, ...)`` on
    the boundary dofs and zero elsewhere, ``F = A u0 - rhs`` with the
    boundary rows zeroed, and
    ``J`` is A with the pattern's Dirichlet slot mask applied.  Then
    ``u0 - J^{-1} F`` solves A u = rhs in the interior with u = g at the
    boundary midpoints.
    """
    bdofs = space.boundary_dofs
    zero, one = space.pattern.dirichlet_slots(bdofs)
    data = A.data.copy()
    data[zero] = 0.0
    data[one] = 1.0
    u0 = np.zeros(space.n_dofs)
    u0[bdofs] = space.dirichlet(g, t, 40.0)[0]
    F = A @ u0 - rhs
    F[bdofs] = 0.0
    return space.pattern.matrix(data), F, u0


@pytest.fixture
def dirichlet_system():
    return _dirichlet_system
