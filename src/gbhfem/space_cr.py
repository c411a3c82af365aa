"""Crouzeix-Raviart P1 nonconforming space, and the base it shares with DG.

One dof per edge, located at the edge midpoint; basis functions are
phi_i = 1 - 2*lambda_i with lambda_i the barycentric coordinate opposite
local edge i.  Fields are continuous only at edge midpoints, which makes
the mean of the inter-element jump vanish on every edge.

A space also carries what its scheme adds to the one residual of the
solver: its diffusion and energy-norm matrices, its nonlinear form (the
shared volume kernel, plus DG's upwind flux) and how its Dirichlet
datum enters (``dirichlet``); and, outside the solver, the jump part of
its energy-norm error and the name of its VTK writer.  CR imposes the
datum strongly at the boundary midpoints (``boundary_dofs``) and has no
weakly imposed part.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import forms
from .linalg import BlockPattern
from .quadrature import triangle_rule

__all__ = ["P1Space", "CRSpace"]

#: Reference gradients of the barycentric coordinates (rows).
BARY_REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
#: Reference gradients of the CR basis phi_i = 1 - 2 lambda_i.
CR_REF_GRADS = -2.0 * BARY_REF_GRADS


def _inverse_jacobians(mesh):
    v = mesh.vertices[mesh.cells]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)  # columns
    det = 2.0 * mesh.cell_areas
    inv = np.empty_like(J)
    inv[:, 0, 0] = J[:, 1, 1]
    inv[:, 0, 1] = -J[:, 0, 1]
    inv[:, 1, 0] = -J[:, 1, 0]
    inv[:, 1, 1] = J[:, 0, 0]
    inv /= det[:, None, None]
    return inv, det


class P1Space:
    """Per-cell geometry and volume quadrature shared by the CR and DG spaces.

    Subclasses set their dofs (``n_dofs``; ``cell_dofs`` (n_cells, 3);
    ``dof_locations`` (n_dofs, 2); ``boundary_dofs``, the sorted dofs the
    Dirichlet datum fixes strongly), pass the reference gradients of
    their basis and define ``basis_values``.
    """

    def __init__(self, mesh, ref_grads):
        self.mesh = mesh
        inv, det = _inverse_jacobians(mesh)
        self.det_jacobians = det                       # = 2 * cell area
        self.grads = np.einsum("ij,cjk->cik", ref_grads, inv)
        self._quad_cache = {}

    def volume_quad(self, degree):
        """Cached (rule, basis values B (nq,3), physical points X (nc,nq,2)).

        B and X are read-only: every caller shares them, so none may
        change what the others see.
        """
        data = self._quad_cache.get(degree)
        if data is None:
            rule = triangle_rule(degree)
            B = self.basis_values(rule.points)
            X = np.einsum("qi,cid->cqd", rule.points, self.mesh.vertices[self.mesh.cells])
            B.flags.writeable = False
            X.flags.writeable = False
            data = (rule, B, X)
            self._quad_cache[degree] = data
        return data

    def field_gradients(self, u):
        """Piecewise-constant gradient of a field, (n_cells, 2)."""
        return np.einsum("cid,ci->cd", self.grads, u[self.cell_dofs])

    def interpolate(self, g):
        """Nodal interpolant: the coefficients g(dof locations), (n_dofs,).

        ``g`` may return one value per dof or a scalar; any other length,
        or a value that is not finite, raises ValueError.
        """
        vals = np.asarray(g(self.dof_locations), dtype=float)
        if vals.shape not in ((), (1,), (self.n_dofs,)):
            raise ValueError(f"expected {self.n_dofs} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        return np.broadcast_to(vals, (self.n_dofs,)).copy()

    def nonlinear_residual(self, u, params, datum):
        """The volume kernel ``forms.nonlinear_residual``; no face datum."""
        return forms.nonlinear_residual(self, u, params)

    def add_nonlinear_jacobian(self, data, u, params, datum):
        """Add its Jacobian into ``data`` on ``pattern``; returns ``data``."""
        return forms.add_nonlinear_jacobian(self, data, u, params)


class CRSpace(P1Space):
    """One dof per edge; the boundary dofs are those on boundary edges."""

    #: Name of this space's writer in ``vtk_io``.
    vtk_writer = "write_cr_vtk"

    def __init__(self, mesh):
        self.n_dofs = mesh.n_edges
        self.cell_dofs = mesh.cell_edges
        self.dof_locations = mesh.edge_midpoints
        self.boundary_dofs = np.flatnonzero(mesh.boundary_flags)
        super().__init__(mesh, CR_REF_GRADS)

    @cached_property
    def pattern(self):
        """CSR pattern of every matrix on this space: the cell blocks."""
        cd = self.cell_dofs
        return BlockPattern(self.n_dofs, {"cells": (cd, cd)})

    def basis_values(self, bary_points):
        return 1.0 - 2.0 * np.asarray(bary_points, dtype=float)

    def diffusion_matrices(self, penalty_gamma):
        """(broken-gradient Gram, diffusion operator, energy-norm Gram).

        All three are the CR stiffness matrix.
        """
        G = forms.assemble_stiffness_cr(self)
        return G, G, G

    def dirichlet(self, g, t, penalty_gamma):
        """Datum g(., t) of one step: (values at the ``boundary_dofs``, zero
        for g None; face datum None and Nitsche vector 0.0, nothing is weak)."""
        b = self.boundary_dofs
        if g is None:
            return np.zeros(len(b)), None, 0.0
        vals = np.asarray(g(self.dof_locations[b], t), dtype=float)
        return np.broadcast_to(vals, (len(b),)).copy(), None, 0.0

    def penalty_jump_sq(self, u, exact, t):
        """Jump part of the energy-norm error: 0.0, the CR norm has none."""
        return 0.0
