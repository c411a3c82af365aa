"""Crouzeix-Raviart P1 nonconforming space, and the base it shares with DG.

One dof per edge, located at the edge midpoint; basis functions are
phi_i = 1 - 2*lambda_i with lambda_i the barycentric coordinate opposite
local edge i.  Fields are continuous only at edge midpoints, which makes
the mean of the inter-element jump vanish on every edge.

A space also carries what its scheme adds to the one residual of the
solver: its diffusion and energy-norm matrices, its convection form and
how its Dirichlet datum enters.  CR imposes the datum strongly at the
boundary midpoints (``boundary_dofs``, ``boundary_values``) and has no
weakly imposed part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import forms
from .linalg import BlockPattern
from .quadrature import triangle_rule

__all__ = ["DofMap", "FieldVector", "P1Space", "CRSpace", "cr_dof_map"]

#: Reference gradients of the barycentric coordinates (rows).
BARY_REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
#: Reference gradients of the CR basis phi_i = 1 - 2 lambda_i.
CR_REF_GRADS = -2.0 * BARY_REF_GRADS


@dataclass
class DofMap:
    """Cell-to-dof connectivity for CR (per-edge) or DG (per-cell) layouts."""

    kind: str                     # "cr" | "dg"
    n_dofs: int
    cell_dofs: np.ndarray         # (n_cells, 3) global dof indices
    dof_locations: np.ndarray     # (n_dofs, 2) representative points
    boundary_dofs: np.ndarray     # sorted indices; empty for DG

    def __post_init__(self):
        if self.kind not in ("cr", "dg"):
            raise ValueError(f"unknown dof map kind {self.kind!r}")
        if self.cell_dofs.min(initial=0) < 0 or self.cell_dofs.max(initial=-1) >= self.n_dofs:
            raise ValueError("cell_dofs index out of range")
        if len(self.dof_locations) != self.n_dofs:
            raise ValueError("dof_locations length mismatch")


class FieldVector:
    """Coefficient vector of a discrete field relative to a DofMap."""

    def __init__(self, dofmap, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (dofmap.n_dofs,):
            raise ValueError(f"expected {dofmap.n_dofs} values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.dofmap = dofmap
        self.values = values

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype) if dtype else self.values

    def copy(self):
        return FieldVector(self.dofmap, self.values.copy())


def as_values(u):
    """Accept a FieldVector or a bare coefficient array."""
    return u.values if isinstance(u, FieldVector) else np.asarray(u, dtype=float)


def cr_dof_map(mesh):
    """One dof per edge; boundary dofs are the ones on boundary edges."""
    return DofMap(
        kind="cr",
        n_dofs=mesh.n_edges,
        cell_dofs=mesh.cell_edges.copy(),
        dof_locations=mesh.edge_midpoints.copy(),
        boundary_dofs=np.flatnonzero(mesh.boundary_flags),
    )


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

    Subclasses pass their dof map and the reference gradients of their
    basis and define ``basis_values``.
    """

    def __init__(self, mesh, dofmap, ref_grads):
        self.mesh = mesh
        self.dofmap = dofmap
        self.cell_dofs = dofmap.cell_dofs
        self.n_dofs = dofmap.n_dofs
        inv, det = _inverse_jacobians(mesh)
        self.inv_jacobians = inv
        self.det_jacobians = det                       # = 2 * cell area
        self.grads = np.einsum("ij,cjk->cik", ref_grads, inv)
        self._quad_cache = {}

    def volume_quad(self, degree):
        """Cached (rule, basis values B (nq,3), physical points X (nc,nq,2)).

        B and X are read-only, so every caller sees the same values and a
        point-set cache (the spatial factors of separable manufactured
        solutions) may key on their memory.
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
        vals = as_values(u)
        return np.einsum("cid,ci->cd", self.grads, vals[self.cell_dofs])

    def interpolate(self, g):
        """Nodal interpolant: dof value = g(dof location)."""
        vals = np.asarray(g(self.dofmap.dof_locations), dtype=float)
        return FieldVector(self.dofmap, np.broadcast_to(vals, (self.n_dofs,)).copy())

    @property
    def boundary_dofs(self):
        """Dofs whose values the Dirichlet datum fixes strongly; empty for DG."""
        return self.dofmap.boundary_dofs

    def boundary_values(self, g, t):
        """Datum g(., t) at the ``boundary_dofs``; zero when g is None."""
        b = self.boundary_dofs
        if g is None or not len(b):
            return np.zeros(len(b))
        vals = np.asarray(g(self.dofmap.dof_locations[b], t), dtype=float)
        return np.broadcast_to(vals, (len(b),)).copy()

    def weak_dirichlet(self, g, t, penalty_gamma):
        """Weakly imposed datum: (face datum or None, Nitsche vector or 0).

        The face datum enters the convection form, the Nitsche vector the
        known right-hand side.  None and 0 here: the datum is strong.
        """
        return None, 0.0


class CRSpace(P1Space):
    """CR dof map plus the per-cell geometry all assembly loops need."""

    kind = "cr"

    def __init__(self, mesh):
        super().__init__(mesh, cr_dof_map(mesh), CR_REF_GRADS)

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

    def convection(self, u, params, datum, **parts):
        """``forms.convection_cr``; the face datum is always None here."""
        return forms.convection_cr(self, u, params, **parts)
