"""Discontinuous piecewise-linear (P1) space and its face machinery.

Three vertex-based Lagrange dofs per cell with no inter-element
coupling.  One face table (``face_data``) over all edges and ``traces``
give the one-sided traces, from which the forms build jumps and averages
as one sum over all faces.  A trace is the reference-edge table
Theta(s) = (1 - s, s) on the dofs of the edge's vertices a, b (Kirby &
Logg, ACM TOMS 32 (2006) 417).  The "plus" side of an edge is its first
adjacent cell; the edge normal points from plus to minus.  A boundary
edge is a face whose minus side is the exterior: outward normal, a zero
mask on the minus side, the plus value as average, and the Dirichlet
datum (or 0) as exterior trace.  The datum enters weakly only, through
the SIPG boundary terms (the Nitsche vector) and the upwind flux.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import forms
from .linalg import BlockPattern
from .quadrature import edge_rule
from .space_cr import BARY_REF_GRADS, P1Space

__all__ = ["DGSpace"]

#: Edge quadrature degree of the face terms.
EDGE_QUAD_DEGREE = 5


class _FaceData:
    """Face tables of all edges, in mesh order, for one edge quadrature rule.

    ``theta`` (nq, 2) is Theta = (1 - s, s), ``theta2`` (nq, 4) Theta_a
    Theta_b at column 2a + b.  ``lp``/``lm`` (n_edges, 2): the positions of
    the edge's vertices a, b in the plus/minus cell; ``pe``/``me``: their
    dofs.  ``im = ip`` and the minus side mask ``inner`` is 0 on the
    boundary faces ``bnd``.  ``gnp``, ``gnm``: g_i . n times the average's
    side weights, (1/2, 1/2) inside and (1, 0) on the boundary.  ``Xb``:
    the boundary quadrature points.
    """

    __slots__ = ("rule", "theta", "theta2", "ip", "im", "n", "h", "lp", "lm", "pe", "me",
                 "inner", "gnp", "gnm", "bnd", "Xb")


class DGSpace(P1Space):
    """Three dofs per cell at the cell's vertices, globally discontinuous,
    plus cached cell and face geometry.  No dof is fixed strongly."""

    #: Name of this space's writer in ``vtk_io``.
    vtk_writer = "write_dg_vtk"

    def __init__(self, mesh):
        nc = mesh.n_cells
        self.n_dofs = 3 * nc
        self.cell_dofs = np.arange(3 * nc, dtype=np.int64).reshape(nc, 3)
        self.dof_locations = mesh.vertices[mesh.cells].reshape(-1, 2)
        self.boundary_dofs = np.empty(0, dtype=np.int64)
        super().__init__(mesh, BARY_REF_GRADS)

    @cached_property
    def pattern(self):
        """CSR pattern of every matrix on this space.

        Cell blocks plus the plus-minus couplings of the faces.  The slots
        of face blocks within one cell ("pp", "mm", and every block of a
        boundary face, whose minus cell is its plus cell) are the
        cell-block slots of that cell.  A face block rc couples the side-r
        cell's dofs with the side-c cell's ("rc9", (n_edges, 9)) or the
        edge's vertex dofs alone ("rc", (n_edges, 4), columns as ``theta2``).
        """
        fd = self.face_data
        cd = self.cell_dofs
        pattern = BlockPattern(self.n_dofs, {"cells": (cd, cd), "pm9": (cd[fd.ip], cd[fd.im]),
                                             "mp9": (cd[fd.im], cd[fd.ip])})
        cells = pattern.slots["cells"]
        pattern.slots.update(pp9=cells[fd.ip], mm9=cells[fd.im])
        loc = {"p": fd.lp, "m": fd.lm}
        for rc in ("pp", "pm", "mp", "mm"):
            cols = (3 * loc[rc[0]][:, :, None] + loc[rc[1]][:, None, :]).reshape(-1, 4)
            pattern.slots[rc] = np.take_along_axis(pattern.slots[rc + "9"], cols, axis=1)
        return pattern

    def basis_values(self, bary_points):
        return np.asarray(bary_points, dtype=float)

    def diffusion_matrices(self, penalty_gamma):
        """(broken-gradient Gram, SIPG operator, DG energy-norm Gram)."""
        return forms.sipg_matrices(self, penalty_gamma)

    def dirichlet(self, g, t):
        """Datum g(., t) of one step: (no strong values, the datum at the
        boundary-edge quadrature points, None for g None).

        The datum is evaluated once; the solver hands it to the upwind
        flux and, with its history, to ``nitsche``.
        """
        if g is None:
            return np.zeros(0), None
        return np.zeros(0), forms.dg_boundary_values(self, g, t)

    def nitsche(self, datum, penalty_gamma):
        """The Nitsche vector of face datum values: the SIPG boundary
        terms, linear in the datum (``forms.dirichlet_rhs_dg``)."""
        return forms.dirichlet_rhs_dg(self, datum, penalty_gamma)

    def nonlinear_residual(self, u, params, datum):
        """The volume kernel plus the upwind flux, face datum as exterior trace."""
        res = forms.nonlinear_residual(self, u, params)
        res += forms.upwind_residual(self, u, params, datum)
        return res

    def add_nonlinear_jacobian(self, data, u, params, datum):
        """Add its Jacobian, volume kernel plus upwind flux, into ``data``."""
        forms.add_nonlinear_jacobian(self, data, u, params)
        return forms.add_upwind_jacobian(self, data, u, params, datum)

    def _local_vertex_index(self, cells_subset, vertex_ids):
        # position of each vertex id (m, k) within its cell's vertex triple
        cells = self.mesh.cells[cells_subset]
        loc = np.argmax(cells[:, None, :] == vertex_ids[:, :, None], axis=2)
        if not np.array_equal(np.take_along_axis(cells, loc, axis=1), vertex_ids):
            raise RuntimeError("edge vertex not found in adjacent cell")
        return loc

    @cached_property
    def face_data(self):
        """Face tables for all edges, built on first use.

        For each edge: plus/minus cell indices, normal, length, its
        vertices' positions and dofs on each side, the minus side mask and
        the weighted normal gradients; the reference-edge tables of the
        ``EDGE_QUAD_DEGREE`` rule; the boundary faces' indices and
        quadrature points (for datum evaluation).
        """
        mesh = self.mesh
        rule = edge_rule(EDGE_QUAD_DEGREE)
        s = rule.points
        a, b = mesh.edges[:, 0], mesh.edges[:, 1]
        fd = _FaceData()
        fd.rule = rule
        fd.theta = np.stack([1.0 - s, s], axis=1)
        fd.theta2 = (fd.theta[:, :, None] * fd.theta[:, None, :]).reshape(-1, 4)
        fd.bnd = np.flatnonzero(mesh.boundary_flags)
        fd.ip = mesh.edge_cells[:, 0]
        fd.im = np.where(mesh.boundary_flags, fd.ip, mesh.edge_cells[:, 1])
        fd.n = mesh.edge_normals
        fd.h = mesh.edge_lengths
        fd.lp = self._local_vertex_index(fd.ip, mesh.edges)
        fd.lm = self._local_vertex_index(fd.im, mesh.edges)
        fd.pe = np.take_along_axis(self.cell_dofs[fd.ip], fd.lp, axis=1)
        fd.me = np.take_along_axis(self.cell_dofs[fd.im], fd.lm, axis=1)
        fd.inner = np.where(mesh.boundary_flags, 0.0, 1.0)[:, None]
        fd.gnp = (1.0 - 0.5 * fd.inner) * np.einsum("cid,cd->ci", self.grads[fd.ip], fd.n)
        fd.gnm = 0.5 * fd.inner * np.einsum("cid,cd->ci", self.grads[fd.im], fd.n)
        fd.Xb = ((1.0 - s)[None, :, None] * mesh.vertices[a[fd.bnd]][:, None, :]
                 + s[None, :, None] * mesh.vertices[b[fd.bnd]][:, None, :])
        fd.Xb.flags.writeable = False      # shared by every datum evaluation
        return fd

    def traces(self, u):
        """Plus and minus trace values on every face, each (n_edges, nq);
        the minus trace is 0 on boundary faces."""
        fd = self.face_data
        return u[fd.pe] @ fd.theta.T, fd.inner * (u[fd.me] @ fd.theta.T)

    def penalty_jump_sq(self, u, exact, t):
        """Jump part of the energy-norm error of u against exact(., t).

        The sum over edges of ||[[u - exact]]||^2 / h_E, with exact's
        trace as the exterior value on boundary edges; the DG energy norm
        weighs it by the penalty scale.
        """
        fd = self.face_data
        up, um = self.traces(u)
        um[fd.bnd] = forms.dg_boundary_values(self, exact, t)
        return float(np.einsum("eq,q->", (up - um) ** 2, fd.rule.weights))
