"""Discontinuous piecewise-linear (P1) space and its face machinery.

Three vertex-based Lagrange dofs per cell with no inter-element
coupling.  One face table (``face_data``) over all edges and ``traces``
give the one-sided traces, from which the forms build jumps and averages
as one sum over all faces.  The "plus" side of an edge is its first
adjacent cell; the edge normal points from plus to minus.  A boundary
edge is a face whose minus side is the exterior: outward normal, zero
minus trace table, the plus value as average, and the Dirichlet datum
(or 0) as exterior trace.  The datum enters weakly only, through the
SIPG boundary terms (the Nitsche vector) and the upwind flux.
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
    """Vectorized trace tables of all edges, in mesh order, for one edge
    quadrature rule.

    ``im = ip`` and ``Tm = 0`` on the boundary faces ``bnd``.  ``gnp`` and
    ``gnm`` are g_i . n times the average's side weights, (1/2, 1/2)
    inside and (1, 0) on the boundary.  ``TpTm`` and the other products
    hold Ta_i * Tb_j at column 3*i + j, (n_edges, nq, 9), so a weighted
    face block is one matmul.  ``Xb``: the boundary quadrature points.
    """

    __slots__ = (
        "rule", "ip", "im", "n", "h", "Tp", "Tm", "pdofs", "mdofs",
        "gnp", "gnm", "TpTp", "TpTm", "TmTm", "bnd", "Xb",
    )


def _trace_products(Ta, Tb):
    return (Ta[:, :, :, None] * Tb[:, :, None, :]).reshape(*Ta.shape[:2], 9)


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
        cell-block slots of that cell.
        """
        fd = self.face_data
        cd = self.cell_dofs
        pattern = BlockPattern(self.n_dofs, {
            "cells": (cd, cd), "pm": (fd.pdofs, fd.mdofs), "mp": (fd.mdofs, fd.pdofs)})
        cells = pattern.slots["cells"]
        pattern.slots.update(pp=cells[fd.ip], mm=cells[fd.im])
        return pattern

    def basis_values(self, bary_points):
        return np.asarray(bary_points, dtype=float)

    def diffusion_matrices(self, penalty_gamma):
        """(broken-gradient Gram, SIPG operator, DG energy-norm Gram)."""
        return forms.sipg_matrices(self, penalty_gamma)

    def dirichlet(self, g, t, penalty_gamma):
        """Datum g(., t) of one step: (no strong values, the datum at the
        boundary-edge quadrature points, its Nitsche vector).

        The datum is evaluated once; the Nitsche vector is built from it,
        and the solver hands it to the upwind flux.  (empty, None, 0.0)
        for g None.
        """
        if g is None:
            return np.zeros(0), None, 0.0
        datum = forms.dg_boundary_values(self, g, t)
        return np.zeros(0), datum, forms.dirichlet_rhs_dg(self, datum, penalty_gamma)

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
        # position of each vertex id within its cell's vertex triple
        cells = self.mesh.cells[cells_subset]
        loc = np.argmax(cells == vertex_ids[:, None], axis=1)
        if not np.all(cells[np.arange(len(loc)), loc] == vertex_ids):
            raise RuntimeError("edge vertex not found in adjacent cell")
        return loc

    @cached_property
    def face_data(self):
        """Vectorized trace tables for all edges, built on first use.

        For each edge: plus/minus cell indices, normal, length, trace
        basis tables T (n_edges, nq, 3), dof index arrays and the weighted
        normal gradients, on the ``EDGE_QUAD_DEGREE`` rule; the boundary
        faces' indices and quadrature points (for datum evaluation).
        """
        mesh = self.mesh
        rule = edge_rule(EDGE_QUAD_DEGREE)
        s = rule.points
        nq = len(s)
        a, b = mesh.edges[:, 0], mesh.edges[:, 1]
        rows = np.arange(mesh.n_edges)[:, None]
        cols = np.arange(nq)[None, :]

        def trace_table(cells):
            T = np.zeros((mesh.n_edges, nq, 3))
            T[rows, cols, self._local_vertex_index(cells, a)[:, None]] = 1.0 - s[None, :]
            T[rows, cols, self._local_vertex_index(cells, b)[:, None]] = s[None, :]
            return T

        fd = _FaceData()
        fd.rule = rule
        fd.bnd = np.flatnonzero(mesh.boundary_flags)
        fd.ip = mesh.edge_cells[:, 0]
        fd.im = np.where(mesh.boundary_flags, fd.ip, mesh.edge_cells[:, 1])
        fd.n = mesh.edge_normals
        fd.h = mesh.edge_lengths
        fd.Tp = trace_table(fd.ip)
        fd.Tm = trace_table(fd.im)
        fd.Tm[fd.bnd] = 0.0
        fd.pdofs = self.cell_dofs[fd.ip]
        fd.mdofs = self.cell_dofs[fd.im]
        wm = np.where(mesh.boundary_flags, 0.0, 0.5)[:, None]
        fd.gnp = (1.0 - wm) * np.einsum("cid,cd->ci", self.grads[fd.ip], fd.n)
        fd.gnm = wm * np.einsum("cid,cd->ci", self.grads[fd.im], fd.n)
        fd.TpTp = _trace_products(fd.Tp, fd.Tp)
        fd.TpTm = _trace_products(fd.Tp, fd.Tm)
        fd.TmTm = _trace_products(fd.Tm, fd.Tm)
        fd.Xb = ((1.0 - s)[None, :, None] * mesh.vertices[a[fd.bnd]][:, None, :]
                 + s[None, :, None] * mesh.vertices[b[fd.bnd]][:, None, :])
        fd.Xb.flags.writeable = False      # shared by every datum evaluation
        return fd

    def traces(self, u):
        """Plus and minus trace values on every face, each (n_edges, nq);
        the minus trace is 0 on boundary faces."""
        fd = self.face_data
        return (np.einsum("eqi,ei->eq", fd.Tp, u[fd.pdofs]),
                np.einsum("eqi,ei->eq", fd.Tm, u[fd.mdofs]))

    def penalty_jump_sq(self, u, exact, t):
        """Jump part of the energy-norm error of u against exact(., t).

        The sum over edges of ||[[u - exact]]||^2 / h_E, with exact's
        trace as the exterior value on boundary edges; the DG energy norm
        weighs it by the penalty scale.
        """
        fd = self.face_data
        up, um = self.traces(u)
        gvals = np.asarray(exact(fd.Xb.reshape(-1, 2), t), dtype=float)
        um[fd.bnd] = gvals.reshape(fd.Xb.shape[:2])
        return float(np.einsum("eq,q->", (up - um) ** 2, fd.rule.weights))
