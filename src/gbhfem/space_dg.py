"""Discontinuous piecewise-linear (P1) space and its face machinery.

Three vertex-based Lagrange dofs per cell with no inter-element
coupling.  The face tables (``face_data``) and ``traces`` give the
one-sided traces on every edge, from which the forms build jumps and
averages; the convention is that the "plus" side of an edge is its first
adjacent cell and the stored edge normal points from plus to minus
(outward on the boundary, where the exterior trace is the Dirichlet
datum).  The datum enters weakly only: through the SIPG boundary terms
(the Nitsche vector) and the upwind flux, so no dof is constrained.
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
    """Vectorized per-edge trace tables for one edge quadrature rule.

    ``TpTm`` and the other products hold Ta_i * Tb_j at column 3*i + j,
    (n_edges, nq, 9), so a weighted face block is one matmul.
    """

    __slots__ = (
        "rule", "int_edges", "bnd_edges",
        "ip", "im", "n_int", "h_int", "Tp", "Tm", "pdofs", "mdofs",
        "gnp", "gnm", "TpTp", "TpTm", "TmTm",
        "bp", "n_bnd", "h_bnd", "Tb", "bdofs", "gnb", "Xb", "TbTb",
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

        Cell blocks plus the plus-minus couplings of interior faces.  The
        slots of face blocks within one cell ("pp", "mm" on interior
        faces, "bb" on boundary faces) are the cell-block slots of that
        cell.
        """
        fd = self.face_data
        cd = self.cell_dofs
        pattern = BlockPattern(self.n_dofs, {
            "cells": (cd, cd), "pm": (fd.pdofs, fd.mdofs), "mp": (fd.mdofs, fd.pdofs)})
        cells = pattern.slots["cells"]
        pattern.slots.update(pp=cells[fd.ip], mm=cells[fd.im], bb=cells[fd.bp])
        return pattern

    def basis_values(self, bary_points):
        return np.asarray(bary_points, dtype=float)

    def diffusion_matrices(self, penalty_gamma):
        """(broken-gradient Gram, SIPG operator, DG energy-norm Gram)."""
        return (forms.assemble_stiffness_cr(self),
                forms.assemble_stiffness_dg(self, penalty_gamma),
                forms.dg_norm_matrix(self, penalty_gamma))

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

        For each interior edge: plus/minus cell indices, normal, length,
        trace basis tables T (n_edges, nq, 3), dof index arrays and the
        constant normal gradients g_i . n, on the ``EDGE_QUAD_DEGREE``
        rule.  Boundary edges analogous, with the physical quadrature
        points kept for datum evaluation.
        """
        mesh = self.mesh
        rule = edge_rule(EDGE_QUAD_DEGREE)
        s = rule.points
        nq = len(s)
        fd = _FaceData()
        fd.rule = rule
        fd.int_edges = np.flatnonzero(~mesh.boundary_flags)
        fd.bnd_edges = np.flatnonzero(mesh.boundary_flags)

        def trace_table(cells_subset, edges_subset):
            a = mesh.edges[edges_subset, 0]
            b = mesh.edges[edges_subset, 1]
            la = self._local_vertex_index(cells_subset, a)
            lb = self._local_vertex_index(cells_subset, b)
            T = np.zeros((len(edges_subset), nq, 3))
            rows = np.arange(len(edges_subset))
            T[rows[:, None], np.arange(nq)[None, :], la[:, None]] = 1.0 - s[None, :]
            T[rows[:, None], np.arange(nq)[None, :], lb[:, None]] = s[None, :]
            return T

        ei = fd.int_edges
        fd.ip = mesh.edge_cells[ei, 0]
        fd.im = mesh.edge_cells[ei, 1]
        fd.n_int = mesh.edge_normals[ei]
        fd.h_int = mesh.edge_lengths[ei]
        fd.Tp = trace_table(fd.ip, ei)
        fd.Tm = trace_table(fd.im, ei)
        fd.pdofs = self.cell_dofs[fd.ip]
        fd.mdofs = self.cell_dofs[fd.im]
        fd.gnp = np.einsum("cid,cd->ci", self.grads[fd.ip], fd.n_int)
        fd.gnm = np.einsum("cid,cd->ci", self.grads[fd.im], fd.n_int)
        fd.TpTp = _trace_products(fd.Tp, fd.Tp)
        fd.TpTm = _trace_products(fd.Tp, fd.Tm)
        fd.TmTm = _trace_products(fd.Tm, fd.Tm)

        eb = fd.bnd_edges
        fd.bp = mesh.edge_cells[eb, 0]
        fd.n_bnd = mesh.edge_normals[eb]
        fd.h_bnd = mesh.edge_lengths[eb]
        fd.Tb = trace_table(fd.bp, eb)
        fd.bdofs = self.cell_dofs[fd.bp]
        fd.gnb = np.einsum("cid,cd->ci", self.grads[fd.bp], fd.n_bnd)
        fd.TbTb = _trace_products(fd.Tb, fd.Tb)
        a = mesh.edges[eb, 0]
        b = mesh.edges[eb, 1]
        fd.Xb = ((1.0 - s)[None, :, None] * mesh.vertices[a][:, None, :]
                 + s[None, :, None] * mesh.vertices[b][:, None, :])
        fd.Xb.flags.writeable = False      # shared by every datum evaluation
        return fd

    def traces(self, u, fd):
        """Plus/minus trace values on interior edges and plus traces on
        boundary edges, each (n_edges, nq)."""
        up = np.einsum("eqi,ei->eq", fd.Tp, u[fd.pdofs])
        um = np.einsum("eqi,ei->eq", fd.Tm, u[fd.mdofs])
        ub = np.einsum("eqi,ei->eq", fd.Tb, u[fd.bdofs])
        return up, um, ub

    def penalty_jump_sq(self, u, exact, t):
        """Jump part of the energy-norm error of u against exact(., t).

        The sum over edges of ||[[u - exact]]||^2 / h_E, with exact's
        trace as the exterior value on boundary edges; the DG energy norm
        weighs it by the penalty scale.
        """
        fd = self.face_data
        up, um, ub = self.traces(u, fd)
        jump_sq = np.einsum("eq,q->", (up - um) ** 2, fd.rule.weights)
        gvals = np.asarray(exact(fd.Xb.reshape(-1, 2), t), dtype=float).reshape(ub.shape)
        bjump_sq = np.einsum("eq,q->", (ub - gvals) ** 2, fd.rule.weights)
        return float(jump_sq + bjump_sq)
