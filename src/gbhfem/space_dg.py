"""Discontinuous piecewise-linear (P1) space and its face machinery.

Three vertex-based Lagrange dofs per cell with no inter-element
coupling.  Face utilities expose traces, jumps and averages on edges;
the convention is that the "plus" side of an edge is its first adjacent
cell and the stored edge normal points from plus to minus (outward on
the boundary, where the exterior trace defaults to the Dirichlet datum).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import BlockPattern
from .quadrature import edge_rule
from .space_cr import (BARY_REF_GRADS, DofMap, FieldVector, P1Space, _inverse_jacobians,
                       as_values)

__all__ = ["DGSpace", "dg_dof_map", "EdgeTraceContext", "edge_trace_context",
           "jump_average", "penalty_coeff"]


def dg_dof_map(mesh):
    """Three dofs per cell at the cell's vertices, globally discontinuous."""
    nc = mesh.n_cells
    return DofMap(
        kind="dg",
        n_dofs=3 * nc,
        cell_dofs=np.arange(3 * nc, dtype=np.int64).reshape(nc, 3),
        dof_locations=mesh.vertices[mesh.cells].reshape(-1, 2).copy(),
        boundary_dofs=np.empty(0, dtype=np.int64),
    )


@dataclass
class EdgeTraceContext:
    """Everything needed to evaluate traces on one edge.

    ``bary_minus`` is None on boundary edges; there the exterior trace is
    the Dirichlet datum (zero for homogeneous problems).  The mapped
    barycentric points on both sides correspond to identical physical
    points.
    """

    edge: int
    cell_plus: int
    cell_minus: int              # -1 on the boundary
    normal: np.ndarray           # unit, plus -> minus
    h_e: float
    quad_s: np.ndarray           # (nq,) points on [0, 1]
    quad_weights: np.ndarray     # (nq,) reference weights, sum 1
    points: np.ndarray           # (nq, 2) physical points
    bary_plus: np.ndarray        # (nq, 3)
    bary_minus: np.ndarray | None


def _bary_in_cell(mesh, inv_jacobians, cell, x):
    v0 = mesh.vertices[mesh.cells[cell, 0]]
    xi = (x - v0) @ inv_jacobians[cell].T
    return np.column_stack([1.0 - xi[:, 0] - xi[:, 1], xi[:, 0], xi[:, 1]])


def edge_trace_context(mesh, edge_index, rule=None):
    """Build the trace context for one edge (default: degree-5 edge rule)."""
    e = int(edge_index)
    if not 0 <= e < mesh.n_edges:
        raise ValueError(f"edge index {edge_index} out of range")
    if rule is None:
        rule = edge_rule(5)
    a, b = mesh.edges[e]
    pts = (1.0 - rule.points)[:, None] * mesh.vertices[a] + rule.points[:, None] * mesh.vertices[b]
    inv, _ = _inverse_jacobians(mesh)
    cp, cm = mesh.edge_cells[e]
    bary_p = _bary_in_cell(mesh, inv, cp, pts)
    bary_m = _bary_in_cell(mesh, inv, cm, pts) if cm >= 0 else None
    return EdgeTraceContext(
        edge=e, cell_plus=int(cp), cell_minus=int(cm),
        normal=mesh.edge_normals[e].copy(), h_e=float(mesh.edge_lengths[e]),
        quad_s=rule.points.copy(), quad_weights=rule.weights.copy(),
        points=pts, bary_plus=bary_p, bary_minus=bary_m,
    )


def jump_average(ctx, u, q):
    """Jump vector, average and one-sided traces of a DG field at quad point q.

    On boundary edges the exterior value is absent: the jump is
    ``u_plus * n_plus`` and the average is ``u_plus``.
    """
    vals = as_values(u)
    dofmap = u.dofmap if isinstance(u, FieldVector) else None
    if dofmap is None or dofmap.kind != "dg":
        raise ValueError("jump_average needs a FieldVector with a DG dof map")
    cell_dofs = dofmap.cell_dofs
    up = float(vals[cell_dofs[ctx.cell_plus]] @ ctx.bary_plus[q])
    if ctx.cell_minus < 0:
        return up * ctx.normal, up, (up, None)
    um = float(vals[cell_dofs[ctx.cell_minus]] @ ctx.bary_minus[q])
    jump = (up - um) * ctx.normal
    return jump, 0.5 * (up + um), (up, um)


def penalty_coeff(ctx, gamma):
    """Interior penalty gamma / h_E for one edge."""
    if not gamma > 0.0:
        raise ValueError(f"penalty scale must be positive, got {gamma!r}")
    return gamma / ctx.h_e


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
    """DG dof map plus cached cell and face geometry."""

    kind = "dg"

    def __init__(self, mesh):
        super().__init__(mesh, dg_dof_map(mesh), BARY_REF_GRADS)
        self._face_cache = {}

    @cached_property
    def pattern(self):
        """CSR pattern of every matrix on this space.

        Cell blocks plus the plus-minus couplings of interior faces.  The
        slots of face blocks within one cell ("pp", "mm" on interior
        faces, "bb" on boundary faces) are the cell-block slots of that
        cell.
        """
        fd = self.face_data()
        cd = self.cell_dofs
        pattern = BlockPattern(self.n_dofs, {
            "cells": (cd, cd), "pm": (fd.pdofs, fd.mdofs), "mp": (fd.mdofs, fd.pdofs)})
        cells = pattern.slots["cells"]
        pattern.slots.update(pp=cells[fd.ip], mm=cells[fd.im], bb=cells[fd.bp])
        return pattern

    def basis_values(self, bary_points):
        return np.asarray(bary_points, dtype=float)

    def interpolate(self, g):
        vals = np.asarray(g(self.dofmap.dof_locations), dtype=float)
        vals = np.broadcast_to(vals, (self.n_dofs,)).copy()
        return FieldVector(self.dofmap, vals)

    def _local_vertex_index(self, cells_subset, vertex_ids):
        # position of each vertex id within its cell's vertex triple
        cells = self.mesh.cells[cells_subset]
        loc = np.argmax(cells == vertex_ids[:, None], axis=1)
        if not np.all(cells[np.arange(len(loc)), loc] == vertex_ids):
            raise RuntimeError("edge vertex not found in adjacent cell")
        return loc

    def face_data(self, degree=5):
        """Cached vectorized trace tables for all edges.

        For each interior edge: plus/minus cell indices, normal, length,
        trace basis tables T (n_edges, nq, 3), dof index arrays and the
        constant normal gradients g_i . n.  Boundary edges analogous,
        with the physical quadrature points kept for datum evaluation.
        """
        fd = self._face_cache.get(degree)
        if fd is not None:
            return fd
        mesh = self.mesh
        rule = edge_rule(degree)
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
        fd.Xb.flags.writeable = False      # point-set caches may key on it
        self._face_cache[degree] = fd
        return fd

    def traces(self, u, fd):
        """Plus/minus trace values on interior edges and plus traces on
        boundary edges, each (n_edges, nq)."""
        vals = as_values(u)
        up = np.einsum("eqi,ei->eq", fd.Tp, vals[fd.pdofs])
        um = np.einsum("eqi,ei->eq", fd.Tm, vals[fd.mdofs])
        ub = np.einsum("eqi,ei->eq", fd.Tb, vals[fd.bdofs])
        return up, um, ub
