"""2D triangulations of rectangles with full edge topology.

Structured criss-cross generation and uniform midpoint refinement.
Edge connectivity (adjacent cells, unit normals, lengths) is built once
at construction; it is what edge-midpoint dofs and face integrals need.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Mesh", "generate_rect_mesh", "refine_uniform"]


class Mesh:
    """Conforming triangulation, immutable after construction.

    Cells are counterclockwise vertex triples.  Local edge ``i`` of a
    cell is the edge opposite local vertex ``i``.  Stored edge normals
    are unit vectors pointing from the first adjacent cell into the
    second; for boundary edges they point out of the domain.
    """

    def __init__(self, vertices, cells):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if cells.ndim != 2 or cells.shape[1] != 3:
            raise ValueError("cells must be an (n, 3) array")
        if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
            raise ValueError("cell vertex index out of range")
        self.vertices = vertices
        self.cells = cells

        d1 = vertices[cells[:, 1]] - vertices[cells[:, 0]]
        d2 = vertices[cells[:, 2]] - vertices[cells[:, 0]]
        signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(signed <= 0.0):
            raise ValueError("cells must be counterclockwise with positive area")
        self.cell_areas = signed
        self.cell_centroids = vertices[cells].mean(axis=1)

        self._build_edges()

    def _build_edges(self):
        # Deterministic numbering: edges indexed in first-appearance order
        # while scanning cells, local edges in (1,2), (2,0), (0,1) order.
        half = self.cells[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)   # scan order
        lo, hi = np.sort(half, axis=1).T
        _, first, inverse = np.unique(lo * len(self.vertices) + hi,
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        eid = rank[inverse.ravel()]                 # edge of each half-edge
        first = first[order]
        # later appearances in scan order; an edge seen twice among them
        # has a third cell
        later = np.ones(len(half), dtype=bool)
        later[first] = False
        rest = np.flatnonzero(later)
        e_rest = eid[rest]
        _, once = np.unique(e_rest, return_index=True)
        if len(once) < len(rest):
            extra = np.ones(len(rest), dtype=bool)
            extra[once] = False
            raise ValueError(f"edge {e_rest[np.argmax(extra)]} shared by more than two cells")
        self.edges = half[first]
        self.cell_edges = eid.reshape(-1, 3)
        self.edge_cells = np.full((len(first), 2), -1, dtype=np.int64)
        self.edge_cells[:, 0] = first // 3
        self.edge_cells[e_rest, 1] = rest // 3
        self.boundary_flags = self.edge_cells[:, 1] < 0

        pa = self.vertices[self.edges[:, 0]]
        pb = self.vertices[self.edges[:, 1]]
        tang = pb - pa
        self.edge_lengths = np.hypot(tang[:, 0], tang[:, 1])
        if np.any(self.edge_lengths <= 0.0):
            raise ValueError("degenerate edge (coincident vertices)")
        self.edge_midpoints = 0.5 * (pa + pb)
        normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / self.edge_lengths[:, None]
        # Orient away from the first adjacent cell.
        ref = self.edge_midpoints - self.cell_centroids[self.edge_cells[:, 0]]
        flip = np.einsum("ij,ij->i", normals, ref) < 0.0
        normals[flip] *= -1.0
        self.edge_normals = normals

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edges)


def generate_rect_mesh(box, n):
    """Structured criss-cross triangulation of a rectangle.

    The rectangle is split into ``n x n`` quads, each cut into two
    triangles by its diagonal.  Numbering is deterministic: identical
    inputs produce identical meshes.

    Parameters
    ----------
    box : (xmin, ymin, xmax, ymax)
    n : int
        Cells per side, at least 1.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    xmin, ymin, xmax, ymax = (float(v) for v in box)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("degenerate domain box")

    xs = xmin + (xmax - xmin) * np.arange(n + 1) / n
    ys = ymin + (ymax - ymin) * np.arange(n + 1) / n
    X, Y = np.meshgrid(xs, ys)          # row-major: index = iy*(n+1) + ix
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # quad (iy, ix), row-major, gives cells (v00, v10, v11), (v00, v11, v01)
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + 1, v00 + (n + 1), v00 + (n + 2)
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return Mesh(vertices, cells)


def refine_uniform(mesh):
    """Split every triangle into 4 congruent children (midpoint refinement)."""
    nv = mesh.n_vertices
    vertices = np.vstack([mesh.vertices, mesh.edge_midpoints])
    a, b, c = mesh.cells.T
    m0, m1, m2 = (mesh.cell_edges + nv).T  # midpoint of the edge opposite each vertex
    children = np.empty((mesh.n_cells, 4, 3), dtype=np.int64)
    children[:, 0] = np.column_stack([a, m2, m1])
    children[:, 1] = np.column_stack([m2, b, m0])
    children[:, 2] = np.column_stack([m1, m0, c])
    children[:, 3] = np.column_stack([m0, m1, m2])
    return Mesh(vertices, children.reshape(-1, 3))
