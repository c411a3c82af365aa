"""VTK legacy ASCII writers (version 3.0, UNSTRUCTURED_GRID, cell type 5).

CR fields are exported as cell averages plus a companion field array of
the edge-midpoint dof values; DG fields as per-cell vertex point data on
duplicated points.  Floats are written with 17 significant digits so
output bytes are reproducible.  The mesh geometry of the last space
written is kept formatted for its next snapshot.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["write_cr_vtk", "write_dg_vtk"]


def _fmt(x):
    return f"{float(x):.17g}"


def _header(lines, comment):
    lines.append("# vtk DataFile Version 3.0")
    lines.append(comment[:255] if comment else "gbhfem output")
    lines.append("ASCII")
    lines.append("DATASET UNSTRUCTURED_GRID")


@functools.lru_cache(maxsize=1)
def _geometry(space, duplicated):
    """POINTS, CELLS and CELL_TYPES as one text, once per space: the mesh
    vertices, or (``duplicated``) three points per cell of its own."""
    mesh = space.mesh
    pts, cells = mesh.vertices, mesh.cells
    if duplicated:
        pts, cells = pts[cells].reshape(-1, 2), np.arange(3 * mesh.n_cells).reshape(-1, 3)
    lines = [f"POINTS {len(pts)} double"]
    lines.extend(f"{_fmt(p[0])} {_fmt(p[1])} 0" for p in pts)
    lines.append(f"CELLS {len(cells)} {4 * len(cells)}")
    lines.extend(f"3 {c[0]} {c[1]} {c[2]}" for c in cells)
    lines.append(f"CELL_TYPES {len(cells)}")
    lines.extend(["5"] * len(cells))
    return "\n".join(lines)


def _scalars(lines, name, values):
    lines.append(f"SCALARS {name} double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(_fmt(v) for v in values)


def write_cr_vtk(space, u, path, comment="", v=None):
    """CR field: cell-average CELL_DATA plus edge-midpoint companion array."""
    mesh = space.mesh
    vals = np.asarray(u, dtype=float)
    lines = []
    _header(lines, comment)
    lines.append(_geometry(space, False))
    lines.append(f"CELL_DATA {mesh.n_cells}")
    _scalars(lines, "u", vals[space.cell_dofs].mean(axis=1))
    if v is not None:
        _scalars(lines, "v", np.asarray(v, dtype=float)[space.cell_dofs].mean(axis=1))
    n_arrays = 1 if v is None else 2
    lines.append(f"FIELD dof_data {n_arrays}")
    lines.append(f"u_edge_midpoints 1 {space.n_dofs} double")
    lines.extend(_fmt(x) for x in vals)
    if v is not None:
        lines.append(f"v_edge_midpoints 1 {space.n_dofs} double")
        lines.extend(_fmt(x) for x in np.asarray(v, dtype=float))
    _write(path, lines)


def write_dg_vtk(space, u, path, comment="", v=None):
    """DG field: duplicated per-cell vertices with POINT_DATA values."""
    mesh = space.mesh
    vals = np.asarray(u, dtype=float)
    lines = []
    _header(lines, comment)
    lines.append(_geometry(space, True))
    lines.append(f"POINT_DATA {3 * mesh.n_cells}")
    _scalars(lines, "u", vals)
    if v is not None:
        _scalars(lines, "v", np.asarray(v, dtype=float))
    _write(path, lines)


def _write(path, lines):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
