import numpy as np
import pytest

from gbhfem.mesh import (Mesh, edge_geometry, generate_rect_mesh,
                         outward_normal, refine_uniform)
from gbhfem.quadrature import integrate_cell, triangle_rule

UNIT = (0.0, 0.0, 1.0, 1.0)


def test_single_quad_split():
    m = generate_rect_mesh(UNIT, 1)
    assert m.n_cells == 2
    assert m.n_edges == 5
    assert m.n_vertices == 4
    assert m.boundary_flags.sum() == 4


def test_n2_counts_match_euler():
    m = generate_rect_mesh(UNIT, 2)
    assert (m.n_cells, m.n_edges, m.n_vertices) == (8, 16, 9)
    # E = (3*8 + 8 boundary) / 2 and V - E + F = 1
    assert m.n_vertices - m.n_edges + m.n_cells == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_invariants(n):
    m = generate_rect_mesh(UNIT, n)
    assert np.all(m.cell_areas > 0)
    interior = ~m.boundary_flags
    assert np.all(m.edge_cells[interior, 1] >= 0)
    assert np.all(m.edge_cells[m.boundary_flags, 1] == -1)
    assert m.n_vertices - m.n_edges + m.n_cells == 1
    # normals are unit and point from the first adjacent cell to the second
    assert np.allclose(np.hypot(*m.edge_normals.T), 1.0, atol=1e-14)
    c0 = m.cell_centroids[m.edge_cells[:, 0]]
    second = np.where(interior, m.edge_cells[:, 1], m.edge_cells[:, 0])
    target = np.where(interior[:, None], m.cell_centroids[second], m.edge_midpoints)
    assert np.all(np.einsum("ij,ij->i", m.edge_normals, target - c0) > 0)


def test_area_partition():
    m = generate_rect_mesh(UNIT, 4)
    assert abs(m.cell_areas.sum() - 1.0) < 1e-14


def test_cell_edge_consistency():
    m = generate_rect_mesh(UNIT, 3)
    for c in range(m.n_cells):
        for e in m.cell_edges[c]:
            assert c in m.edge_cells[e]
    for e in range(m.n_edges):
        for c in m.edge_cells[e]:
            if c >= 0:
                assert e in m.cell_edges[c]


def test_generation_deterministic():
    a = generate_rect_mesh(UNIT, 3)
    b = generate_rect_mesh(UNIT, 3)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.edges, b.edges)
    ra, rb = refine_uniform(a), refine_uniform(b)
    assert np.array_equal(ra.cells, rb.cells)


def test_generate_errors():
    with pytest.raises(ValueError):
        generate_rect_mesh(UNIT, 0)
    with pytest.raises(ValueError):
        generate_rect_mesh((0, 0, 0, 1), 2)


def test_refine_counts_and_area():
    m = generate_rect_mesh(UNIT, 1)
    r = refine_uniform(m)
    assert r.n_cells == 8
    assert abs(r.cell_areas.sum() - m.cell_areas.sum()) < 1e-14
    rr = refine_uniform(r)
    assert rr.n_cells == generate_rect_mesh(UNIT, 4).n_cells == 32
    assert rr.n_vertices - rr.n_edges + rr.n_cells == 1


def test_edge_geometry_axis_aligned():
    m = generate_rect_mesh(UNIT, 1)
    horiz = [e for e in range(m.n_edges)
             if np.allclose(m.vertices[m.edges[e]][:, 1], 0.0)]
    n, length, mid = edge_geometry(m, horiz[0])
    assert abs(abs(n[1]) - 1.0) < 1e-14 and abs(n[0]) < 1e-14
    assert abs(length - 1.0) < 1e-14
    assert np.allclose(mid, [0.5, 0.0])


def test_edge_geometry_diagonal_and_errors():
    m = generate_rect_mesh(UNIT, 1)
    diag = [e for e in range(m.n_edges) if not m.boundary_flags[e]]
    _, length, _ = edge_geometry(m, diag[0])
    assert abs(length - np.sqrt(2.0)) < 1e-14
    with pytest.raises(ValueError):
        edge_geometry(m, m.n_edges)


def test_outward_normals_close():
    # sum over a cell's edges of length * outward normal vanishes
    m = generate_rect_mesh(UNIT, 3)
    for c in range(m.n_cells):
        total = np.zeros(2)
        for e in m.cell_edges[c]:
            total += m.edge_lengths[e] * outward_normal(m, c, e)
        assert np.linalg.norm(total) < 1e-13


def test_constant_integration_gives_area():
    for mesh in (generate_rect_mesh(UNIT, 2), refine_uniform(generate_rect_mesh(UNIT, 2))):
        rule = triangle_rule(2)
        total = sum(integrate_cell(mesh, c, lambda x: 1.0, rule)
                    for c in range(mesh.n_cells))
        assert abs(total - 1.0) < 1e-12


def test_ccw_required():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(ValueError):
        Mesh(verts, [(0, 2, 1)])  # clockwise
    Mesh(verts, [(0, 1, 2)])


def test_vtk_mesh_export(tmp_path):
    from gbhfem.vtk_io import write_mesh_vtk
    m = generate_rect_mesh(UNIT, 2)
    path = tmp_path / "mesh.vtk"
    write_mesh_vtk(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in lines
    assert f"POINTS {m.n_vertices} double" in lines
    assert f"CELLS {m.n_cells} {4 * m.n_cells}" in lines
    types_at = lines.index(f"CELL_TYPES {m.n_cells}")
    assert all(l == "5" for l in lines[types_at + 1 : types_at + 1 + m.n_cells])


def _edges_by_loop(vertices, cells):
    """Reference edge tables: the per-cell scan that defines the numbering."""
    index, edges, edge_cells = {}, [], []
    cell_edges = np.empty_like(cells)
    for ci, (a, b, c) in enumerate(cells):
        for loc, (p, q) in enumerate(((b, c), (c, a), (a, b))):
            key = (p, q) if p < q else (q, p)
            e = index.get(key)
            if e is None:
                e = len(edges)
                index[key] = e
                edges.append((p, q))
                edge_cells.append([ci, -1])
            else:
                if edge_cells[e][1] != -1:
                    raise ValueError(f"edge {e} shared by more than two cells")
                edge_cells[e][1] = ci
            cell_edges[ci, loc] = e
    edges = np.array(edges, dtype=np.int64)
    edge_cells = np.array(edge_cells, dtype=np.int64)
    tang = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / np.hypot(*tang.T)[:, None]
    mid = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])
    ref = mid - vertices[cells[edge_cells[:, 0]]].mean(axis=1)
    normals[np.einsum("ij,ij->i", normals, ref) < 0.0] *= -1.0
    return edges, cell_edges, edge_cells, normals


@pytest.mark.parametrize("make", [
    lambda: generate_rect_mesh(UNIT, 1),
    lambda: generate_rect_mesh((0.0, 0.0, 2.0, 1.0), 7),
    lambda: refine_uniform(refine_uniform(generate_rect_mesh(UNIT, 2))),
])
@pytest.mark.parametrize("shuffle", [False, True])
def test_edge_tables_match_cell_scan(make, shuffle):
    m = make()
    cells = m.cells
    if shuffle:
        cells = cells[np.random.default_rng(3).permutation(m.n_cells)]
    m = Mesh(m.vertices, cells)
    edges, cell_edges, edge_cells, normals = _edges_by_loop(m.vertices, m.cells)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.cell_edges, cell_edges)
    assert np.array_equal(m.edge_cells, edge_cells)
    assert np.array_equal(m.edge_normals, normals)
    assert m.edges.dtype == m.cell_edges.dtype == m.edge_cells.dtype == np.int64


def test_edge_shared_by_three_cells_rejected():
    # three counterclockwise triangles on the edge (0, 1), which is edge 2
    # (local edge (0, 1) of the first cell)
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                         [0.5, 2.0], [2.0, 2.0]])
    cells = np.array([[0, 1, 2], [1, 5, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match="edge 2 shared by more than two cells") as vec:
        Mesh(vertices, cells)
    with pytest.raises(ValueError) as ref:
        _edges_by_loop(vertices, cells)
    assert str(vec.value) == str(ref.value)
