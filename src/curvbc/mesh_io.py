"""ASCII mesh and field I/O: OFF and OBJ readers, OBJ and CSV writers.

Only triangle faces are accepted; vertex scalar fields are written as
``vertex_id,x,y,z,value`` CSV rows so they can be joined on vertex id.
"""
from __future__ import annotations

import numpy as np

from .surface_mesh import MeshError, TriangleMesh


def read_off(path, validate=True):
    """Read an ASCII OFF file with triangular faces into a TriangleMesh."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    pos = 1
    nv, nf = int(tokens[pos]), int(tokens[pos + 1])
    pos += 3  # skip edge count
    verts = np.array(tokens[pos:pos + 3 * nv], dtype=float).reshape(nv, 3)
    pos += 3 * nv
    # "3 i j k" rows; up to the first non-triangle the rows stay aligned, so
    # the first row whose count is not 3 holds that face's vertex count
    rows = np.array(tokens[pos:pos + 4 * nf], dtype=np.int64)
    rows = rows[:len(rows) - len(rows) % 4].reshape(-1, 4)
    polygons = np.flatnonzero(rows[:, 0] != 3)
    if polygons.size:
        raise MeshError(f"{path}: only triangle faces supported, "
                        f"got {rows[polygons[0], 0]}-gon")
    if len(rows) < nf:
        raise MeshError(f"{path}: expected {nf} faces, found {len(rows)}")
    return TriangleMesh(verts, rows[:, 1:], validate=validate)


def read_obj(path, validate=True):
    """Read an ASCII OBJ file (v/f records, triangles only) into a TriangleMesh.

    Face indices may take the ``v/vt/vn`` forms; a negative index counts
    back from the vertices read so far.
    """
    coords, corners, seen = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            if "#" in raw:
                raw = raw[:raw.index("#")]
            parts = raw.split()
            if not parts:
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshError(f"{path}: vertex record with fewer than 3 coordinates")
                coords += parts[1:4]
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise MeshError(f"{path}: only triangle faces supported")
                corners += parts[1:4]
                seen.append(len(coords) // 3)
    if not coords or not corners:
        raise MeshError(f"{path}: no usable v/f records")
    idx = np.array([c.split("/", 1)[0] for c in corners], dtype=np.int64).reshape(-1, 3)
    faces = np.where(idx > 0, idx - 1, np.array(seen)[:, None] + idx)
    verts = np.array(coords, dtype=float).reshape(-1, 3)
    del coords, corners   # token strings outweigh the mesh; free them before building it
    return TriangleMesh(verts, faces, validate=validate)


def _format_rows(row, table):
    """``row % r`` for the rows of a 2-d array, one format call per 4096 rows."""
    for start in range(0, len(table), 4096):
        part = table[start:start + 4096]
        yield (row * len(part)) % tuple(part.ravel().tolist())


def write_obj(mesh, path, comments=()):
    """Write a TriangleMesh as ASCII OBJ (1-based face indices)."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.writelines(_format_rows("v %.17g %.17g %.17g\n", mesh.vertices))
        fh.writelines(_format_rows("f %d %d %d\n", mesh.triangles + 1))


def write_vertex_csv(vertices, values, path, comments=(), column="value"):
    """Write per-vertex values as ``vertex_id,x,y,z,<columns>`` CSV rows.

    ``values`` may be (n,) for one column or (n, k); multi-component columns
    are named ``<column>_0 .. <column>_{k-1}``.
    """
    vertices = np.asarray(vertices, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
        names = [column]
    else:
        names = [f"{column}_{i}" for i in range(values.shape[1])]
    if len(values) != len(vertices):
        raise ValueError("values and vertices length mismatch")
    row = "%d,%.17g,%.17g,%.17g," + ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("vertex_id,x,y,z," + ",".join(names) + "\n")
        # %d formats the float ids of the one float table
        fh.writelines(_format_rows(row, np.column_stack([np.arange(len(values)), vertices, values])))
