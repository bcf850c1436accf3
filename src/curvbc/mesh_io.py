"""ASCII mesh and field I/O: OFF and OBJ readers, OBJ and CSV writers.

Only triangle faces are accepted; vertex scalar fields are written as
``vertex_id,x,y,z,value`` CSV rows so they can be joined on vertex id.
"""
from __future__ import annotations

import warnings

import numpy as np

from .surface_mesh import MeshError, TriangleMesh


def read_off(path):
    """Read an ASCII OFF file with triangular faces into a validated TriangleMesh."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    if len(tokens) < 4 or not (tokens[1].isdecimal() and tokens[2].isdecimal()):
        raise MeshError(f"{path}: expected vertex, face and edge counts, got {tokens[1:4]}")
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4 + 3 * nv  # past the edge count and the vertices
    if len(tokens) < pos:
        raise MeshError(f"{path}: expected {3 * nv} vertex coordinates, "
                        f"found {len(tokens) - 4}")
    verts = _parsed(path, "vertex coordinate", np.array, tokens[4:pos], float).reshape(nv, 3)
    # "3 i j k" rows; up to the first non-triangle the rows stay aligned, so
    # the first row whose count is not 3 holds that face's vertex count
    rows = _parsed(path, "face record", np.array, tokens[pos:pos + 4 * nf], np.int64)
    rows = rows[:len(rows) - len(rows) % 4].reshape(-1, 4)
    polygons = np.flatnonzero(rows[:, 0] != 3)
    if polygons.size:
        raise MeshError(f"{path}: only triangle faces supported, "
                        f"got {rows[polygons[0], 0]}-gon")
    if len(rows) < nf:
        raise MeshError(f"{path}: expected {nf} faces, found {len(rows)}")
    return TriangleMesh(verts, rows[:, 1:])


# bytes of whole lines that ``read_obj`` parses per array pass
_OBJ_CHUNK = 1 << 18


def read_obj(path):
    """Read an ASCII OBJ file (v/f records, triangles only) into a validated
    TriangleMesh.

    Face indices may take the ``v/vt/vn`` forms; a negative index counts
    back from the vertices read so far.
    """
    return TriangleMesh(*_obj_arrays(path))


def _obj_arrays(path):
    """Vertices and 0-based faces of an OBJ file, parsed in chunks of whole
    lines with array operations (:func:`_obj_records`).  Only the two arrays
    outlive the call, so the mesh is built after the chunks are freed."""
    coords, corners, seen = [], [], []
    n_read = 0
    with open(path, "rb") as fh:
        while lines := fh.readlines(_OBJ_CHUNK):
            v, f, before = _obj_records(np.frombuffer(b"".join(lines), dtype=np.uint8), path)
            coords.append(v)
            corners.append(f)
            seen.append(n_read + before)
            n_read += len(v)
    if not n_read or not sum(map(len, corners)):
        raise MeshError(f"{path}: no usable v/f records")
    idx = np.concatenate(corners)
    faces = np.where(idx > 0, idx - 1, np.concatenate(seen)[:, None] + idx)
    return np.concatenate(coords), faces


def _obj_records(text, path):
    """Vertex coordinates (m, 3), face corner indices (f, 3) as written, and
    the vertex records before each face, of a uint8 array of whole OBJ lines.

    Tokens are the runs of bytes other than whitespace and ``#``; the tokens
    after a line's first ``#`` are a comment.  A record is a line whose first
    token is ``v`` or ``f``.
    """
    sep = (text <= 32) | (text == ord("#"))
    edge = np.diff(sep.view(np.int8), prepend=np.int8(1), append=np.int8(1))
    start, end = np.flatnonzero(edge == -1), np.flatnonzero(edge == 1)
    del sep, edge
    newline = np.flatnonzero(text == ord("\n"))
    line = np.searchsorted(newline, start)
    hashes = np.flatnonzero(text == ord("#"))
    hash_line, first = np.unique(np.searchsorted(newline, hashes), return_index=True)
    cut = np.full(len(newline) + 1, len(text))
    cut[hash_line] = hashes[first]
    keep = start < cut[line]
    start, end, line = start[keep], end[keep], line[keep]

    head = np.flatnonzero(np.diff(line, prepend=-1))     # first token of each line
    count = np.diff(np.r_[head, len(start)])
    kind = np.where(end[head] - start[head] == 1, text[start[head]], 0)
    is_v, is_f = kind == ord("v"), kind == ord("f")
    short_v = np.flatnonzero(is_v & (count < 4))
    polygon = np.flatnonzero(is_f & (count != 4))
    if len(short_v) or len(polygon):
        if not len(polygon) or (len(short_v) and short_v[0] < polygon[0]):
            raise MeshError(f"{path}: vertex record with fewer than 3 coordinates")
        raise MeshError(f"{path}: only triangle faces supported")

    v_tok = (head[is_v][:, None] + np.arange(1, 4)).ravel()
    f_tok = (head[is_f][:, None] + np.arange(1, 4)).ravel()
    # a corner's vertex index ends at its first '/'
    slash = np.r_[np.flatnonzero(text == ord("/")), len(text)]
    f_end = np.minimum(end[f_tok], slash[np.searchsorted(slash, start[f_tok])])
    coords = _parsed(path, "vertex coordinate", _numbers, text, start[v_tok], end[v_tok], float)
    corners = _parsed(path, "face index", _numbers, text, start[f_tok], f_end, np.int64)
    return coords.reshape(-1, 3), corners.reshape(-1, 3), np.cumsum(is_v)[is_f]


def _parsed(path, what, parse, *args):
    """``parse(*args)``, whose ValueError on a malformed number is raised as
    a MeshError naming the file and ``what`` was read."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise MeshError(f"{path}: malformed {what}") from exc


def _numbers(text, start, end, dtype):
    """The numbers in the disjoint byte ranges ``[start, end)`` of ``text``, in order."""
    if not len(start):
        return np.empty(0, dtype=dtype)     # fromstring reads blanks as [-1]
    mark = np.zeros(len(text) + 1, dtype=np.int8)
    mark[start] = 1
    mark[end] -= 1
    inside = np.cumsum(mark[:-1], dtype=np.int8).view(bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # a malformed number raises ValueError
        return np.fromstring(np.where(inside, text, ord(" ")).tobytes(), dtype=dtype, sep=" ")


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
