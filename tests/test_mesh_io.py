"""OBJ/OFF reading and writing, vertex CSV export."""
from __future__ import annotations

import numpy as np
import pytest

from curvbc import (
    MeshError,
    build_icosphere,
    read_obj,
    read_off,
    write_obj,
    write_vertex_csv,
)
from curvbc.mesh_io import _obj_arrays


def test_obj_roundtrip_exact(tmp_path):
    m = build_icosphere(1.0, 1)
    path = tmp_path / "sphere.obj"
    write_obj(m, path, comments=("fixture", "level 1"))
    back = read_obj(path)
    assert np.array_equal(m.triangles, back.triangles)
    assert np.abs(m.vertices - back.vertices).max() == 0.0
    lines = path.read_text().splitlines()
    assert lines[0] == "# fixture"
    assert lines[1] == "# level 1"


def test_obj_rejects_unused_vertex(tmp_path):
    m = build_icosphere(1.0, 1)
    path = tmp_path / "stray.obj"
    write_obj(m, path)
    path.write_text(path.read_text() + "v 2 0 0\n")
    with pytest.raises(MeshError, match=f"^vertex {m.n_vertices} is on no face$"):
        read_obj(path)


def test_obj_negative_indices(tmp_path):
    path = tmp_path / "neg.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    _, faces = _obj_arrays(path)
    assert np.array_equal(faces, [[0, 1, 2]])


def test_obj_rejects_non_triangles(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshError):
        _obj_arrays(path)


def test_obj_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_obj(tmp_path / "missing.obj")


TETRAHEDRON_FACES = "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n"


def test_off_tetrahedron(tmp_path):
    path = tmp_path / "t.off"
    path.write_text(
        "OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n" + TETRAHEDRON_FACES
    )
    m = read_off(path)
    assert m.n_vertices == 4
    assert m.n_faces == 4
    assert abs(m.enclosed_volume() - 1.0 / 6.0) <= 1e-14


def test_obj_rejects_non_finite_vertex(tmp_path):
    """Read without the check, the mesh had a nan H at every vertex."""
    path = tmp_path / "nan.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv nan 0 1\nv 0 0 1\n"
                    "f 1 3 2\nf 1 2 4\nf 2 3 4\nf 1 4 3\n")
    with pytest.raises(MeshError, match=r"^vertex 2 is not finite: \[nan, 0\.0, 1\.0\]$"):
        read_obj(path)


def test_off_rejects_non_finite_vertex(tmp_path):
    path = tmp_path / "inf.off"
    path.write_text("OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 -inf\n" + TETRAHEDRON_FACES)
    with pytest.raises(MeshError, match=r"^vertex 3 is not finite: \[0\.0, 0\.0, -inf\]$"):
        read_off(path)


def test_off_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("NOTOFF\n1 2 3\n")
    with pytest.raises(MeshError):
        read_off(path)


@pytest.mark.parametrize("text,message", [
    ("OFF\n", "expected vertex, face and edge counts, got []"),
    ("OFF\nx 4 0\n", "expected vertex, face and edge counts, got ['x', '4', '0']"),
    ("OFF\n4 4 0\n0 0 0\n1 0 0\n", "expected 12 vertex coordinates, found 6"),
    ("OFF\n3 1 0\n0 0 x\n1 0 0\n0 1 0\n3 0 1 2\n", "malformed vertex coordinate"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 y\n", "malformed face record"),
])
def test_off_rejects_malformed_header_and_vertices(tmp_path, text, message):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(MeshError) as error:
        read_off(path)
    assert str(error.value) == f"{path}: {message}"


def loop_read_off_faces(path):
    """Reference: the per-face OFF loop the array parse replaced."""
    tokens = []
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4 + 3 * nv
    faces = []
    for _ in range(nf):
        cnt = int(tokens[pos])
        if cnt != 3:
            raise MeshError(f"{path}: only triangle faces supported, got {cnt}-gon")
        faces.append([int(t) for t in tokens[pos + 1:pos + 4]])
        pos += 1 + cnt
    return np.array(faces, dtype=np.int64)


def write_off(path, vertices, faces, comment=""):
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines += [" ".join(f"{x:.17g}" for x in v) for v in vertices]
    lines += [f"{len(f)} " + " ".join(map(str, f)) + comment for f in faces]
    path.write_text("\n".join(lines) + "\n")


def test_off_faces_match_loop(tmp_path):
    m = build_icosphere(1.0, 2)
    path = tmp_path / "sphere.off"
    write_off(path, m.vertices, m.triangles.tolist(), comment="  # face")
    back = read_off(path)
    assert np.array_equal(back.triangles, loop_read_off_faces(path))
    assert np.array_equal(back.triangles, m.triangles)
    assert np.array_equal(back.vertices, m.vertices)

    # mixed polygons: the first non-triangle is reported, as by the loop
    tris = m.triangles.tolist()
    for faces in ([[0, 1, 2, 3]] + tris,
                  tris[:7] + [[0, 1, 2, 3, 4]] + tris[7:] + [[5, 6, 7, 8]],
                  tris[:-1] + [[0, 1, 2, 3, 4, 5]]):
        path = tmp_path / "mixed.off"
        write_off(path, m.vertices, faces)
        with pytest.raises(MeshError) as loop_error:
            loop_read_off_faces(path)
        with pytest.raises(MeshError) as error:
            read_off(path)
        assert str(error.value) == str(loop_error.value)


def test_vertex_csv_format(tmp_path):
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    path = tmp_path / "field.csv"
    write_vertex_csv(verts, np.array([1.0, 2.0, 3.0]), path,
                     comments=("meta",), column="phi")
    lines = path.read_text().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "vertex_id,x,y,z,phi"
    assert lines[2].startswith("0,")
    assert len(lines) == 5


def test_vertex_csv_roundtrip_precision(tmp_path):
    rng = np.random.default_rng(0)
    verts = rng.standard_normal((5, 3))
    values = rng.standard_normal(5)
    path = tmp_path / "field.csv"
    write_vertex_csv(verts, values, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.abs(rows[:, 1:4] - verts).max() == 0.0
    assert np.abs(rows[:, 4] - values).max() == 0.0


def loop_write_obj(mesh, path, comments=()):
    """Reference OBJ writer, one formatted line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.triangles:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def loop_write_vertex_csv(vertices, values, path, comments=(), column="value"):
    """Reference CSV writer, one formatted line per row."""
    vertices = np.asarray(vertices, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
        names = [column]
    else:
        names = [f"{column}_{i}" for i in range(values.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("vertex_id,x,y,z," + ",".join(names) + "\n")
        for i, (v, row) in enumerate(zip(vertices, values)):
            cols = ",".join(f"{c:.17g}" for c in row)
            fh.write(f"{i},{v[0]:.17g},{v[1]:.17g},{v[2]:.17g},{cols}\n")


def test_writers_match_loop_reference_bytes(tmp_path):
    mesh = build_icosphere(1.5, 3)
    write_obj(mesh, tmp_path / "a.obj", comments=("one", "two"))
    loop_write_obj(mesh, tmp_path / "b.obj", comments=("one", "two"))
    assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()

    rng = np.random.default_rng(3)
    n = mesh.n_vertices
    special = np.resize([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, 5e-324, -1.5], n)
    for values in (rng.standard_normal(n), rng.standard_normal((n, 3)) * 1e-7, special,
                   np.zeros((n, 0))):
        write_vertex_csv(mesh.vertices, values, tmp_path / "a.csv",
                         comments=("c",), column="phi")
        loop_write_vertex_csv(mesh.vertices, values, tmp_path / "b.csv",
                              comments=("c",), column="phi")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_obj_slash_forms_and_inline_comments(tmp_path):
    path = tmp_path / "slash.obj"
    path.write_text(
        "# header\n"
        "v 0 0 0 # origin\n"
        "v 1 0 0\n"
        "v 0 1 0   1.0\n"              # an optional w coordinate is ignored
        "vt 0 0\nvn 0 0 1\n"
        "f 1/1/1 2//1 3/2 # one face\n"
        "\n"
    )
    verts, faces = _obj_arrays(path)
    assert np.array_equal(faces, [[0, 1, 2]])
    assert np.array_equal(verts, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_obj_negative_index_counts_from_vertices_read_so_far(tmp_path):
    path = tmp_path / "neg_more.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
                    "v 1 1 0\nf -3 -1 -2\nf 2 4 3\n")
    _, faces = _obj_arrays(path)
    assert np.array_equal(faces, [[0, 1, 2], [1, 3, 2], [1, 3, 2]])


@pytest.mark.parametrize("text", ["# only a comment\n", "v 0 0 0\nv 1 0 0\nv 0 1 0\n",
                                  "f 1 2 3\n", ""])
def test_obj_without_records(tmp_path, text):
    path = tmp_path / "empty.obj"
    path.write_text(text)
    with pytest.raises(MeshError, match="no usable v/f records"):
        _obj_arrays(path)


def test_obj_rejects_short_vertex(tmp_path):
    path = tmp_path / "short.obj"
    path.write_text("v 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\n")
    with pytest.raises(MeshError, match="fewer than 3 coordinates"):
        _obj_arrays(path)


def token_read_obj_arrays(path):
    """Line-by-line reference reader: one Python string per token."""
    coords, corners, seen = [], [], []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split()
            if parts and parts[0] == "v":
                coords += parts[1:4]
            elif parts and parts[0] == "f":
                corners += parts[1:4]
                seen.append(len(coords) // 3)
    idx = np.array([c.split("/", 1)[0] for c in corners], dtype=np.int64).reshape(-1, 3)
    return (np.array(coords, dtype=float).reshape(-1, 3),
            np.where(idx > 0, idx - 1, np.array(seen)[:, None] + idx))


def messy_obj(rng, n_lines=1500):
    """OBJ text with every accepted form: comments, w coordinates, leading
    blanks, tabs, v/vt/vn corners, negative indices and other record types."""
    lines, nv = [], 0
    for _ in range(n_lines):
        r = rng.integers(0, 8)
        if r < 3 or nv < 3:
            xyz = " ".join(repr(float(x)) for x in rng.standard_normal(3) * 10.0 ** rng.integers(-8, 8))
            lines.append(" " * int(rng.integers(0, 2)) + "v " + xyz
                         + (" 1.0" if rng.random() < 0.2 else "")
                         + (" # c" if rng.random() < 0.3 else ""))
            nv += 1
        elif r < 6:
            ids = rng.choice(np.arange(1, nv + 1), 3, replace=False)
            toks = [f"{i}" if rng.random() < 0.5 else f"{i - nv - 1}" for i in ids]
            toks = [t + str(rng.choice(["", "/1", "//2", "/3/4"])) for t in toks]
            lines.append("f " + "\t".join(toks) + ("#x 1 2" if rng.random() < 0.3 else ""))
        else:
            lines.append(str(rng.choice(["vt 0.5 0.5", "vn 0 0 1", "", "# v 1 2 3",
                                         "g group", "   ", "o name # x"])))
    return lines


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("chunk", [None, 997])
def test_obj_reader_equals_token_reader(tmp_path, monkeypatch, newline, chunk):
    """The array reader gives the token reader's arrays bit for bit, also
    when its chunks of whole lines are small."""
    from curvbc import mesh_io
    if chunk is not None:
        monkeypatch.setattr(mesh_io, "_OBJ_CHUNK", chunk)
    path = tmp_path / "messy.obj"
    path.write_bytes(newline.join(messy_obj(np.random.default_rng(len(newline)))).encode())
    arrays = _obj_arrays(path)
    verts, faces = token_read_obj_arrays(path)
    assert arrays[0].tobytes() == verts.tobytes()
    assert arrays[1].tobytes() == faces.tobytes()
    written = tmp_path / "sphere.obj"
    write_obj(build_icosphere(1.0, 3), written, comments=("a", "b"))
    mesh = read_obj(written)
    verts, faces = token_read_obj_arrays(written)
    assert mesh.vertices.tobytes() == verts.tobytes()
    assert mesh.triangles.tobytes() == faces.tobytes()


@pytest.mark.parametrize("text, message", [
    ("v 0 0 0\nv 1 0\nf 1 2 3 4\n", "fewer than 3 coordinates"),
    ("v 0 0 0\nf 1 2 3 4\nv 1 0\n", "only triangle faces"),
    ("v 1 2 3\nv 1 2 3\nv 1 2 3\nf 1 2\n", "only triangle faces"),
])
def test_obj_reports_the_first_bad_record(tmp_path, text, message):
    path = tmp_path / "bad.obj"
    path.write_text(text)
    with pytest.raises(MeshError, match=message):
        _obj_arrays(path)


def test_obj_rejects_malformed_numbers(tmp_path):
    path = tmp_path / "bad.obj"
    for text, what in (("v 0 0 zero\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "vertex coordinate"),
                       ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 z\n", "face index")):
        path.write_text(text)
        with pytest.raises(MeshError) as error:
            _obj_arrays(path)
        assert str(error.value) == f"{path}: malformed {what}"
