"""Mesh constructor checks and geometry against the code they replaced.

``TetMesh``'s boundary check and ``TriangleMesh``'s closed-orientation check
decide by value sorts.  The grouping checks they replaced are kept here as
references: a corrupted mesh must get the same decision and the same message
from both.  The constructors' geometry is compared bit for bit with the
formulas it replaced, on a relabelled ball whose input tets come with both
orientations, on a perturbed icosphere and on a coarse torus.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvbc import TetMesh, TriangleMesh, build_ball_tetmesh, build_icosphere
from curvbc.analytic_geometry import AnalyticSurface, sample_mesh
from curvbc.surface_mesh import _cross, _dot, _scatter

from test_assembler import permuted_ball_inputs

# faces of a positively oriented tet (0, 1, 2, 3), wound with outward normals
TET_FACES = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def oriented(vertices, tets):
    """The tets with corners 2 and 3 swapped where the volume is negative."""
    flip = np.linalg.det(vertices[tets[:, 1:]] - vertices[tets[:, :1]]) < 0
    tets = tets.copy()
    tets[flip, 2:] = tets[flip][:, [3, 2]]
    return tets


def reference_boundary_message(tets, n, triangles, ids):
    """The grouping boundary check: the ``boundary mismatch`` message of the
    positively oriented ``tets`` and the boundary ``triangles``, or None.

    Rows (slot-major tet faces, then the reversed triangles) are sorted
    within, keyed, and grouped by one argsort of the keys; the smallest key
    not held by exactly two rows of opposite parity is named, by a boundary
    triangle if it has one."""
    keys, odd = [], []
    for table, cols in [(tets, f) for f in TET_FACES] + [(ids[triangles], [2, 1, 0])]:
        p = table[:, cols]
        s = np.sort(p, axis=1)
        keys.append((s[:, 0] * n + s[:, 1]) * n + s[:, 2])
        odd.append((p[:, 0] > p[:, 1]) ^ (p[:, 1] > p[:, 2]) ^ (p[:, 0] > p[:, 2]))
    key, odd = np.concatenate(keys), np.concatenate(odd)
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sizes = np.diff(np.r_[starts, len(order)])
    pair = order[np.minimum(starts + 1, len(order) - 1)]
    bad = (sizes != 2) | (odd[order[starts]] == odd[pair])
    if not bad.any():
        return None
    g, m = int(np.argmax(bad)), len(tets)
    row = int(order[starts[g]:starts[g] + sizes[g]].max())
    what = (f"boundary triangle {row - 4 * m}" if row >= 4 * m
            else f"face {tets[row % m, TET_FACES[row // m]].tolist()} of tet {row % m}")
    why = {1: "is used once" if row < 4 * m else "is not a tet face",
           2: "is wound inward"}.get(int(sizes[g]), f"is shared {sizes[g]} times")
    return f"boundary mismatch: {what} {why}"


def reference_surface_message(triangles, n):
    """The counting closed-orientation check: its message, or None."""
    heads = np.concatenate([triangles[:, 0], triangles[:, 1], triangles[:, 2]])
    tails = np.concatenate([triangles[:, 1], triangles[:, 2], triangles[:, 0]])
    uniq, counts = np.unique(heads * n + tails, return_counts=True)
    if np.any(counts > 1):
        bad = uniq[np.argmax(counts > 1)]
        return (f"inconsistent orientation: directed edge ({bad // n}, {bad % n}) "
                "appears more than once")
    uniq, counts = np.unique(np.minimum(heads, tails) * n + np.maximum(heads, tails),
                             return_counts=True)
    if np.any(counts != 2):
        bad = np.argmax(counts != 2)
        return (f"not a closed 2-manifold: edge ({uniq[bad] // n}, {uniq[bad] % n}) is on "
                f"{counts[bad]} face(s), expected 2")
    return None


def message_of(build):
    """The message of the ValueError ``build()`` raises, or None."""
    try:
        build()
    except ValueError as error:
        return str(error)
    return None


BALL_CORRUPTIONS = ["swap two corners of a tet", "drop a tet", "duplicate a tet",
                    "reverse a boundary triangle"]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(corruption=st.sampled_from(BALL_CORRUPTIONS + ["reverse a surface face"]),
       seed=st.integers(0, 2**16))
def test_value_sorts_decide_as_the_grouping_reference(corruption, seed):
    """One random corruption of a relabelled (2, 3) ball or of an icosphere
    gets the reference's decision and message.  Only a swap of two tet
    corners, which the orientation canonicalizes, is accepted."""
    rng = np.random.default_rng(seed)
    if corruption == "reverse a surface face":
        sphere = build_icosphere(1.0, int(rng.integers(0, 4)))
        triangles = sphere.triangles.copy()
        face = rng.integers(len(triangles))
        triangles[face] = triangles[face, ::-1]
        expected = reference_surface_message(triangles, sphere.n_vertices)
        assert expected.startswith("inconsistent orientation")
        assert message_of(lambda: TriangleMesh(sphere.vertices, triangles)) == expected
        return
    vertices, tets, boundary, ids = permuted_ball_inputs(seed)
    t = rng.integers(len(tets))
    if corruption == "swap two corners of a tet":
        i, j = rng.choice(4, 2, replace=False)
        tets[t, [i, j]] = tets[t, [j, i]]
    elif corruption == "drop a tet":
        tets = np.delete(tets, t, axis=0)
    elif corruption == "duplicate a tet":
        tets = np.insert(tets, rng.integers(len(tets) + 1), tets[t], axis=0)
    else:
        triangles = boundary.triangles.copy()
        face = t % len(triangles)
        triangles[face] = triangles[face, ::-1]
        boundary = TriangleMesh(boundary.vertices, triangles, validate=False)
    expected = reference_boundary_message(oriented(vertices, tets), len(vertices),
                                          boundary.triangles, ids)
    assert (expected is None) == (corruption == "swap two corners of a tet")
    assert message_of(lambda: TetMesh(vertices, tets, boundary, ids)) == expected


def reference_tet_geometry(vertices, tets):
    """``TetMesh``'s geometry from one (m, 3, 3) gather of the edges and a
    boolean flip mask; also returns the mask."""
    e1, e2, e3 = (vertices[tets[:, 1:]] - vertices[tets[:, :1]]).transpose(1, 0, 2)
    adj = np.stack([np.cross(e2, e3), np.cross(e3, e1), np.cross(e1, e2)], axis=1)
    six_v = np.einsum("mj,mj->m", e1, adj[:, 0])
    flip = six_v < 0
    tets = tets.copy()
    tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
    adj[flip, 1:] = adj[flip, :0:-1]
    volumes = np.abs(six_v) / 6.0
    grads = np.empty((len(tets), 4, 3))
    grads[:, 1:, :] = adj / six_v[:, None, None]
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    weights = np.repeat(volumes / 4.0, 4).reshape(-1, 4)
    return {"tets": tets, "tet_volumes": volumes, "tet_gradients": grads,
            "corner_weights": weights,
            "dual_volumes": _scatter(tets, len(vertices), weights)}, flip


def assert_same_bits(mesh, expected):
    for name, value in expected.items():
        field = getattr(mesh, name)
        assert field.shape == value.shape and field.tobytes() == value.tobytes(), name


@pytest.mark.parametrize("seed", [0, 1])
def test_tet_geometry_keeps_the_bits_of_the_edge_gather(seed):
    """On the relabelled ball, with tets handed in with both orientations."""
    vertices, tets, boundary, ids = permuted_ball_inputs(seed)
    expected, flip = reference_tet_geometry(vertices, tets)
    assert 0 < flip.sum() < len(tets)
    assert_same_bits(TetMesh(vertices, tets, boundary, ids), expected)


def reference_triangle_geometry(vertices, triangles):
    """The ``TriangleMesh`` fields from one (m, 3, 3) gather of the corner
    positions, whole-array normal weights, np.cross and np.einsum."""
    tri = vertices[triangles]
    e0, e1, e2 = tri[:, 2] - tri[:, 1], tri[:, 0] - tri[:, 2], tri[:, 1] - tri[:, 0]
    cross = np.cross(e2, -e1)
    norm = np.linalg.norm(cross, axis=1)
    areas = 0.5 * norm
    normals = cross / np.where(norm > 0.0, norm, 1.0)[:, None]
    edges = np.stack([e0, e1, e2], axis=1)
    lsq = np.einsum("fcj,fcj->fc", edges, edges)
    denom = (lsq[:, [1, 2, 0]] * lsq[:, [2, 0, 1]]).T
    contrib = (normals * (2.0 * areas)[:, None])[None] / np.where(denom > 0, denom, 1.0)[:, :, None]
    vn = _scatter(triangles.T, len(vertices), contrib)
    vn_norm = np.linalg.norm(vn, axis=1)
    cots = -np.stack([np.einsum("fj,fj->f", edges[:, (c + 1) % 3], edges[:, (c + 2) % 3])
                      for c in range(3)], axis=1)
    cots /= np.where(areas > 0, 2.0 * areas, 1.0)[:, None]
    weighted = lsq * cots
    voronoi = (weighted[:, [1, 2, 0]] + weighted[:, [2, 0, 1]]) / 8.0
    obtuse = cots < 0.0
    corner_areas = np.where(obtuse.any(axis=1)[:, None],
                            np.where(obtuse, areas[:, None] / 2.0, areas[:, None] / 4.0), voronoi)
    return {"face_areas": areas, "face_normals": normals,
            "vertex_normals": vn / np.where(vn_norm > 0, vn_norm, 1.0)[:, None],
            "hat_gradients": np.cross(normals[:, None, :], edges) / (2.0 * areas)[:, None, None],
            "corner_cots": cots, "corner_areas": corner_areas,
            "vertex_areas": np.bincount(triangles.ravel(), corner_areas.ravel(),
                                        minlength=len(vertices))}


def test_triangle_geometry_keeps_the_bits_of_the_corner_gather():
    """On an icosphere with every vertex moved by up to 2% of the radius."""
    sphere = build_icosphere(1.0, 3)
    vertices = sphere.vertices + np.random.default_rng(5).uniform(-0.02, 0.02, sphere.vertices.shape)
    mesh = TriangleMesh(vertices, sphere.triangles)
    assert_same_bits(mesh, reference_triangle_geometry(vertices, sphere.triangles))


def test_triangle_geometry_keeps_the_bits_on_obtuse_faces():
    """On a coarse torus, whose obtuse faces take the mixed-area branch and
    whose right angles give cotangents of -0."""
    torus, _ = sample_mesh(AnalyticSurface.torus(2.0, 0.5), (12, 5))
    mesh = TriangleMesh(torus.vertices, torus.triangles)
    assert (mesh.corner_cots < 0).any() and np.signbit(mesh.corner_cots[mesh.corner_cots == 0]).any()
    assert_same_bits(mesh, reference_triangle_geometry(torus.vertices, torus.triangles))


def test_triangle_mesh_build_peak():
    """The constructor's tracemalloc peak above its inputs stays below twice
    the arrays it keeps: 1.52 times on the level-5 icosphere with the
    geometry on component-major vectors, 1.93 with (m, 3) rows and per-corner
    gathers, and 2.17 with the (m, 3, 3) corner gather, np.cross's input
    copies and the whole-array normal weights."""
    sphere = build_icosphere(1.0, 5)
    vertices, triangles = sphere.vertices, sphere.triangles
    tracemalloc.start()
    try:
        mesh = TriangleMesh(vertices, triangles)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mesh.n_faces == 20480
    assert peak < 2.0 * live


def test_tet_mesh_build_peak():
    """The constructor's tracemalloc peak above its inputs stays below 1.7
    times the arrays it keeps on the (3, 6) ball: 1.65 times with the
    geometry built on per-component block vectors, where the (m, 3, 3)
    edge and adjugate arrays gave 1.72.  The boundary check sets the peak."""
    ball = build_ball_tetmesh(1.0, surface_level=3, radial_layers=6)
    args = (ball.vertices, ball.tets, ball.boundary, ball.boundary_vertex_ids)
    tracemalloc.start()
    try:
        mesh = TetMesh(*args)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mesh.n_tets == 20480
    assert peak < 1.7 * live


SIGNED = [0.0, -0.0, 1.0, -1.5, 3e-300, -2.5e300]


def test_component_helpers_keep_the_bits_of_cross_and_einsum():
    """``_cross`` and ``_dot`` on component-major vectors give the bits of
    np.cross and np.einsum on (m, 3) rows, signed zeros and overflow
    included: every pair of vectors with components from ``SIGNED``."""
    rows = np.array(np.meshgrid(*[SIGNED] * 3, indexing="ij")).reshape(3, -1).T
    a = np.repeat(rows, len(rows), axis=0)
    b = np.tile(rows, (len(rows), 1))
    with np.errstate(over="ignore", invalid="ignore"):
        cross, dot = _cross(a.T, b.T), _dot(a.T, b.T)
        assert cross.T.tobytes() == np.cross(a, b).tobytes()
        assert dot.tobytes() == np.einsum("mj,mj->m", a, b).tobytes()


def test_ball_builds_one_triangle_mesh(monkeypatch):
    """The ball takes its shell directions from the icosphere arrays and
    builds only its boundary mesh, whose vertices are the unit icosphere's
    scaled by the radius."""
    built = []
    init = TriangleMesh.__init__
    monkeypatch.setattr(TriangleMesh, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    ball = build_ball_tetmesh(2.0, surface_level=2, radial_layers=3)
    assert len(built) == 1
    sphere = build_icosphere(2.0, 2)
    assert np.array_equal(ball.boundary.vertices, sphere.vertices)
    assert np.array_equal(ball.boundary.triangles, sphere.triangles)
