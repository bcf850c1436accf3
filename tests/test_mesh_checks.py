"""Mesh constructor checks and geometry against the code they replaced.

``TetMesh``'s boundary check and ``TriangleMesh``'s closed-orientation check
share one sort of signed face keys.  The grouping and counting checks they
replaced are kept here as references: a corrupted mesh must get the same
decision and the same message from both.  The tet messages are the grouping
check's; the triangle reference names the smallest bad undirected edge, as
the key check does.  The check is also run on index arrays alone, with keys
past 2**63, and ``boundary_vertex_mask`` is compared with an edge count on
every unvalidated patch the tests build.  The constructors' geometry is
compared bit for bit with the formulas it replaced, on a relabelled ball
whose input tets come with both orientations, on a perturbed icosphere and
on a coarse torus.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvbc import TetMesh, TriangleMesh, build_ball_tetmesh, build_icosphere
from curvbc.analytic_geometry import AnalyticSurface, sample_mesh
from curvbc.surface_mesh import _cross, _dot, _scatter, _signed_keys
from curvbc.variational_engine import _check_boundary_faces

from test_assembler import permuted_ball_inputs
from test_batched_geometry import bump_patch, fan, reflected_pair, two_sided_sheet
from test_curvature_cache import patch_with_duplicated_face
from test_surface_mesh import flat_patch
from test_variational_engine import boundary_variants

# faces of a positively oriented tet (0, 1, 2, 3), wound with outward normals
TET_FACES = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
# the largest vertex count the boundary check takes
N_TOP = 2**21 - 1


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
    """The counting closed-orientation check: its message, or None.

    A mesh fails when a directed edge is on two faces or an edge is not on
    exactly two.  The smallest edge either holds is named: as the directed
    edge traversed twice if the edge is on two faces, else with its count."""
    heads = np.concatenate([triangles[:, 0], triangles[:, 1], triangles[:, 2]])
    tails = np.concatenate([triangles[:, 1], triangles[:, 2], triangles[:, 0]])
    directed, directed_counts = np.unique(heads * n + tails, return_counts=True)
    edges, counts = np.unique(np.minimum(heads, tails) * n + np.maximum(heads, tails),
                              return_counts=True)
    repeated = directed[directed_counts > 1]
    bad = (counts != 2) | np.isin(edges, np.minimum(repeated // n, repeated % n) * n
                                  + np.maximum(repeated // n, repeated % n))
    if not bad.any():
        return None
    g = np.argmax(bad)
    lo, hi = divmod(int(edges[g]), n)
    if counts[g] == 2:
        head, tail = (lo, hi) if lo * n + hi in repeated else (hi, lo)
        return (f"inconsistent orientation: directed edge ({head}, {tail}) "
                "appears more than once")
    return f"not a closed 2-manifold: edge ({lo}, {hi}) is on {counts[g]} face(s), expected 2"


def message_of(build):
    """The message of the ValueError ``build()`` raises, or None."""
    try:
        build()
    except ValueError as error:
        return str(error)
    return None


BALL_CORRUPTIONS = ["swap two corners of a tet", "drop a tet", "duplicate a tet",
                    "reverse a boundary triangle"]
# what each surface corruption does to the smallest edge it breaks
SURFACE_CORRUPTIONS = {"drop a face": "is on 1 face(s)", "duplicate a face": "is on 3 face(s)",
                       "reverse a face": "appears more than once"}


def surfaces():
    """Icospheres of levels 0 to 3 and the coarse (12, 5) torus."""
    torus, _ = sample_mesh(AnalyticSurface.torus(2.0, 0.5), (12, 5))
    return [build_icosphere(1.0, level) for level in range(4)] + [torus]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(corruption=st.sampled_from(BALL_CORRUPTIONS + list(SURFACE_CORRUPTIONS)),
       seed=st.integers(0, 2**16))
def test_value_sorts_decide_as_the_grouping_reference(corruption, seed):
    """One random corruption of a relabelled (2, 3) ball, or of each of the
    icospheres and the torus, gets the reference's decision and message.
    Only a swap of two tet corners, which the orientation canonicalizes, is
    accepted."""
    rng = np.random.default_rng(seed)
    if corruption in SURFACE_CORRUPTIONS:
        for surface in surfaces():
            triangles = surface.triangles.copy()
            face = rng.integers(len(triangles))
            if corruption == "drop a face":
                triangles = np.delete(triangles, face, axis=0)
            elif corruption == "duplicate a face":
                triangles = np.insert(triangles, rng.integers(len(triangles) + 1),
                                      triangles[face], axis=0)
            else:
                triangles[face] = triangles[face, ::-1]
            expected = reference_surface_message(triangles, surface.n_vertices)
            assert SURFACE_CORRUPTIONS[corruption] in expected
            assert message_of(lambda: TriangleMesh(surface.vertices, triangles)) == expected
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


@pytest.mark.parametrize("tet", [(N_TOP - 4, N_TOP - 3, N_TOP - 2, N_TOP - 1),
                                 (0, N_TOP - 3, N_TOP - 2, N_TOP - 1)])
def test_boundary_check_keys_past_2_63(tet):
    """The boundary check on index arrays alone: one tet and its four faces
    as the boundary, with vertex ids near the largest the check takes.  The
    signed keys pass 2**63 (all of them for the first tet, the face away
    from vertex 0 for the second), so they must sort as uint64: the closed
    set passes, and a set with one face reversed, or all four, fails with
    the reference message, which names the smallest face."""
    corners, ids = np.array(tet)[:, None], np.array(tet)
    rows = [tuple(corners[i] for i in face) for face in TET_FACES]
    assert (_signed_keys(N_TOP, rows) > 2**63).sum() == (4 if tet[0] else 1)
    _check_boundary_faces(corners, N_TOP, TET_FACES, ids)
    for reversed_faces in [[0], [1], [2], [3], [0, 1, 2, 3]]:
        triangles = TET_FACES.copy()
        triangles[reversed_faces] = triangles[reversed_faces, ::-1]
        expected = reference_boundary_message(np.array([tet]), N_TOP, triangles, ids)
        assert expected.endswith("is wound inward")
        assert message_of(
            lambda: _check_boundary_faces(corners, N_TOP, triangles, ids)) == expected
    with pytest.raises(ValueError, match=r"^the boundary check supports fewer than 2\*\*21 "):
        _check_boundary_faces(corners, N_TOP + 1, TET_FACES, ids)


def reference_boundary_mask(triangles, n):
    """Vertices on an edge that one face holds, counted by ``np.unique``."""
    heads, tails = triangles.ravel(), triangles[:, [1, 2, 0]].ravel()
    edges, counts = np.unique(np.minimum(heads, tails) * n + np.maximum(heads, tails),
                              return_counts=True)
    mask = np.zeros(n, dtype=bool)
    mask[edges[counts == 1] // n] = True
    mask[edges[counts == 1] % n] = True
    return mask


def unvalidated_patches():
    """The ``validate=False`` patches the tests build, by name."""
    flat = flat_patch(4)
    patches = {"flat grid": flat, "bump": bump_patch(), "fan": fan(),
               "reflected pair": reflected_pair(0.0, lift=0.4),
               "two-sided sheet": two_sided_sheet(),
               "bump with a face listed twice": patch_with_duplicated_face(),
               # face 4 is corner 3's only face
               "flat grid with a face listed twice":
                   (flat.vertices, np.insert(flat.triangles, 9, flat.triangles[4], axis=0)),
               "one triangle": (np.eye(3), [[0, 1, 2]])}
    sphere = build_icosphere(1.0, 1)
    patches["sphere with a stray vertex"] = (np.vstack([sphere.vertices, [[0.0, 2.0, 0.0]]]),
                                             sphere.triangles)
    _, variants = boundary_variants()
    for name, (vertices, triangles, *_) in variants.items():
        patches[f"ball boundary, {name}"] = (vertices, triangles)
    return {name: patch if isinstance(patch, TriangleMesh)
            else TriangleMesh(*patch, validate=False) for name, patch in patches.items()}


def test_boundary_vertex_mask_equals_the_counted_mask():
    """On every patch, the vertices of the edges held by one face.  The
    edges of a face listed twice are held two or more times, so are not
    open: corner 3 of the flat grid leaves the mask when its face is."""
    patches = unvalidated_patches()
    for name, patch in patches.items():
        expected = reference_boundary_mask(patch.triangles, patch.n_vertices)
        assert np.array_equal(patch.boundary_vertex_mask(), expected), name
    mask = patches["flat grid with a face listed twice"].boundary_vertex_mask()
    assert mask.sum() == 11 and not mask[3]


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
    times the arrays it keeps on the (3, 6) ball: 1.57 times with one array
    of signed face keys sorted in place, 1.65 when the keys of each winding
    parity were copied out to be sorted, and 1.72 before that, with the
    (m, 3, 3) edge and adjugate arrays.  Building the boundary check's keys
    sets the peak."""
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
