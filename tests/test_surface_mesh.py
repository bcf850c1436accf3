"""Triangle mesh construction, curvature estimators, and surface calculus."""
from __future__ import annotations

import re

import numpy as np
import pytest

from curvbc import (
    MeshError,
    MeshQualityError,
    TriangleMesh,
    build_icosphere,
    curvature_identity_residual,
    integrate_surface,
    mean_curvature,
    shape_operator,
    surface_divergence,
    surface_gradient,
)
from curvbc.surface_mesh import MAX_SUBDIVISION_LEVEL, _unit_icosphere

# roundoff floor for sequences that are already exact on sphere fixtures
FLOOR = 1e-10


def flat_patch(n=6):
    xs, ys = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n))
    verts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(n * n)])
    tris = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            tris.append([a, a + 1, a + n + 1])
            tris.append([a, a + n + 1, a + n])
    return TriangleMesh(verts, np.array(tris), validate=False)


def test_icosphere_counts():
    for level in range(4):
        m = build_icosphere(1.0, level)
        assert m.n_vertices == 10 * 4**level + 2
        assert m.n_faces == 20 * 4**level


def loop_subdivide_once(verts, faces):
    """Reference subdivision: one dict-cached midpoint per edge, in face order."""
    verts = list(map(tuple, verts))
    cache = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            p = np.array(verts[i]) + np.array(verts[j])
            p /= np.linalg.norm(p)
            cache[key] = len(verts)
            verts.append(tuple(p))
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(verts, dtype=float), np.array(out, dtype=np.int64)


def test_subdivision_matches_loop_reference():
    """The numbering ``build_icosphere`` states, bit for bit: each level is
    the loop reference applied to the level below, from the icosahedron."""
    verts, faces = _unit_icosphere(0)
    for level in range(1, 5):
        verts, faces = loop_subdivide_once(verts, faces)
        got_verts, got_faces = _unit_icosphere(level)
        assert got_faces.dtype == faces.dtype and np.array_equal(got_faces, faces)
        assert got_verts.shape == verts.shape and got_verts.tobytes() == verts.tobytes()


def test_icosphere_top_level_builds_validated():
    level = MAX_SUBDIVISION_LEVEL
    m = build_icosphere(1.0, level)
    assert level == 7
    assert m.n_vertices == 10 * 4**level + 2
    assert m.n_faces == 20 * 4**level
    assert not m.boundary_vertex_mask().any()


def test_icosphere_validation():
    with pytest.raises(ValueError):
        build_icosphere(-1.0, 2)
    with pytest.raises(ValueError):
        build_icosphere(1.0, -1)


@pytest.mark.parametrize("level", [np.nan, np.inf, 2.5, 8])
def test_icosphere_rejects_a_level_that_is_not_an_integer_in_range(level):
    """An inf level used to raise numpy's OverflowError, and nan its
    ValueError "cannot convert float NaN to integer"."""
    with pytest.raises(ValueError, match=r"^subdivision level must be an integer in \[0, 7\]$"):
        build_icosphere(1.0, level)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf])
def test_icosphere_rejects_non_finite_radius(radius):
    with pytest.raises(ValueError, match=f"^radius must be finite, got {radius}$"):
        build_icosphere(radius, 1)


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_construction_rejects_non_finite_vertex(value, validate):
    """A non-finite vertex would give non-finite areas that pass the
    quality check, and non-finite H."""
    m = build_icosphere(1.0, 1)
    verts = m.vertices.copy()
    verts[9, 1] = verts[5, 2] = value
    message = f"vertex 5 is not finite: {verts[5].tolist()}"
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        TriangleMesh(verts, m.triangles, validate=validate)


def test_construction_rejects_bad_indices():
    """The first bad entry is named, as :class:`~curvbc.TetMesh` names it."""
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(MeshError, match=r"^triangles\[0, 2\] = 3 is out of range for 3 vertices$"):
        TriangleMesh(verts, np.array([[0, 1, 3]]))
    with pytest.raises(MeshError, match=r"^triangles\[0, 1\] = 1.5 is not an integer$"):
        TriangleMesh(verts, np.array([[0, 1.5, 2]]))
    with pytest.raises(MeshError, match=r"^triangles must have shape \(m, 3\)$"):
        TriangleMesh(verts, np.array([0, 1, 2]))


def test_construction_rejects_open_mesh():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(MeshError):
        TriangleMesh(verts, np.array([[0, 1, 2]]))


@pytest.mark.parametrize("i, j", [(0, 1), (1, 2), (2, 0)])
def test_construction_rejects_repeated_vertex(i, j):
    m = build_icosphere(1.0, 0)
    tris = m.triangles.copy()
    tris[0, j] = tris[0, i]
    with pytest.raises(MeshError, match="^triangle with repeated vertex$"):
        TriangleMesh(m.vertices, tris)


def test_construction_rejects_degenerate_face():
    m = build_icosphere(1.0, 0)
    verts = m.vertices.copy()
    verts[0] = verts[1]
    with pytest.raises(MeshQualityError):
        TriangleMesh(verts, m.triangles)


def test_construction_rejects_inconsistent_orientation():
    m = build_icosphere(1.0, 0)
    tris = m.triangles.copy()
    tris[0] = tris[0, ::-1]
    with pytest.raises(MeshError):
        TriangleMesh(m.vertices, tris)


def test_construction_rejects_unused_vertex():
    """A vertex on no face would get area 0, normal 0 and an H of nan."""
    m = build_icosphere(1.0, 2)
    appended = np.vstack([m.vertices, [[0.0, 2.0, 0.0]]])
    with pytest.raises(MeshError, match=f"^vertex {m.n_vertices} is on no face$"):
        TriangleMesh(appended, m.triangles)
    # a second one at index 3 is the first named
    verts = np.insert(appended, 3, [2.0, 0.0, 0.0], axis=0)
    tris = np.where(m.triangles >= 3, m.triangles + 1, m.triangles)
    with pytest.raises(MeshError, match="^vertex 3 is on no face$"):
        TriangleMesh(verts, tris)
    patch = TriangleMesh(verts, tris, validate=False)
    assert patch.vertex_areas[3] == patch.vertex_areas[-1] == 0.0


def test_vertex_normals_exact_on_sphere():
    m = build_icosphere(1.0, 3)
    assert np.abs(m.vertex_normals - m.vertices).max() <= 1e-12


def test_mean_curvature_matches_inverse_radius():
    for radius in (1.0, 2.5):
        m = build_icosphere(radius, 3)
        H = mean_curvature(m)
        assert np.abs(H * radius - 1.0).max() <= FLOOR


def test_flip_negates_mean_curvature():
    m = build_icosphere(1.0, 2)
    H = mean_curvature(m)
    assert np.abs(mean_curvature(m.flipped()) + H).max() <= 1e-12


def test_gradient_divergence_adjoint():
    m = build_icosphere(1.0, 2)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(m.n_vertices)
    X = rng.standard_normal((m.n_faces, 3))
    lhs = np.sum(m.face_areas * np.einsum("fj,fj->f", surface_gradient(m, f), X))
    rhs = -np.sum(m.vertex_areas * f * surface_divergence(m, X))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_divergence_theorem_on_closed_mesh():
    m = build_icosphere(1.0, 2)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((m.n_faces, 3))
    total = np.sum(m.vertex_areas * surface_divergence(m, X))
    assert abs(total) <= 1e-12


def test_divergence_of_projected_constant_field():
    # div_s(P e_z) = -2 H n_z on a closed surface
    devs = []
    for level in (3, 4):
        m = build_icosphere(1.0, level)
        H = mean_curvature(m)
        ez = np.zeros((m.n_faces, 3))
        ez[:, 2] = 1.0
        tangential = ez - m.face_normals * m.face_normals[:, 2:3]
        div = surface_divergence(m, tangential)
        devs.append(np.abs(div + 2.0 * H * m.vertex_normals[:, 2]).max())
    assert devs[0] <= 0.05
    assert devs[1] < devs[0]


def test_curvature_identity_residual_on_spheres():
    res3 = curvature_identity_residual(build_icosphere(1.0, 3))
    res5 = curvature_identity_residual(build_icosphere(1.0, 5))
    assert res3 <= 0.1
    assert res5 < res3 or res5 <= FLOOR


def test_curvature_identity_residual_flat_patch():
    assert curvature_identity_residual(flat_patch()) <= 1e-12


def test_boundary_vertex_mask():
    assert not build_icosphere(1.0, 1).boundary_vertex_mask().any()
    patch = flat_patch(6)
    mask = patch.boundary_vertex_mask()
    assert mask.sum() == 20  # perimeter of a 6x6 grid


def test_integrate_surface_area_and_volume():
    m = build_icosphere(2.0, 3)
    area = integrate_surface(m, np.ones(m.n_vertices))
    assert abs(area - m.total_area) <= 1e-12 * m.total_area
    assert abs(area - 16 * np.pi) <= 0.01 * 16 * np.pi

    unit = build_icosphere(1.0, 3)
    flux = integrate_surface(
        unit, np.einsum("vj,vj->v", unit.vertices, unit.vertex_normals)
    )
    assert abs(flux / 3.0 - 4 * np.pi / 3) <= 0.01 * 4 * np.pi / 3


def test_enclosed_volume_tetrahedron():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    tris = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    m = TriangleMesh(verts, tris)
    assert abs(m.enclosed_volume() - 1.0 / 6.0) <= 1e-14


def test_shape_operator_sphere_umbilic():
    for radius in (1.0, 2.0):
        m = build_icosphere(radius, 3)
        data = shape_operator(m)
        k = np.asarray(data.principal_curvatures())
        assert np.abs(k * radius - 1.0).max() <= FLOOR
        trace = data.shape_op[:, 0, 0] + data.shape_op[:, 1, 1]
        assert np.abs(trace - 2.0 * data.mean).max() <= FLOOR


def test_curvature_gradient_vanishes_on_sphere():
    m = build_icosphere(2.0, 4)
    data = shape_operator(m)
    assert np.abs(data.grad_H).max() <= 1e-2 / 4.0
