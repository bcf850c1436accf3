"""Discrete surface identities on meshes whose curvature is not constant.

On icospheres ``H`` and the curvature identity are exact to roundoff, so
tests that use only icospheres cannot tell a correct estimator from a
wrong one.  These properties run on radially perturbed icospheres and on
sampled tori (moved along their normals), and the transport integral runs
on tet meshes whose boundaries are such surfaces: a perturbed ball and a
hollow torus.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvbc import (
    AnalyticSurface,
    FieldState,
    TetMesh,
    TriangleMesh,
    assemble_action,
    build_icosphere,
    harmonic,
    mean_curvature,
    robin_surface,
    sample_mesh,
    surface_divergence,
)
from test_assembler import perturbed_ball

SETTINGS = settings(max_examples=8, deadline=None, derandomize=True,
                    database=None)
SEEDS = st.integers(0, 2**16)
AMPLITUDES = st.floats(0.01, 0.05)


def perturbed_icosphere(seed, amplitude, level=2):
    base = build_icosphere(1.0, level)
    rng = np.random.default_rng(seed)
    radii = 1.0 + amplitude * rng.uniform(-1.0, 1.0, base.n_vertices)
    return TriangleMesh(base.vertices * radii[:, None], base.triangles)


def perturbed_torus(seed, amplitude, minor=0.5, resolution=(12, 24)):
    base, _ = sample_mesh(AnalyticSurface.torus(2.0, minor), resolution)
    rng = np.random.default_rng(seed)
    shift = amplitude * minor * rng.uniform(-1.0, 1.0, base.n_vertices)
    return TriangleMesh(base.vertices + shift[:, None] * base.vertex_normals,
                        base.triangles)


@st.composite
def surfaces(draw):
    seed, amplitude = draw(SEEDS), draw(AMPLITUDES)
    if draw(st.booleans()):
        return perturbed_icosphere(seed, amplitude)
    return perturbed_torus(seed, amplitude)


def prism_tets(bottom, top_offset):
    """Three tets per triangle of ``bottom`` joined to the same triangle
    ``top_offset`` vertices up, split by sorted vertex index."""
    b = np.sort(bottom, axis=1)
    t = b + top_offset
    return np.concatenate([
        np.column_stack([b[:, 0], b[:, 1], b[:, 2], t[:, 2]]),
        np.column_stack([b[:, 0], b[:, 1], t[:, 1], t[:, 2]]),
        np.column_stack([b[:, 0], t[:, 0], t[:, 1], t[:, 2]]),
    ])


def hollow_torus():
    """Solid between tori of minor radii 0.25 and 0.5; the inner torus is
    part of the boundary with its winding reversed."""
    inner, _ = sample_mesh(AnalyticSurface.torus(2.0, 0.25), (12, 24))
    outer, _ = sample_mesh(AnalyticSurface.torus(2.0, 0.5), (12, 24))
    n = inner.n_vertices
    vertices = np.vstack([inner.vertices, outer.vertices])
    triangles = np.vstack([outer.triangles + n, inner.triangles[:, ::-1]])
    return TetMesh(vertices, prism_tets(inner.triangles, n),
                   TriangleMesh(vertices, triangles), np.arange(2 * n))


@SETTINGS
@given(mesh=surfaces(), seed=SEEDS)
def test_divergence_theorem_off_sphere(mesh, seed):
    X = np.random.default_rng(seed).standard_normal((mesh.n_faces, 3))
    weighted = mesh.vertex_areas * surface_divergence(mesh, X)
    assert abs(weighted.sum()) <= 1e-13 * (1.0 + np.abs(weighted).sum())


@SETTINGS
@given(mesh=surfaces())
def test_flipping_negates_mean_curvature_off_sphere(mesh):
    H = mean_curvature(mesh)
    assert np.ptp(H) > 1e-3                      # the curvature does vary
    assert np.abs(mean_curvature(mesh.flipped()) + H).max() <= 1e-12 * np.abs(H).max()


def test_hollow_torus_builds():
    mesh = hollow_torus()
    assert mesh.boundary.n_faces == 2 * 2 * 12 * 24
    exact = 2.0 * np.pi**2 * 2.0 * (0.5**2 - 0.25**2)
    assert abs(mesh.total_volume - exact) <= 0.1 * exact


@SETTINGS
@given(seed=SEEDS, amplitude=AMPLITUDES, torus=st.booleans())
def test_transport_integral_vanishes_off_sphere(seed, amplitude, torus):
    mesh = hollow_torus() if torus else perturbed_ball(seed, amplitude)
    rng = np.random.default_rng(seed)
    state = FieldState(rng.standard_normal((mesh.n_vertices, 1)))
    b = mesh.boundary
    raw = rng.standard_normal((b.n_faces, 3))
    tangential = raw - b.face_normals * np.einsum("fj,fj->f", raw, b.face_normals)[:, None]
    base = assemble_action(mesh, harmonic(), robin_surface(0.8), state)
    moved = assemble_action(mesh, harmonic(), robin_surface(0.8), state,
                            surface_transport=tangential)
    scale = np.abs(tangential).max() * b.total_area
    assert abs(moved.transport_integral) <= 1e-13 * scale
    assert moved.total == base.total
