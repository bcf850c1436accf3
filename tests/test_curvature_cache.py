"""Boundary curvature computed once per mesh, and the sorts that replaced
``np.unique``.

The cotangent ``H`` of a ``TriangleMesh`` is evaluated at most once,
whichever public entry point reaches it first, and callers of
``mean_curvature`` get a copy they may write into.  ``H`` is summed one
coordinate at a time and is checked bit for bit against the interleaved
``(6, m, 3)`` formulation it replaced.  ``shape_operator`` takes its 1-ring
edges from a sort and fits from per-vertex 1-ring sums; it is checked
against the ``np.unique`` and batched-SVD formulation it replaced, kept here
as the reference: the same flags and bits apart from the fit, which agrees
to 1e-12.  A source scan keeps hash-path ``np.unique`` calls out of the
package.
"""
from __future__ import annotations

import ast
import os

import numpy as np
import pytest

import curvbc
from curvbc import (
    AnalyticSurface,
    FieldState,
    TetMesh,
    TriangleMesh,
    build_icosphere,
    curvature_identity_residual,
    mean_curvature,
    natural_bc_residual,
    robin_surface,
    sample_mesh,
    shape_operator,
)
from curvbc.surface_mesh import _scatter, _tangent_frames, _vertex_grad_H

from test_assembler import perturbed_ball
from test_batched_geometry import bump_patch
from test_off_sphere import perturbed_icosphere, perturbed_torus
from test_variational_engine import POISSON


class CotangentSpy(TriangleMesh):
    """A mesh that counts the reads of its corner cotangents, which only the
    cotangent evaluation of ``H`` makes after construction."""

    @property
    def corner_cots(self):
        self.cot_reads += 1
        return self._corner_cots

    @corner_cots.setter
    def corner_cots(self, value):
        self.cot_reads = 0
        self._corner_cots = value


def spied_ball():
    """The perturbed (2, 3) ball on a :class:`CotangentSpy` boundary."""
    ball = perturbed_ball(2, 0.04)
    B = ball.boundary
    spy = CotangentSpy(B.vertices, B.triangles)
    return TetMesh(ball.vertices, ball.tets, spy, ball.boundary_vertex_ids), spy


ENTRY_POINTS = {
    "mean_curvature": lambda ball: mean_curvature(ball.boundary),
    "vertex_mean_curvature": lambda ball: ball.boundary.vertex_mean_curvature,
    "curvature_identity_residual": lambda ball: curvature_identity_residual(ball.boundary),
    "shape_operator": lambda ball: shape_operator(ball.boundary),
    "natural_bc_residual": lambda ball: natural_bc_residual(
        ball, POISSON, robin_surface(1.0),
        FieldState(np.random.default_rng(0).standard_normal((ball.n_vertices, 1)))),
}


@pytest.mark.parametrize("first", list(ENTRY_POINTS))
def test_one_cotangent_evaluation_per_mesh(first):
    ball, spy = spied_ball()
    assert spy.cot_reads == 0
    ENTRY_POINTS[first](ball)
    one_evaluation = spy.cot_reads
    assert one_evaluation > 0
    for call in ENTRY_POINTS.values():
        call(ball)
        call(ball)
    assert spy.cot_reads == one_evaluation


def test_mean_curvature_returns_a_copy():
    mesh = perturbed_icosphere(4, 0.05, level=3)
    H = mean_curvature(mesh)
    expected = H.copy()
    assert H.flags.writeable and H is not mesh.vertex_mean_curvature
    H[:] = 7.0
    assert np.array_equal(mesh.vertex_mean_curvature, expected)
    assert not mesh.vertex_mean_curvature.flags.writeable
    again = mean_curvature(mesh)
    assert again is not H and np.array_equal(again, expected)
    assert np.array_equal(shape_operator(mesh).mean, expected)


def interleaved_mean_curvature(mesh):
    """Reference: the cotangent ``H`` from ``(6, m, 3)`` edge contributions
    gathered as coordinate rows, as it was computed before the coordinate
    vectors."""
    tri = mesh.triangles
    x = mesh.vertices
    index = np.empty((6, len(tri)), dtype=np.int64)
    contrib = np.empty((6, len(tri), 3))
    for c in range(3):
        i = tri[:, (c + 1) % 3]
        j = tri[:, (c + 2) % 3]
        w = 0.5 * mesh.corner_cots[:, c]
        index[2 * c], index[2 * c + 1] = i, j
        contrib[2 * c] = w[:, None] * (x[j] - x[i])
        contrib[2 * c + 1] = -contrib[2 * c]
    lap = _scatter(index, mesh.n_vertices, contrib)
    return -np.einsum("vj,vj->v", lap, mesh.vertex_normals) / (2.0 * mesh.vertex_areas)


def unique_shape_operator(mesh):
    """Reference: ``shape_operator`` with its 1-ring edges and degree groups
    taken by ``np.unique`` and each degree group fitted by one batched SVD,
    as it was written before the sorts and the 1-ring sums."""
    H = mesh.vertex_mean_curvature
    frames = _tangent_frames(mesh.vertex_normals)
    n = mesh.n_vertices
    tri = mesh.triangles
    key = np.unique(tri.ravel() * n + tri[:, [1, 2, 0]].ravel())
    heads, tails = key // n, key % n
    degree = np.bincount(heads, minlength=n)
    starts = np.cumsum(degree) - degree
    x, vn = mesh.vertices, mesh.vertex_normals
    fit, full_rank = np.zeros((n, 3)), np.zeros(n, dtype=bool)
    for deg in np.unique(degree[degree > 0]):
        ids = np.flatnonzero(degree == deg)
        rows = (starts[ids][:, None] + np.arange(deg)).ravel()
        h, t = heads[rows], tails[rows]
        E = frames[h]
        u = np.einsum("ekj,ej->ek", E, x[t] - x[h]).reshape(len(ids), deg, 2)
        dn = np.einsum("ekj,ej->ek", E, vn[t] - vn[h]).reshape(len(ids), 2 * deg)
        A = np.zeros((len(ids), deg, 2, 3))
        A[:, :, 0, :2] = u
        A[:, :, 1, 1:] = u
        # least squares of the stack by one batched SVD, with the rank rule
        # of np.linalg.lstsq (rcond=None)
        U, s, Vh = np.linalg.svd(A.reshape(len(ids), 2 * deg, 3), full_matrices=False)
        keep = s > np.finfo(float).eps * max(2 * deg, 3) * s[:, :1]
        coef = np.einsum("kmi,km->ki", U, dn)
        coef = np.where(keep, coef / np.where(keep, s, 1.0), 0.0)
        fit[ids] = np.einsum("kij,ki->kj", Vh, coef)
        full_rank[ids] = keep.sum(axis=1) == 3
    S = fit[:, [[0, 1], [1, 2]]]
    S += (0.5 * (2.0 * H - (fit[:, 0] + fit[:, 2])))[:, None, None] * np.eye(2)
    S[~full_rank] = H[~full_rank, None, None] * np.eye(2)
    return S, frames, _vertex_grad_H(mesh), np.flatnonzero(~full_rank).tolist()


def patch_with_duplicated_face():
    """The open bump patch with its face 7 listed twice (``validate=False``),
    so three directed 1-ring edges come twice."""
    patch = bump_patch()
    return TriangleMesh(patch.vertices, np.vstack([patch.triangles, patch.triangles[7]]),
                        validate=False)


GEOMETRY_MESHES = {
    "perturbed icosphere": lambda: perturbed_icosphere(9, 0.05, level=4),
    "cylinder": lambda: sample_mesh(AnalyticSurface.cylinder(0.5, 2.0), (12, 6))[0],
    "open patch with a duplicated face": patch_with_duplicated_face,
}


@pytest.mark.parametrize("name", [*GEOMETRY_MESHES, "obtuse torus"])
def test_mean_curvature_keeps_the_bits_of_the_interleaved_sum(name):
    mesh = (perturbed_torus(3, 0.2, minor=0.9, resolution=(12, 5)) if name == "obtuse torus"
            else GEOMETRY_MESHES[name]())
    if name == "obtuse torus":
        assert (mesh.corner_cots < 0.0).any()
    assert mean_curvature(mesh).tobytes() == interleaved_mean_curvature(mesh).tobytes()


@pytest.mark.parametrize("name", list(GEOMETRY_MESHES))
def test_shape_operator_keeps_the_bits_of_unique(name):
    """The frames, grad_H, H and flags keep their bits; the fit from the
    1-ring sums agrees with the SVD fit to 1e-12 of the largest entry."""
    mesh = GEOMETRY_MESHES[name]()
    data = shape_operator(mesh)
    S, frames, grad_H, flagged = unique_shape_operator(mesh)
    assert data.shape_op.dtype == S.dtype and data.shape_op.shape == S.shape
    assert np.abs(data.shape_op - S).max() <= 1e-12 * np.abs(S).max()
    for actual, expected in ((data.frames, frames), (data.grad_H, grad_H)):
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
    assert data.flagged == flagged
    assert data.mean.tobytes() == mesh.vertex_mean_curvature.tobytes()
    if name == "cylinder":
        # the cap centres have degree 12, most other vertices 6
        assert {6, 12} <= set(np.bincount(mesh.triangles.ravel()).tolist())
    if name.startswith("open patch"):
        assert flagged == [3, 12]


@pytest.mark.parametrize("build", [
    lambda: build_icosphere(1.0, 3),
    lambda: perturbed_icosphere(1, 0.05, level=3),
    lambda: perturbed_torus(2, 0.1),
])
def test_closed_mask_equals_counted_mask(build):
    mesh = build()
    counted = TriangleMesh(mesh.vertices, mesh.triangles, validate=False)
    assert np.array_equal(mesh.boundary_vertex_mask(), counted.boundary_vertex_mask())
    assert not mesh.boundary_vertex_mask().any()


SORTING_KEYWORDS = {"return_index", "return_inverse", "return_counts"}


def hash_path_unique_calls(source):
    """``(line, text)`` of each ``np.unique(...)`` call without a keyword that
    asks for indices or counts: on numpy >= 2.3 such a call takes a hash
    table, which is many times slower on integer keys than a sort and a
    neighbour compare."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and not SORTING_KEYWORDS & {k.arg for k in node.keywords}):
            found.append((node.lineno, ast.get_source_segment(source, node)))
    return found


def test_hash_path_unique_finder():
    source = ("a = np.unique(x)\n"
              "b = numpy.unique(x, axis=0)\n"
              "c, i = np.unique(x, return_inverse=True)\n"
              "d, n = np.unique(x, return_counts=True)\n")
    assert [line for line, _ in hash_path_unique_calls(source)] == [1, 2]


def test_package_has_no_hash_path_unique():
    package = os.path.dirname(os.path.abspath(curvbc.__file__))
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                calls = hash_path_unique_calls(f.read())
            if calls:
                found[name] = calls
    assert not found, f"np.unique without return_index/inverse/counts: {found}"
