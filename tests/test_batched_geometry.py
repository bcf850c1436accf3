"""The batched geometry layer against the per-vertex and per-point loops it replaced.

``shape_operator`` fits every vertex at once from six per-vertex 1-ring
sums: the 3 x 3 normal equations solved by their adjugate, with a vertex
flagged when the Gram determinant of its projected edges is zero to
roundoff.  The analytic jets and sampled meshes are built with array ops.
The loops are kept here as references: the fit must agree with one
``np.linalg.lstsq`` per vertex, flagging the same vertices as its rank rule,
and the sampled meshes and their jets must equal the scalar closed forms bit
for bit.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given

from curvbc import AnalyticSurface, TriangleMesh, evaluate_jet, sample_mesh, shape_operator
from curvbc.analytic_geometry import GeometryJet
from curvbc.surface_mesh import _tangent_frames, _vertex_grad_H
from test_off_sphere import AMPLITUDES, SEEDS, SETTINGS, perturbed_icosphere

SPHERE = AnalyticSurface.sphere(2.0)
CYLINDER = AnalyticSurface.cylinder(0.5, 2.0)
TORUS = AnalyticSurface.torus(2.0, 0.5)


# -- the per-vertex fit ---------------------------------------------------------

def loop_shape_operator(mesh):
    """Reference fit: sorted 1-ring neighbours and one lstsq per vertex."""
    H = mesh.vertex_mean_curvature
    frames = _tangent_frames(mesh.vertex_normals)
    n = mesh.n_vertices
    heads = np.concatenate([mesh.triangles[:, c] for c in range(3)])
    tails = np.concatenate([mesh.triangles[:, (c + 1) % 3] for c in range(3)])
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    starts = np.searchsorted(heads, np.arange(n + 1))
    S = np.zeros((n, 2, 2))
    flagged = []
    x, vn = mesh.vertices, mesh.vertex_normals
    for i in range(n):
        nbrs = np.unique(tails[starts[i]:starts[i + 1]])
        E = frames[i]
        du = (x[nbrs] - x[i]) @ E.T
        dn = (vn[nbrs] - vn[i]) @ E.T
        A = np.zeros((2 * len(nbrs), 3))
        A[0::2, 0] = du[:, 0]
        A[0::2, 1] = du[:, 1]
        A[1::2, 1] = du[:, 0]
        A[1::2, 2] = du[:, 1]
        sol, _, rank, _ = np.linalg.lstsq(A, dn.reshape(-1), rcond=None)
        if rank < 3:
            flagged.append(i)
            S[i] = H[i] * np.eye(2)
        else:
            S[i] = [[sol[0], sol[1]], [sol[1], sol[2]]]
            S[i] += 0.5 * (2.0 * H[i] - np.trace(S[i])) * np.eye(2)
    return S, flagged, frames, _vertex_grad_H(mesh)


def assert_fit_matches_loop(mesh):
    data = shape_operator(mesh)
    S, flagged, frames, grad_H = loop_shape_operator(mesh)
    assert np.abs(data.shape_op - S).max() <= 1e-12 * np.abs(S).max()
    assert data.flagged == flagged
    assert np.array_equal(data.mean, mesh.vertex_mean_curvature)
    assert np.array_equal(data.frames, frames)
    assert np.array_equal(data.grad_H, grad_H)
    return data


def bump_patch():
    """Open 4x4 grid patch on a paraboloid (``validate=False``).

    Corners 3 and 12 lie in one triangle each, so their fits have 2 rows
    and are flagged.
    """
    g = np.arange(4.0) / 3.0
    x, y = np.meshgrid(g, g, indexing="ij")
    verts = np.column_stack([x.ravel(), y.ravel(), 0.3 * (x**2 + 2.0 * y**2).ravel()])
    tris = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = 4 * i + j, 4 * (i + 1) + j, 4 * (i + 1) + j + 1, 4 * i + j + 1
            tris += [(a, b, c), (a, c, d)]
    return TriangleMesh(verts, np.array(tris), validate=False)


@SETTINGS
@given(seed=SEEDS, amplitude=AMPLITUDES)
def test_fit_matches_loop_on_perturbed_icospheres(seed, amplitude):
    assert_fit_matches_loop(perturbed_icosphere(seed, amplitude, level=3))


@pytest.mark.parametrize("surface,resolution", [(TORUS, (40, 16)), (CYLINDER, (12, 6))])
def test_fit_matches_loop_on_sampled_surfaces(surface, resolution):
    mesh, _ = sample_mesh(surface, resolution)
    data = assert_fit_matches_loop(mesh)
    assert not data.flagged
    if surface is CYLINDER:
        # the cap centres have degree n_u, the rest 6
        degrees = np.bincount(mesh.triangles.ravel())
        assert set(degrees.tolist()) >= {6, 12}


def test_fit_matches_loop_on_open_patch_with_flagged_vertex():
    mesh = bump_patch()
    data = assert_fit_matches_loop(mesh)
    assert data.flagged == [3, 12]
    for i in data.flagged:
        assert np.array_equal(data.shape_op[i], data.mean[i] * np.eye(2))


def fan():
    """Open fan of six triangles around vertex 0 on a paraboloid
    (``validate=False``): every 1-ring has a Gram matrix of rank 2."""
    angle = np.arange(6) * np.pi / 3.0 + 0.1
    xy = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angle), 0.8 * np.sin(angle)])])
    z = 0.3 * xy[:, 0] ** 2 + 0.7 * xy[:, 1] ** 2 + 0.2 * xy[:, 0] * xy[:, 1]
    tris = [(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)]
    return TriangleMesh(np.column_stack([xy, z]), np.array(tris), validate=False)


def reflected_pair(bend, lift):
    """Vertex 0 on two triangles, the second the first's point reflection
    through the z axis, moved by ``bend`` in y (``validate=False``).

    With no bend the normal at vertex 0 is exactly the z axis, so its two
    projected edges are exactly antiparallel: a Gram matrix of rank 1, whose
    determinant D still rounds to about 0.1 eps T^2, not to 0.  The other
    vertices lie on one triangle each, one edge apiece.  ``lift`` scales the
    paraboloid the vertices lie on.
    """
    t, a = np.array([0.7, 0.2]), np.array([-0.25, 1.0])
    xy = np.array([[0.0, 0.0], t, a, [-0.7, -0.2 + bend], -a])
    z = lift * ((xy ** 2).sum(axis=1) + 0.25 * xy[:, 0] ** 2)
    return TriangleMesh(np.column_stack([xy, z]), np.array([(0, 1, 2), (0, 3, 4)]),
                        validate=False)


def two_sided_sheet():
    """One triangle in the plane x = 0 and its reverse (``validate=False``).
    The face normals cancel, so the vertex normals are 0, the frames' first
    axis is x and the second is 0: every projected edge is 0, a Gram matrix
    of rank 0."""
    verts = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.25], [0.0, 0.5, 1.0]])
    return TriangleMesh(verts, np.array([(0, 1, 2), (0, 2, 1)]), validate=False)


RINGS = {
    "gram rank 2": (fan, []),
    "gram rank 1": (lambda: reflected_pair(0.0, lift=0.4), [0, 1, 2, 3, 4]),
    # the normal equations square the condition number of the fit (about
    # 1e6 here), so this ring lies in a plane, where the normal differences
    # are exactly 0 and so is either fit: the test is of the flag rule
    "bent by 1e-6": (lambda: reflected_pair(1e-6, lift=0.0), [1, 2, 3, 4]),
    "gram rank 0": (two_sided_sheet, [0, 1, 2]),
}


@pytest.mark.parametrize("name", list(RINGS))
def test_rank_rule_on_hand_built_rings(name):
    """The Gram rank of a 1-ring's projected edges, 2, 1 or 0, is lstsq's
    rank 3, 2 or 0 of its fit (each nonzero edge gives two independent rows,
    so rank 1 cannot arise).  Only rank 2 is fitted, with lstsq's flags."""
    build, flagged = RINGS[name]
    data = assert_fit_matches_loop(build())
    assert data.flagged == flagged


# -- analytic jets and sampled meshes --------------------------------------------

def scalar_finish_jet(position, g1, g2, normal, metric, second_form, christoffel, H, d_H):
    metric_inv = np.linalg.inv(metric)
    return GeometryJet(position, g1, g2, normal, metric, metric_inv, second_form,
                       second_form @ metric_inv, christoffel, float(H),
                       np.asarray(d_H, dtype=float))


def scalar_jet(surface, u, v):
    """Reference closed forms, one chart point at a time."""
    u, v = float(u), float(v)
    if surface.kind == "sphere":
        R, = surface.params
        st, ct = np.sin(u), np.cos(u)
        sp, cp = np.sin(v), np.cos(v)
        x = R * np.array([st * cp, st * sp, ct])
        g1 = R * np.array([ct * cp, ct * sp, -st])
        g2 = R * np.array([-st * sp, st * cp, 0.0])
        metric = np.diag([R**2, (R * st) ** 2])
        gamma = np.zeros((2, 2, 2))
        gamma[0, 1, 1] = -st * ct
        gamma[1, 0, 1] = gamma[1, 1, 0] = ct / st
        return scalar_finish_jet(x, g1, g2, x / R, metric, metric / R, gamma, 1.0 / R,
                                 [0.0, 0.0])
    if surface.kind == "cylinder":
        R, _ = surface.params
        su, cu = np.sin(u), np.cos(u)
        return scalar_finish_jet(
            np.array([R * cu, R * su, v]), np.array([-R * su, R * cu, 0.0]),
            np.array([0.0, 0.0, 1.0]), np.array([cu, su, 0.0]), np.diag([R**2, 1.0]),
            np.diag([R, 0.0]), np.zeros((2, 2, 2)), 0.5 / R, [0.0, 0.0])
    A, r = surface.params
    su, cu = np.sin(u), np.cos(u)
    sv, cv = np.sin(v), np.cos(v)
    rho = A + r * cv
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 1] = gamma[0, 1, 0] = -r * sv / rho
    gamma[1, 0, 0] = rho * sv / r
    return scalar_finish_jet(
        np.array([rho * cu, rho * su, r * sv]), np.array([-rho * su, rho * cu, 0.0]),
        np.array([-r * sv * cu, -r * sv * su, r * cv]), np.array([cv * cu, cv * su, sv]),
        np.diag([rho**2, r**2]), np.diag([rho * cv, r]), gamma,
        0.5 * (cv / rho + 1.0 / r), [0.0, -A * sv / (2.0 * rho**2)])


def loop_sample(surface, resolution):
    """Reference samplers: vertices, faces and jets one at a time."""
    verts, jets, faces = [], [], []
    if surface.kind == "sphere":
        n_theta, n_phi = resolution
        R, = surface.params
        verts.append(np.array([0.0, 0.0, R]))
        jets.append(None)
        for i in range(1, n_theta):
            theta = np.pi * i / n_theta
            for j in range(n_phi):
                phi = 2.0 * np.pi * j / n_phi
                st = np.sin(theta)
                verts.append(R * np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)]))
                jets.append(scalar_jet(surface, theta, phi))
        verts.append(np.array([0.0, 0.0, -R]))
        jets.append(None)

        def ring(i, j):
            return 1 + (i - 1) * n_phi + (j % n_phi)
        faces += [(0, ring(1, j), ring(1, j + 1)) for j in range(n_phi)]
        for i in range(1, n_theta - 1):
            for j in range(n_phi):
                a, b, c, d = ring(i, j), ring(i, j + 1), ring(i + 1, j), ring(i + 1, j + 1)
                faces += [(a, c, d), (a, d, b)]
        south = len(verts) - 1
        faces += [(south, ring(n_theta - 1, j + 1), ring(n_theta - 1, j))
                  for j in range(n_phi)]
    elif surface.kind == "cylinder":
        n_u, n_v = resolution
        R, L = surface.params
        for i in range(n_v + 1):
            h = L * i / n_v
            for j in range(n_u):
                u = 2.0 * np.pi * j / n_u
                verts.append([R * np.cos(u), R * np.sin(u), h])
                jets.append(scalar_jet(surface, u, h) if 0 < i < n_v else None)
        verts += [[0.0, 0.0, 0.0], [0.0, 0.0, L]]
        jets += [None, None]
        bottom_c, top_c = len(verts) - 2, len(verts) - 1

        def ring(i, j):
            return i * n_u + (j % n_u)
        for i in range(n_v):
            for j in range(n_u):
                a, b, c, d = ring(i, j), ring(i, j + 1), ring(i + 1, j), ring(i + 1, j + 1)
                faces += [(a, b, d), (a, d, c)]
        for j in range(n_u):
            faces += [(bottom_c, ring(0, j + 1), ring(0, j)),
                      (top_c, ring(n_v, j), ring(n_v, j + 1))]
    else:
        n_u, n_v = resolution
        A, r = surface.params
        for i in range(n_u):
            u = 2.0 * np.pi * i / n_u
            for j in range(n_v):
                v = 2.0 * np.pi * j / n_v
                rho = A + r * np.cos(v)
                verts.append([rho * np.cos(u), rho * np.sin(u), r * np.sin(v)])
                jets.append(scalar_jet(surface, u, v))

        def vid(i, j):
            return (i % n_u) * n_v + (j % n_v)
        for i in range(n_u):
            for j in range(n_v):
                a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
                faces += [(a, b, c), (a, c, d)]
    return np.array(verts, dtype=float), np.array(faces, dtype=np.int64), jets


def jet_fields(jet):
    return [getattr(jet, f.name) for f in dataclasses.fields(GeometryJet)]


@pytest.mark.parametrize("surface,resolution", [
    (SPHERE, (3, 3)), (SPHERE, (9, 17)), (SPHERE, (32, 64)),
    (CYLINDER, (3, 2)), (CYLINDER, (8, 5)), (CYLINDER, (24, 12)),
    (TORUS, (3, 3)), (TORUS, (12, 24)), (TORUS, (160, 64)),
])
def test_sampled_mesh_and_jets_match_loop(surface, resolution):
    mesh, jets = sample_mesh(surface, resolution)
    verts, faces, ref_jets = loop_sample(surface, resolution)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, faces)
    assert [j is None for j in jets] == [j is None for j in ref_jets]
    for jet, ref in zip(jets, ref_jets):
        if ref is not None:
            assert type(jet.mean_curvature) is float
            for a, b in zip(jet_fields(jet), jet_fields(ref)):
                assert np.shape(a) == np.shape(b)
                assert np.array_equal(a, b)


@pytest.mark.parametrize("surface,lo,hi", [
    (SPHERE, 0.01, 3.13), (CYLINDER, 0.0, 2.0), (TORUS, -10.0, 10.0)])
def test_evaluate_jet_matches_scalar_closed_form(surface, lo, hi):
    # squares are one rounding now (x * x) where the scalar form called pow:
    # fields agree to an ulp, most of them exactly
    rng = np.random.default_rng(11)
    for u, v in rng.uniform(lo, hi, (200, 2)):
        jet, ref = evaluate_jet(surface, u, v), scalar_jet(surface, u, v)
        for a, b in zip(jet_fields(jet), jet_fields(ref)):
            assert np.shape(a) == np.shape(b)
            assert np.allclose(a, b, rtol=1e-15, atol=0.0)


def test_evaluate_jet_chart_errors():
    with pytest.raises(ValueError, match="polar angle"):
        evaluate_jet(SPHERE, 0.0, 1.0)
    with pytest.raises(ValueError, match="polar angle"):
        evaluate_jet(SPHERE, np.pi, 1.0)
    with pytest.raises(ValueError, match="height"):
        evaluate_jet(CYLINDER, 0.3, 2.5)
    with pytest.raises(ValueError, match="unknown surface kind"):
        evaluate_jet(AnalyticSurface("cone", (1.0,)), 0.1, 0.2)
