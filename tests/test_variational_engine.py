"""Tet meshes, action assembly, gradients, residuals, stationary solves."""
from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import curvbc
from curvbc import (
    FieldState,
    MeshError,
    SingularProblemError,
    SolveOptions,
    TetMesh,
    TriangleMesh,
    action_gradient,
    assemble_action,
    build_ball_tetmesh,
    build_icosphere,
    builtin_bulk,
    bulk_action,
    euler_lagrange_residual,
    integrate_surface,
    make_isotropic_surface,
    natural_bc_residual,
    robin_surface,
    solve_stationary,
    surface_action,
    surface_bc_terms,
    zero_surface,
)
from curvbc import surface_mesh
from curvbc import variational_engine as ve
from curvbc.lagrangian_library import (BulkLagrangian, QuadraticPotential, RestrictedSurface,
                                       SurfaceLagrangian)
from curvbc.variational_engine import _cg

POISSON = builtin_bulk("poisson_source", source=6.0)
HARMONIC = builtin_bulk("harmonic")


def quartic_bulk():
    """``poisson_source(6) + 1.25 phi^4``: its ``d_phi`` is not affine."""
    return dataclasses.replace(
        POISSON, name="quartic",
        density=lambda p, g: POISSON.density(p, g) + 1.25 * p[:, 0] ** 4,
        d_phi=lambda p, g: POISSON.d_phi(p, g) + 5.0 * p**3)


def force_newton(monkeypatch):
    """Make every partial probe as not affine, so that any pair takes a
    difference tangent at every step."""
    monkeypatch.setattr(ve, "_AFFINE_TOLERANCE", -1.0)


def small_ball(surface_level=2, radial_layers=4):
    return build_ball_tetmesh(1.0, surface_level=surface_level,
                              radial_layers=radial_layers)


def oracle_state(mesh):
    """Radial solution of the unit-ball Robin problem (source 6, beta 1)."""
    r2 = np.einsum("vj,vj->v", mesh.vertices, mesh.vertices)
    return FieldState((3.0 - r2)[:, None])


def weighted_l2(values, weights):
    return np.sqrt((values**2 * weights).sum() / weights.sum())


# ---------------------------------------------------------------- tet mesh

def test_ball_mesh_invariants():
    mesh = small_ball()
    assert mesh.tet_volumes.min() > 0
    assert abs(mesh.dual_volumes.sum() - mesh.tet_volumes.sum()) <= 1e-12
    assert mesh.interior_mask.sum() + len(mesh.boundary_vertex_ids) == mesh.n_vertices
    assert not mesh.interior_mask[mesh.boundary_vertex_ids].any()
    assert mesh.boundary.n_faces == 320  # icosphere level 2


def test_ball_mesh_fills_boundary_polyhedron():
    mesh = small_ball()
    b = mesh.boundary
    centroids = b.vertices[b.triangles].mean(axis=1)
    flux = np.sum(b.face_areas * np.einsum("fj,fj->f", centroids, b.face_normals))
    assert abs(flux / 3.0 - mesh.tet_volumes.sum()) <= 1e-12


def test_ball_mesh_volume_refines():
    # the boundary polyhedron is inscribed, so the deficit is set by the level
    exact = 4 * np.pi / 3
    errs = []
    for level, layers in ((2, 4), (3, 6)):
        mesh = build_ball_tetmesh(1.0, surface_level=level, radial_layers=layers)
        errs.append(abs(mesh.tet_volumes.sum() - exact) / exact)
    assert errs[0] <= 0.05
    assert errs[1] <= 0.02
    default = build_ball_tetmesh(1.0)
    assert abs(default.tet_volumes.sum() - exact) / exact <= 0.005


def loop_ball_tets(faces, nd, radial_layers):
    """Reference cone and prism split of ``build_ball_tetmesh``, one tet at a time."""
    def vid(layer, i):
        return 1 + (layer - 1) * nd + i

    tets = [(0, vid(1, p), vid(1, q), vid(1, r)) for p, q, r in faces]
    for layer in range(1, radial_layers):
        for tri in faces:
            i0, i1, i2 = sorted(tri)
            b0, b1, b2 = vid(layer, i0), vid(layer, i1), vid(layer, i2)
            t0, t1, t2 = vid(layer + 1, i0), vid(layer + 1, i1), vid(layer + 1, i2)
            tets += [(b0, b1, b2, t2), (b0, b1, t1, t2), (b0, t0, t1, t2)]
    return np.array(tets, dtype=np.int64)


@pytest.mark.parametrize("level,layers", [(0, 1), (1, 2), (2, 3), (2, 5)])
def test_ball_tets_match_loop_reference(level, layers):
    mesh = build_ball_tetmesh(1.0, surface_level=level, radial_layers=layers)
    b = mesh.boundary
    ref = loop_ball_tets(b.triangles, b.n_vertices, layers)
    expect = TetMesh(mesh.vertices, ref, b, mesh.boundary_vertex_ids).tets
    assert np.array_equal(mesh.tets, expect)


def det_inv_geometry(vertices, tets):
    """Reference canonicalization: flips from one det pass, volumes from a
    second, hat gradients from the inverse edge matrices."""
    edge = vertices[tets[:, 1:]] - vertices[tets[:, :1]]
    flip = np.linalg.det(edge) / 6.0 < 0
    tets = tets.copy()
    tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
    edge = vertices[tets[:, 1:]] - vertices[tets[:, :1]]
    grads = np.empty((len(tets), 4, 3))
    grads[:, 1:, :] = np.swapaxes(np.linalg.inv(edge), 1, 2)
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return tets, np.linalg.det(edge) / 6.0, grads


@pytest.mark.parametrize("level,layers", [(2, 3), (4, 12)])
def test_tet_geometry_matches_det_inv_reference(level, layers):
    mesh = build_ball_tetmesh(1.0, surface_level=level, radial_layers=layers)
    raw = loop_ball_tets(mesh.boundary.triangles, mesh.boundary.n_vertices, layers)
    tets, volumes, grads = det_inv_geometry(mesh.vertices, raw)
    assert np.array_equal(mesh.tets, tets)
    assert np.abs(mesh.tet_volumes - volumes).max() <= 1e-13 * volumes.max()
    assert np.abs(mesh.tet_gradients - grads).max() <= 1e-13 * np.abs(grads).max()
    # half the tets handed in negatively oriented: the flip needs no second pass
    swap = np.random.default_rng(level).random(len(raw)) < 0.5
    raw[swap, 2], raw[swap, 3] = raw[swap, 3].copy(), raw[swap, 2].copy()
    flipped = TetMesh(mesh.vertices, raw, mesh.boundary, mesh.boundary_vertex_ids)
    tets, volumes, grads = det_inv_geometry(mesh.vertices, raw)
    assert np.array_equal(flipped.tets, tets)
    assert np.abs(flipped.tet_volumes - volumes).max() <= 1e-13 * volumes.max()
    assert np.abs(flipped.tet_gradients - grads).max() <= 1e-13 * np.abs(grads).max()


def test_tet_mesh_rejects_zero_volume():
    mesh = small_ball(1, 2)
    tets = mesh.tets.copy()
    tets[0, 3] = tets[0, 2]
    with pytest.raises(MeshError, match="zero volume"):
        TetMesh(mesh.vertices, tets, mesh.boundary, mesh.boundary_vertex_ids)


@pytest.mark.parametrize("field, index, value", [("tets", (5, 2), -1), ("tets", (7, 0), None),
                                                 ("boundary_vertex_ids", (3,), -2),
                                                 ("boundary_vertex_ids", (0,), None)])
def test_tet_mesh_rejects_indices_out_of_range(field, index, value):
    """A negative index, or one past the last vertex (None), is named."""
    mesh = small_ball(1, 2)
    n = mesh.n_vertices
    value = n if value is None else value
    arrays = {"tets": mesh.tets.copy(), "boundary_vertex_ids": mesh.boundary_vertex_ids.copy()}
    arrays[field][index] = value
    at = ", ".join(map(str, index))
    with pytest.raises(MeshError, match=rf"^{field}\[{at}\] = {value} is out of range "
                                        rf"for {n} vertices$"):
        TetMesh(mesh.vertices, arrays["tets"], mesh.boundary, arrays["boundary_vertex_ids"])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_tet_mesh_rejects_non_finite_vertex(value):
    mesh = small_ball(1, 2)
    verts = mesh.vertices.copy()
    verts[[40, 7], 2] = value
    message = f"vertex 7 is not finite: {verts[7].tolist()}"
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        TetMesh(verts, mesh.tets, mesh.boundary, mesh.boundary_vertex_ids)


@pytest.mark.parametrize("columns", [4, 2])
def test_tet_mesh_rejects_vertices_of_wrong_shape(columns):
    """Vertices must be 3-D points: a fourth zero column and a missing third
    coordinate are refused before any geometry is built."""
    mesh = small_ball(1, 2)
    verts = np.column_stack([mesh.vertices, np.zeros(mesh.n_vertices)])[:, :columns]
    with pytest.raises(MeshError, match=r"^vertices must have shape \(n, 3\)$"):
        TetMesh(verts, mesh.tets, mesh.boundary, mesh.boundary_vertex_ids)
    with pytest.raises(MeshError, match=r"^vertices must have shape \(n, 3\)$"):
        TetMesh(mesh.vertices.ravel(), mesh.tets, mesh.boundary, mesh.boundary_vertex_ids)


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf])
def test_ball_rejects_non_finite_radius(radius):
    """A nan radius used to fail the boundary check, with a face of the
    default ball "wound inward"."""
    with pytest.raises(ValueError, match=f"^radius must be finite, got {radius}$"):
        build_ball_tetmesh(radius)


def test_tet_mesh_rejects_unused_vertex():
    """A vertex on no tet would get a dual volume of 0, which turns off the
    solve's preconditioner and makes the Euler-Lagrange residual nan."""
    mesh = small_ball(2, 3)
    n = mesh.n_vertices
    verts = np.vstack([mesh.vertices, [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]])
    with pytest.raises(MeshError, match=f"^vertex {n} is on no tet$"):
        TetMesh(verts, mesh.tets, mesh.boundary, mesh.boundary_vertex_ids)


def boundary_variants():
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    b, ids = mesh.boundary, mesh.boundary_vertex_ids
    perm = np.random.default_rng(0).permutation(len(ids))
    return mesh, {
        "flipped winding": (b.vertices, b.triangles[:, ::-1], ids, mesh.tets,
                            r"boundary triangle \d+ is wound inward"),
        "permuted ids": (mesh.vertices[ids[perm]], b.triangles, ids[perm], mesh.tets,
                         r"boundary triangle \d+ is not a tet face"),
        "missing boundary face": (b.vertices, b.triangles[1:], ids, mesh.tets,
                                  r"face \[.*\] of tet \d+ is used once"),
        "missing inner tet": (b.vertices, b.triangles, ids, mesh.tets[1:],
                              r"face \[.*\] of tet \d+ is used once"),
        "missing outer tet": (b.vertices, b.triangles, ids, mesh.tets[:-1],
                              r"(boundary triangle \d+ is not a tet face"
                              r"|face \[.*\] of tet \d+ is used once)"),
        "repeated face": (b.vertices, np.vstack([b.triangles, b.triangles[:1]]), ids,
                          mesh.tets, r"boundary triangle \d+ is shared 3 times"),
    }


@pytest.mark.parametrize("case", ["flipped winding", "permuted ids", "missing boundary face",
                                  "missing inner tet", "missing outer tet", "repeated face"])
def test_tet_mesh_rejects_mismatched_boundary(case):
    mesh, variants = boundary_variants()
    verts, tris, ids, tets, message = variants[case]
    boundary = TriangleMesh(verts, tris, validate=False)
    with pytest.raises(MeshError, match=f"^boundary mismatch: {message}$"):
        TetMesh(mesh.vertices, tets, boundary, ids)


def test_tet_mesh_accepts_unordered_and_rotated_faces():
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    b = mesh.boundary
    rng = np.random.default_rng(3)
    tris = np.roll(b.triangles[rng.permutation(b.n_faces)], 1, axis=1)
    tets = mesh.tets[rng.permutation(mesh.n_tets)][:, [1, 0, 2, 3]]
    rebuilt = TetMesh(mesh.vertices, tets, TriangleMesh(b.vertices, tris),
                      mesh.boundary_vertex_ids)
    assert abs(rebuilt.total_volume - mesh.total_volume) <= 1e-14


def test_ball_mesh_validation():
    with pytest.raises(ValueError):
        build_ball_tetmesh(-1.0)
    with pytest.raises(ValueError):
        build_ball_tetmesh(1.0, radial_layers=0)


@pytest.mark.parametrize("layers", [2.5, np.nan, np.inf, 0.5])
def test_ball_rejects_non_integer_layers(layers):
    """A fraction, nan or inf used to fail in ``range`` with a TypeError; a
    whole float is taken as its integer, as a subdivision level is."""
    with pytest.raises(ValueError, match=f"^radial_layers must be an integer >= 1, got {layers}$"):
        build_ball_tetmesh(1.0, surface_level=1, radial_layers=layers)


def test_ball_takes_a_whole_float_layer_count():
    whole, ints = (build_ball_tetmesh(1.0, surface_level=1, radial_layers=n) for n in (2.0, 2))
    for name in ["vertices", "tets", "tet_gradients", "boundary_vertex_ids"]:
        assert getattr(whole, name).tobytes() == getattr(ints, name).tobytes(), name


def test_tet_mesh_rejects_non_integral_indices():
    """A fraction or nan index is named, not truncated; whole floats are the
    same indices."""
    mesh = small_ball(1, 2)
    args = (mesh.vertices, mesh.tets, mesh.boundary, mesh.boundary_vertex_ids)
    with pytest.raises(MeshError, match=rf"^tets\[0, 0\] = {mesh.tets[0, 0] + 0.4} "
                                        "is not an integer$"):
        TetMesh(args[0], mesh.tets + 0.4, *args[2:])
    ids = mesh.boundary_vertex_ids.astype(float)
    ids[5] = np.nan
    with pytest.raises(MeshError, match=r"^boundary_vertex_ids\[5\] = nan is not an integer$"):
        TetMesh(*args[:3], ids)
    whole = TetMesh(args[0], mesh.tets.astype(float), args[2],
                    mesh.boundary_vertex_ids.astype(float))
    assert whole.tets.tobytes() == mesh.tets.tobytes()
    assert whole.boundary_vertex_ids.tobytes() == mesh.boundary_vertex_ids.tobytes()


def test_tet_mesh_rejects_boundary_ids_not_1d():
    """A column of ids used to fail in numpy's mask assignment."""
    mesh = small_ball(1, 2)
    nb = len(mesh.boundary_vertex_ids)
    with pytest.raises(MeshError, match=rf"^boundary_vertex_ids must be 1-D, got shape "
                                        rf"\({nb}, 1\)$"):
        TetMesh(mesh.vertices, mesh.tets, mesh.boundary, mesh.boundary_vertex_ids[:, None])


def test_tet_mesh_and_ball_builder_live_in_surface_mesh():
    """The solver module re-exports them, under the names the benchmark
    calls, and shares the mesh module's block size."""
    assert ve.TetMesh is surface_mesh.TetMesh
    assert ve.build_ball_tetmesh is surface_mesh.build_ball_tetmesh
    assert curvbc.TetMesh is surface_mesh.TetMesh
    assert curvbc.build_ball_tetmesh is surface_mesh.build_ball_tetmesh
    assert ve._BLOCK == surface_mesh._BLOCK


# ------------------------------------------------------------- field state

def test_field_state_validation():
    """A state is its vertex values alone: rows of one or more components."""
    n = 8
    vals = np.zeros((n, 1))
    assert [f.name for f in dataclasses.fields(FieldState)] == ["values"]
    for bad in (np.zeros((3, n, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match="values must be"):
            FieldState(bad)
    with pytest.raises(TypeError):
        FieldState(vals, np.zeros((3, n, 1)))
    with pytest.raises(TypeError):
        FieldState(vals, trajectory=np.zeros((3, n, 1)), dt=0.1)


def test_field_state_reads_a_scalar_field_as_one_column():
    n = 8
    values = np.arange(n, dtype=float)
    state = FieldState(values)
    assert state.values.shape == (n, 1) and state.n_components == 1
    assert np.array_equal(state.values[:, 0], values)


def test_surface_action_reads_a_scalar_field_as_one_column():
    mesh = build_icosphere(1.0, 1)
    surface = robin_surface(1.0)
    values = np.linspace(-1.0, 1.0, mesh.n_vertices)
    assert surface_action(mesh, surface, values) == surface_action(mesh, surface, values[:, None])
    gradient = ve.surface_action_gradient(mesh, surface, values)
    assert gradient.shape == (mesh.n_vertices, 1)
    assert np.array_equal(gradient, ve.surface_action_gradient(mesh, surface, values[:, None]))


# ------------------------------------------------------------------ action

def test_bulk_action_linear_field():
    mesh = small_ball()
    state = FieldState(mesh.vertices[:, 2:3])
    value = bulk_action(mesh, HARMONIC, state)
    assert abs(value - 0.5 * mesh.tet_volumes.sum()) <= 1e-12
    assert abs(value - 2 * np.pi / 3) <= 0.05 * 2 * np.pi / 3


def test_surface_action_uniform_radial_displacement():
    sigma, u = 2.0, 0.37
    mesh = build_ball_tetmesh(1.0, surface_level=3, radial_layers=4)
    surf = make_isotropic_surface(sigma, 0.0)
    plain, curv = surface_action(mesh.boundary, surf, u * mesh.boundary.vertices)
    assert abs(plain - 2.0 * sigma * u * mesh.boundary.total_area) <= 1e-12
    assert abs(plain - 8 * np.pi * sigma * u) <= 0.02 * 8 * np.pi * sigma * u
    assert curv == 0.0


def test_assemble_action_zero_state():
    mesh = small_ball()
    out = assemble_action(mesh, builtin_bulk("harmonic", n_components=3),
                          make_isotropic_surface(1.0, 0.1),
                          FieldState(np.zeros((mesh.n_vertices, 3))))
    assert out.bulk == 0.0
    assert out.surface_plain == 0.0
    assert out.surface_curvature == 0.0


def test_tangential_transport_cancels():
    mesh = small_ball()
    rng = np.random.default_rng(5)
    state = FieldState(rng.standard_normal((mesh.n_vertices, 1)))
    surf = robin_surface(0.8)
    base = assemble_action(mesh, HARMONIC, surf, state)
    b = mesh.boundary
    raw = rng.standard_normal((b.n_faces, 3))
    tangential = raw - b.face_normals * np.einsum("fj,fj->f", raw, b.face_normals)[:, None]
    moved = assemble_action(mesh, HARMONIC, surf, state, surface_transport=tangential)
    assert abs(moved.total - base.total) <= 1e-10 * (1.0 + abs(base.total))
    assert abs(moved.transport_integral) <= 1e-10


def test_component_mismatch_rejected():
    mesh = small_ball()
    state = FieldState(np.zeros((mesh.n_vertices, 1)))
    with pytest.raises(ValueError):
        assemble_action(mesh, HARMONIC, make_isotropic_surface(1.0, 0.0), state)


# ---------------------------------------------------------------- gradient

def test_gradient_matches_finite_differences():
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=3)
    bulk = builtin_bulk("linear_elastic", mu=1.0, lam=1.0)
    surf = make_isotropic_surface(1.0, 0.1)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((mesh.n_vertices, 3))
    state = FieldState(vals)
    grad = action_gradient(mesh, bulk, surf, state)
    direction = rng.standard_normal(vals.shape)
    direction /= np.linalg.norm(direction)
    eps = 1e-6 * (1.0 + np.abs(vals).max())
    plus = assemble_action(mesh, bulk, surf, FieldState(vals + eps * direction)).total
    minus = assemble_action(mesh, bulk, surf, FieldState(vals - eps * direction)).total
    fd = (plus - minus) / (2 * eps)
    assert abs(np.vdot(grad, direction) - fd) <= 1e-6 * (1.0 + abs(fd))


def test_gradient_linearity():
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=3)
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((mesh.n_vertices, 1))
    g1 = action_gradient(mesh, HARMONIC, robin_surface(1.0), FieldState(vals))
    g2 = action_gradient(mesh, HARMONIC, robin_surface(1.0), FieldState(3.0 * vals))
    assert np.abs(g2 - 3.0 * g1).max() <= 1e-12 * (1.0 + np.abs(g1).max())


# --------------------------------------------------------------- residuals

def test_euler_lagrange_affine_field():
    mesh = small_ball()
    rng = np.random.default_rng(3)
    vals = mesh.vertices @ rng.standard_normal(3)[:, None] + 0.7
    res = euler_lagrange_residual(mesh, HARMONIC, FieldState(vals))
    assert np.abs(res[mesh.interior_mask]).max() <= 1e-10 * (1.0 + np.abs(vals).max())


def test_euler_lagrange_equals_scaled_gradient():
    mesh = small_ball()
    rng = np.random.default_rng(4)
    state = FieldState(rng.standard_normal((mesh.n_vertices, 1)))
    res = euler_lagrange_residual(mesh, HARMONIC, state)
    grad = action_gradient(mesh, HARMONIC, zero_surface(), state)
    inner = mesh.interior_mask
    expected = grad[inner] / mesh.dual_volumes[inner, None]
    assert np.abs(res[inner] - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


def test_euler_lagrange_poisson_refines():
    # quadratic radial state solving the interior equation; volume-weighted
    # L2 defect against the constant source
    devs = []
    for level, layers in ((2, 4), (3, 6), (4, 12)):
        mesh = build_ball_tetmesh(1.0, surface_level=level, radial_layers=layers)
        r2 = np.einsum("vj,vj->v", mesh.vertices, mesh.vertices)
        res = euler_lagrange_residual(mesh, POISSON, FieldState((-r2)[:, None]))
        inner = mesh.interior_mask
        devs.append(weighted_l2(res[inner, 0], mesh.dual_volumes[inner]) / 6.0)
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.05


# ---------------------------------------------------- boundary condition

def test_neumann_limit_residual_is_flux():
    mesh = small_ball()
    rng = np.random.default_rng(13)
    state = FieldState(rng.standard_normal((mesh.n_vertices, 1)))
    report = natural_bc_residual(mesh, HARMONIC, zero_surface(), state)
    assert np.abs(report.residual - report.flux_weak).max() == 0.0


def test_classical_robin_recovery():
    mesh = small_ball()
    rng = np.random.default_rng(11)
    state = FieldState(rng.standard_normal((mesh.n_vertices, 1)))
    beta = 0.8
    report = natural_bc_residual(mesh, HARMONIC, robin_surface(beta), state)
    expected = report.flux_weak + beta * state.values[mesh.boundary_vertex_ids]
    assert np.abs(report.residual - expected).max() <= 1e-12
    for name in ("gamma0_div", "curv_phi", "curv_div", "grad_H_term"):
        assert np.abs(report.terms[name]).max() == 0.0


def counted(lagrangian, calls):
    """General copy of ``lagrangian`` whose callable fields count their calls."""
    def wrap(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call
    kind = BulkLagrangian if isinstance(lagrangian, BulkLagrangian) else SurfaceLagrangian
    values = {f.name: getattr(lagrangian, f.name) for f in dataclasses.fields(kind)}
    return kind(**{name: wrap(name, v) if callable(v) else v for name, v in values.items()})


@pytest.mark.parametrize("pair", [
    lambda: (POISSON, robin_surface(1.0)),
    lambda: (builtin_bulk("linear_elastic", mu=1.0, lam=1.0),
             make_isotropic_surface(1.0, 0.1)),
])
def test_bc_report_evaluates_each_partial_once(pair, monkeypatch):
    bulk, surface = pair()
    mesh = small_ball(2, 3)
    state = FieldState(np.random.default_rng(4).standard_normal(
        (mesh.n_vertices, bulk.n_components)))
    bulk_calls, surface_calls = Counter(), Counter()

    def no_fit(normals):
        raise AssertionError("the report must not run the shape-operator fit")
    # every shape-operator fit projects on the frames of this module global
    monkeypatch.setattr(surface_mesh, "_tangent_frames", no_fit)
    natural_bc_residual(mesh, counted(bulk, bulk_calls),
                        counted(surface, surface_calls), state)
    once = Counter(gamma0_d_phi=1, gamma0_d_grad=1, gamma_hat_d_phi=1, gamma_hat_d_grad=1)
    assert bulk_calls == Counter(d_phi=1, d_grad=1)
    assert surface_calls == once
    # the surface-only load on the boundary state, on its own
    surface_calls.clear()
    surface_bc_terms(mesh.boundary, counted(surface, surface_calls),
                     FieldState(state.values[mesh.boundary_vertex_ids]))
    assert surface_calls == once


def wrap_in_place(lagrangian, calls):
    """Wrap every callable field of ``lagrangian`` in place, counting calls,
    as the benchmark's span tracer does with ``dataclasses.fields`` and
    ``setattr``."""
    for f in dataclasses.fields(lagrangian):
        fn = getattr(lagrangian, f.name)
        if callable(fn):
            def call(*args, _fn=fn, _name=f.name):
                calls[_name] += 1
                return _fn(*args)
            setattr(lagrangian, f.name, call)


@pytest.mark.parametrize("pair,gauge", [
    (lambda: (builtin_bulk("poisson_source", source=6.0), robin_surface(1.0)), "none"),
    (lambda: (builtin_bulk("linear_elastic", mu=1.0, lam=1.0),
              make_isotropic_surface(1.0, 0.1)), "rigid"),
], ids=["robin", "rigid_tension"])
def test_solve_keeps_its_bits_with_partials_wrapped_in_place(pair, gauge):
    mesh = small_ball(2, 3)
    options = SolveOptions(gauge=gauge)
    expected, expected_log = solve_stationary(mesh, *pair(), options=options)
    bulk, surface = pair()
    calls = Counter()
    wrap_in_place(bulk, calls)
    wrap_in_place(surface, calls)
    state, log = solve_stationary(mesh, bulk, surface, options=options)
    assert state.values.tobytes() == expected.values.tobytes()
    assert log.residual_norms == expected_log.residual_norms
    # the densities themselves are read by the action
    assert assemble_action(mesh, bulk, surface, state) == assemble_action(mesh, *pair(), state)
    assert set(calls) >= {"gamma0", "gamma0_d_phi", "gamma0_d_grad",
                          "gamma_hat", "gamma_hat_d_phi", "gamma_hat_d_grad"}


def test_bc_residual_refines_at_oracle():
    devs = []
    for level, layers in ((2, 4), (3, 6)):
        mesh = build_ball_tetmesh(1.0, surface_level=level, radial_layers=layers)
        report = natural_bc_residual(mesh, POISSON, robin_surface(1.0),
                                     oracle_state(mesh))
        w = report.vertex_areas
        scale = (weighted_l2(report.rhs[:, 0], w)
                 + weighted_l2(report.flux_weak[:, 0], w))
        devs.append(weighted_l2(report.residual[:, 0], w) / scale)
    assert devs[1] < devs[0]
    assert devs[1] <= 0.03


# ------------------------------------------------------------------ solve

def test_solve_matches_radial_oracle():
    mesh = build_ball_tetmesh(1.0, surface_level=3, radial_layers=6)
    state, log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    assert log.converged
    r2 = np.einsum("vj,vj->v", mesh.vertices, mesh.vertices)
    exact = 3.0 - r2
    err = weighted_l2(state.values[:, 0] - exact, mesh.dual_volumes)
    assert err / weighted_l2(exact, mesh.dual_volumes) <= 0.01


def test_solve_log_has_one_norm_per_cg_iterate():
    mesh = build_ball_tetmesh(1.0, surface_level=2, radial_layers=3)
    _, log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    assert log.method == "cg" and log.iterations > 0
    assert len(log.residual_norms) == log.iterations + 1
    assert log.residual_norms[-1] <= SolveOptions().tolerance < log.residual_norms[-2]


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((12, 12))
    A = M @ M.T + 12.0 * np.eye(12)
    b = rng.standard_normal(12)
    x, iterations = _cg(lambda p: A @ p, b, lambda r: np.abs(r).max() <= 1e-13, 100)
    assert 0 < iterations < 100
    assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-12


def test_preconditioned_cg_matches_dense_solve():
    """With a symmetric positive definite M, CG still solves A x = b; with M
    the exact inverse it takes one iteration."""
    rng = np.random.default_rng(2)
    G, H = rng.standard_normal((2, 12, 12))
    A = G @ G.T + 12.0 * np.eye(12)
    M = H @ H.T + np.eye(12)
    b = rng.standard_normal(12)
    done = lambda r: np.abs(r).max() <= 1e-13
    x, iterations = _cg(lambda p: A @ p, b, done, 100, lambda r: M @ r)
    assert 0 < iterations < 100
    assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-12
    A_inverse = np.linalg.inv(A)
    x, iterations = _cg(lambda p: A @ p, b, done, 100, lambda r: A_inverse @ r)
    assert iterations == 1
    assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-12


def reference_cg(apply, b, done, max_iterations):
    """The loop of ``_cg``, recording each iterate."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    iterates = []
    while not done(r) and len(iterates) < max_iterations:
        Ap = apply(p)
        alpha = rr / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rr_new = r @ r
        p = r + (rr_new / rr) * p
        rr = rr_new
        iterates.append(x.copy())
    return iterates


def test_cg_without_preconditioner_keeps_its_bits():
    """Every iterate and every residual equals the plain CG loop's, bit for bit."""
    rng = np.random.default_rng(1)
    M = rng.standard_normal((30, 30))
    A = M @ M.T + np.eye(30)
    b = rng.standard_normal(30)
    seen, ref_seen = [], []

    def recorder(out):
        def done(r):
            out.append(r.tobytes())
            return np.abs(r).max() <= 1e-12
        return done
    expected = reference_cg(lambda p: A @ p, b, recorder(ref_seen), 200)
    x, its = _cg(lambda p: A @ p, b, recorder(seen), 200)
    assert its == len(expected) and seen == ref_seen
    for j, x_ref in enumerate(expected, start=1):
        x, _ = _cg(lambda p: A @ p, b, lambda r: False, j)
        assert x.tobytes() == x_ref.tobytes()


def test_cg_solves_indefinite_and_stops_on_breakdown():
    """CG goes on through negative curvature, and stops on an exact
    breakdown ``p.Ap == 0`` or before a step that is not finite, here at
    once, with ``x = 0``."""
    A = np.diag([-3.0, 1.0, 1.0])
    x, iterations = _cg(lambda p: A @ p, np.ones(3),
                        lambda r: np.abs(r).max() <= 1e-14, 10)
    assert 0 < iterations < 10
    assert np.abs(x - np.linalg.solve(A, np.ones(3))).max() <= 1e-14
    for apply in (lambda p: np.diag([-2.0, 1.0, 1.0]) @ p, lambda p: np.full(3, np.nan)):
        x, iterations = _cg(apply, np.ones(3), lambda r: False, 10)
        assert iterations == 0 and np.array_equal(x, np.zeros(3))


def test_solve_zero_problem():
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    state, log = solve_stationary(mesh, HARMONIC, zero_surface(),
                                  options=SolveOptions(gauge="zero_mean"))
    assert log.converged
    assert np.abs(state.values).max() == 0.0


def test_solve_incompatible_neumann_raises():
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    with pytest.raises(SingularProblemError):
        solve_stationary(mesh, POISSON, zero_surface())


def test_solve_rigid_gauge_elastic():
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    state, log = solve_stationary(
        mesh, builtin_bulk("linear_elastic", mu=1.0, lam=1.0), zero_surface(3),
        options=SolveOptions(gauge="rigid"))
    assert log.converged
    assert np.abs(state.values).max() <= 1e-10


def test_solve_newton_path_stationary(monkeypatch):
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    force_newton(monkeypatch)
    state, log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    assert log.converged
    assert log.method == "newton"
    # the difference tangent is preconditioned like the constant one
    assert log.coarse_size > 0 and log.unpreconditioned == ""
    grad = action_gradient(mesh, POISSON, robin_surface(1.0), state)
    assert np.abs(grad).max() <= 1e-10


def test_solve_stationarity_gradient():
    mesh = build_ball_tetmesh(1.0, surface_level=2, radial_layers=3)
    state, log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    assert log.converged
    grad = action_gradient(mesh, POISSON, robin_surface(1.0), state)
    assert np.abs(grad).max() <= 1e-10


# -- the quadratic step -------------------------------------------------------------

def projected_gradient(mesh, bulk, surface, state, gauge):
    g = action_gradient(mesh, bulk, surface, state).ravel()
    basis = ve._gauge_basis(mesh, bulk.n_components, gauge)
    return g if basis is None else g - basis @ (basis.T @ g)


ELASTIC = builtin_bulk("linear_elastic", lam=1.0, mu=1.0)


@pytest.mark.parametrize("case", ["none", "zero_mean after the shift probe", "rigid"])
def test_preconditioned_solve_reaches_tolerance(case, monkeypatch):
    """Converged under each gauge, with one action gradient per step besides
    the initial one, the constant-shift probe (not under the rigid gauge)
    and the final check, each counted in the log."""
    mesh = small_ball(2, 3)
    rng = np.random.default_rng(5)
    initial = None
    if case == "none":
        bulk, surface, gauge = POISSON, robin_surface(1.0), "none"
    elif case == "rigid":
        bulk, surface, gauge = ELASTIC, make_isotropic_surface(1.0, 0.1), "rigid"
    else:
        # pure Neumann with balanced data: the probe finds the constants
        bulk, surface, gauge = HARMONIC, zero_surface(), "zero_mean"
        initial = FieldState(rng.standard_normal((mesh.n_vertices, 1)))
    calls = []
    gradient = ve.action_gradient
    monkeypatch.setattr(ve, "action_gradient", lambda *args: calls.append(1) or gradient(*args))
    state, log = solve_stationary(mesh, bulk, surface, initial,
                                  SolveOptions(gauge=gauge if case == "rigid" else "none"))
    assert log.method == "cg" and log.converged and not log.notes
    assert 1 <= log.iterations <= 3 and log.tangent_iterations > 0
    assert log.coarse_size > 0 and log.unpreconditioned == ""
    assert len(calls) == log.iterations + (2 if case == "rigid" else 3)
    assert log.gradient_calls == len(calls)
    tol = SolveOptions().tolerance
    assert np.abs(projected_gradient(mesh, bulk, surface, state, gauge)).max() <= tol


def test_two_level_preconditioner_halves_the_robin_iterations():
    """On the (3, 6) ball the Robin tangent CG, plain at 106 iterations,
    takes 54 with Jacobi plus the coarse correction on 6 shells of 26
    patches and the centre."""
    mesh = build_ball_tetmesh(1.0, surface_level=3, radial_layers=6)
    _, log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    assert log.converged and log.iterations == 1
    assert (log.coarse_size, log.unpreconditioned) == (6 * 26 + 1, "")
    assert log.preconditioner_s > 0
    assert log.tangent_iterations <= 60


def test_wrong_tangent_changes_iterations_not_solution(monkeypatch):
    """Each step starts from the exact gradient, so a wrong tangent costs
    steps, not accuracy: it converges linearly to the exact solution and
    never reports convergence away from it."""
    mesh = small_ball(2, 3)
    exact_state, exact_log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    assemble = ve._assemble_tangent
    # a symmetric positive definite tangent with the wrong Robin coefficient
    monkeypatch.setattr(ve, "_assemble_tangent",
                        lambda mesh, bulk, surface, *at: assemble(mesh, bulk, robin_surface(3.0)))
    state, log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    error = np.abs(state.values - exact_state.values).max()
    assert not log.converged or error <= 1e-8
    monkeypatch.setattr(ve, "_MAX_STEPS", 100)
    state, log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    assert log.converged and log.iterations > exact_log.iterations
    assert np.abs(state.values - exact_state.values).max() <= 1e-8


def test_zero_mean_gauge_covers_only_the_annihilated_shifts(monkeypatch):
    """A shift the probe finds annihilated joins the gauge, and no other:
    component 0 carries a Robin potential with solution 1, component 1 is
    pure Neumann with zero data.  Newton, which does not probe the shifts,
    reaches the same solution."""
    mesh = small_ball(2, 3)
    bulk = builtin_bulk("harmonic", n_components=2)
    surface = RestrictedSurface(
        2, gamma_bar=QuadraticPotential(np.diag([1.0, 0.0]), (-1.0, 0.0)))
    for method in ("cg", "newton"):
        if method == "newton":
            force_newton(monkeypatch)
        state, log = solve_stationary(mesh, bulk, surface)
        assert log.converged and log.method == method
        assert np.abs(state.values[:, 0] - 1.0).max() <= 1e-8
        g = action_gradient(mesh, bulk, surface, state)
        assert np.abs(g).max() <= SolveOptions().tolerance


def test_non_affine_pair_converges_on_its_difference_tangent():
    """A pair whose ``d_phi`` is not affine takes Newton steps on a
    preconditioned difference tangent, one gradient per step besides the
    initial one and the final check."""
    mesh = small_ball(2, 3)
    bulk = quartic_bulk()
    state, log = solve_stationary(mesh, bulk, robin_surface(1.0))
    assert log.method == "newton" and log.converged and log.coarse_size > 0
    assert log.gradient_calls <= log.iterations + 4
    assert np.abs(action_gradient(mesh, bulk, robin_surface(1.0), state)).max() <= 1e-10


def test_solve_does_not_import_scipy():
    """The tangent is numpy only: scipy.sparse would add about 19 MB of RSS."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(curvbc.__file__)))
    code = ("import sys, curvbc\n"
            "mesh = curvbc.build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)\n"
            "_, log = curvbc.solve_stationary(mesh, curvbc.builtin_bulk('poisson_source'),"
            " curvbc.robin_surface(1.0))\n"
            "assert log.converged and log.tangent_iterations > 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_bc_residual_small_at_discrete_solution():
    mesh = build_ball_tetmesh(1.0, surface_level=2, radial_layers=3)
    state, _ = solve_stationary(mesh, POISSON, robin_surface(1.0))
    report = natural_bc_residual(mesh, POISSON, robin_surface(1.0), state)
    # the discrete solution satisfies the discrete BC to solver tolerance
    assert np.abs(report.residual).max() <= 1e-6


def make_negated_bulk():
    """-(0.5 |grad phi|^2 + 0.5 phi^2): a quadratic, negative definite action
    whose one stationary point is 0."""
    return BulkLagrangian(
        "negated", 1,
        density=lambda p, g: -0.5 * (np.einsum("mkj,mkj->m", g, g)
                                     + np.einsum("mk,mk->m", p, p)),
        d_phi=lambda p, g: -p,
        d_grad=lambda p, g: -g,
    )


def test_negative_definite_pair_reaches_its_stationary_point(caplog):
    """The solve seeks a zero of the gradient, not a minimum: a negative
    definite quadratic pair takes tangent steps to its maximum, 0."""
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    initial = FieldState(np.random.default_rng(11).standard_normal((mesh.n_vertices, 1)))
    with caplog.at_level("WARNING", logger="curvbc"):
        state, log = solve_stationary(mesh, make_negated_bulk(), zero_surface(), initial)
    assert log.method == "cg" and log.converged
    assert not log.notes and not caplog.records
    assert np.abs(state.values).max() <= 1e-12
    # its tangent's diagonal is negative: the CG runs unpreconditioned
    assert (log.coarse_size, log.unpreconditioned) == (0, "the tangent's diagonal is not positive")


def test_indefinite_pair_converges_in_one_step(caplog):
    """A Robin potential of the wrong sign makes the tangent indefinite; its
    one stationary point is one full tangent step away."""
    surface = RestrictedSurface(1, gamma_bar=QuadraticPotential([[-0.5]]))
    mesh = small_ball(2, 3)
    with caplog.at_level("WARNING", logger="curvbc"):
        state, log = solve_stationary(mesh, POISSON, surface)
    assert log.method == "cg" and log.converged
    assert log.iterations == 1 and log.step_sizes == [1.0]
    assert log.gradient_calls == 4
    assert not log.notes and not caplog.records
    assert np.abs(action_gradient(mesh, POISSON, surface, state)).max() <= 1e-10
    # the constants' curvature is negative: so is the coarse matrix's
    assert (log.coarse_size, log.unpreconditioned) == (
        0, "the coarse matrix is not positive definite")


def test_solve_never_evaluates_the_action(monkeypatch):
    """Steps are accepted on the gradient norm alone."""
    def action(*args, **kwargs):
        raise AssertionError("the solve evaluated the action")
    monkeypatch.setattr(ve, "assemble_action", action)
    mesh = small_ball(2, 3)
    _, log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    assert log.converged
    force_newton(monkeypatch)
    _, log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    assert log.converged and log.method == "newton"


def test_tangent_cg_at_its_cap_is_reported(caplog, monkeypatch):
    """A tangent CG stopped by its iteration cap above its tolerance is noted
    and warned once, naming the step and the count, and the solve goes on."""
    monkeypatch.setattr(ve, "_CG_MAX_ITERATIONS", 5)
    with caplog.at_level("WARNING", logger="curvbc"):
        _, log = solve_stationary(small_ball(2, 3), POISSON, robin_surface(1.0))
    note = "tangent CG stopped at its cap of 5 iterations at step 0"
    assert log.notes == [note]
    assert [r.getMessage() for r in caplog.records] == [f"solve_stationary: {note}"]
    assert log.iterations > 1 and log.tangent_iterations == 5 * log.iterations
    assert log.converged


def test_failed_line_search_is_not_converged(caplog, monkeypatch):
    """A tangent of the wrong sign gives a direction along which the
    gradient norm only grows: no step length is accepted, and the solve
    ends unconverged without taking the step.  Along the step the gradient
    is affine, so only the trial at t = 1 costs a gradient."""
    assemble = ve._assemble_tangent

    def wrong_sign(mesh, bulk, surface, *at):
        tangent = assemble(mesh, bulk, surface, *at)
        return dataclasses.replace(tangent, data=-tangent.data)
    monkeypatch.setattr(ve, "_assemble_tangent", wrong_sign)
    mesh = small_ball(2, 3)
    initial = FieldState(np.random.default_rng(12).standard_normal((mesh.n_vertices, 1)))
    with caplog.at_level("WARNING", logger="curvbc"):
        state, log = solve_stationary(mesh, POISSON, robin_surface(1.0), initial)
    note = "line search failed: no decrease of the gradient norm at step 0"
    assert not log.converged and log.notes == [note]
    assert [r.getMessage() for r in caplog.records] == [f"solve_stationary: {note}"]
    assert log.step_sizes == []
    # the initial gradient, the shift probe, the trial at t = 1, the final check
    assert log.gradient_calls == 4
    assert log.unpreconditioned == "the tangent's diagonal is not positive"
    # the rejected step is not taken
    assert np.array_equal(state.values, initial.values)
