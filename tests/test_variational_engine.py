"""Tet meshes, action assembly, gradients, residuals, stationary solves."""
from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from curvbc import (
    FieldState,
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
    zero_surface,
)
from curvbc.lagrangian_library import BulkLagrangian, SurfaceLagrangian
from curvbc.variational_engine import _cg

POISSON = builtin_bulk("poisson_source", source=6.0)
HARMONIC = builtin_bulk("harmonic")


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
    with pytest.raises(ValueError, match=f"^boundary mismatch: {message}$"):
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
        build_ball_tetmesh(1.0, grading=0.0)


# ------------------------------------------------------------- field state

def test_field_state_validation():
    n = 8
    vals = np.zeros((n, 1))
    with pytest.raises(ValueError):
        FieldState(vals, trajectory=np.zeros((4, n, 1)), dt=0.1)
    with pytest.raises(ValueError):
        FieldState(vals, trajectory=np.zeros((3, n, 1)))
    with pytest.raises(ValueError):
        FieldState(vals + 1.0, trajectory=np.zeros((3, n, 1)), dt=0.1)


def test_field_state_rates():
    n, dt = 5, 0.1
    c = np.arange(n, dtype=float)[:, None]
    times = (np.arange(5) - 2) * dt
    traj = np.stack([c * t for t in times])
    state = FieldState.from_trajectory(traj, dt)
    assert np.abs(state.rates() - c).max() <= 1e-12
    assert np.abs(state.snapshot_rates(0) - c).max() <= 1e-12  # linear: one-sided exact
    assert np.abs(state.snapshot_rates(3) - c).max() <= 1e-12


# ------------------------------------------------------------------ action

@pytest.mark.parametrize("bulk,surface", [
    (POISSON, robin_surface(1.0)),
    (builtin_bulk("linear_elastic"), make_isotropic_surface(1.0, 0.1)),
], ids=["poisson_robin", "elastic_isotropic"])
def test_static_state_equals_still_trajectory(bulk, surface):
    # a static state's zero rate rows are made, not gathered; the result is
    # the same bit for bit as a trajectory that does not move
    mesh = small_ball()
    values = np.random.default_rng(8).standard_normal((mesh.n_vertices, bulk.n_components))
    static = FieldState(values)
    still = FieldState.from_trajectory(np.stack([values] * 3), 0.1)
    assert np.array_equal(action_gradient(mesh, bulk, surface, static),
                          action_gradient(mesh, bulk, surface, still))
    assert (assemble_action(mesh, bulk, surface, static)
            == assemble_action(mesh, bulk, surface, still))
    a = natural_bc_residual(mesh, bulk, surface, static)
    b = natural_bc_residual(mesh, bulk, surface, still)
    assert np.array_equal(a.residual, b.residual)
    assert np.array_equal(a.flux_pointwise, b.flux_pointwise)
    assert a.terms.keys() == b.terms.keys()
    assert all(np.array_equal(a.terms[k], b.terms[k]) for k in a.terms)
    # a pure rate density sees zero rates on a static state
    assert bulk_action(mesh, make_kinetic_bulk(), FieldState(values[:, :1])) == 0.0


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


def make_kinetic_bulk():
    return BulkLagrangian(
        "kinetic", 1,
        density=lambda p, r, g: 0.5 * np.einsum("mk,mk->m", r, r),
        d_phi=lambda p, r, g: np.zeros_like(p),
        d_rate=lambda p, r, g: r.copy(),
        d_grad=lambda p, r, g: np.zeros_like(g),
        rate_dependent=True,
    )


def test_bulk_rate_bracket():
    # kinetic density: residual of phi = c t^2 is -d/dt (c * 2 t) = -2c
    kinetic = make_kinetic_bulk()
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    rng = np.random.default_rng(9)
    c = rng.standard_normal((mesh.n_vertices, 1))
    for steps in (3, 5):
        dt = 0.01
        times = (np.arange(steps) - steps // 2) * dt
        traj = np.stack([c * t**2 for t in times])
        state = FieldState.from_trajectory(traj, dt)
        res = euler_lagrange_residual(mesh, kinetic, state)
        inner = mesh.interior_mask
        assert np.abs(res[inner] + 2.0 * c[inner]).max() <= 1e-10


def test_rate_dependent_bulk_needs_trajectory():
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    with pytest.raises(ValueError):
        euler_lagrange_residual(mesh, make_kinetic_bulk(),
                                FieldState(np.zeros((mesh.n_vertices, 1))))


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
    """Copy of ``lagrangian`` whose callable fields count their calls."""
    def wrap(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call
    return dataclasses.replace(lagrangian, **{
        f.name: wrap(f.name, getattr(lagrangian, f.name))
        for f in dataclasses.fields(lagrangian) if callable(getattr(lagrangian, f.name))})


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

    def no_fit(mesh):
        raise AssertionError("the report must not run the shape-operator fit")
    monkeypatch.setattr(TriangleMesh, "vertex_adjacency", no_fit)
    natural_bc_residual(mesh, counted(bulk, bulk_calls),
                        counted(surface, surface_calls), state)
    assert bulk_calls == Counter(d_phi=1, d_grad=1)
    assert surface_calls == Counter(gamma0_d_phi=1, gamma0_d_grad=1,
                                    gamma_hat_d_phi=1, gamma_hat_d_grad=1)


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


def test_surface_rate_bracket():
    zero_s = lambda p, r, g: np.zeros(p.shape[0])
    zero_v = lambda p, r, g: np.zeros_like(p)
    zero_g = lambda p, r, g: np.zeros_like(g)
    surf = SurfaceLagrangian(
        "surface_kinetic", 1,
        gamma0=lambda p, r, g: 0.5 * np.einsum("mk,mk->m", r, r),
        gamma0_d_phi=zero_v, gamma0_d_grad=zero_g,
        gamma_hat=zero_s, gamma_hat_d_phi=zero_v, gamma_hat_d_grad=zero_g,
        rate_dependent=True,
        gamma0_d_rate=lambda p, r, g: r.copy(),
    )
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    rng = np.random.default_rng(1)
    c = rng.standard_normal((mesh.n_vertices, 1))
    for steps in (3, 5):
        dt = 0.01
        times = (np.arange(steps) - steps // 2) * dt
        traj = np.stack([c * t**2 for t in times])
        state = FieldState.from_trajectory(traj, dt)
        report = natural_bc_residual(mesh, HARMONIC, surf, state)
        expected = -2.0 * c[mesh.boundary_vertex_ids]
        assert np.abs(report.residual - expected).max() <= 1e-10

    with pytest.raises(ValueError):
        natural_bc_residual(mesh, HARMONIC, surf,
                            FieldState(np.zeros((mesh.n_vertices, 1))))


def test_surface_curvature_rate_bracket():
    # rate term in the curvature channel carries the -2H weight
    zero_s = lambda p, r, g: np.zeros(p.shape[0])
    zero_v = lambda p, r, g: np.zeros_like(p)
    zero_g = lambda p, r, g: np.zeros_like(g)
    surf = SurfaceLagrangian(
        "curvature_kinetic", 1,
        gamma0=zero_s, gamma0_d_phi=zero_v, gamma0_d_grad=zero_g,
        gamma_hat=lambda p, r, g: 0.5 * np.einsum("mk,mk->m", r, r),
        gamma_hat_d_phi=zero_v, gamma_hat_d_grad=zero_g,
        rate_dependent=True,
        gamma_hat_d_rate=lambda p, r, g: r.copy(),
    )
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    rng = np.random.default_rng(2)
    c = rng.standard_normal((mesh.n_vertices, 1))
    dt = 0.01
    traj = np.stack([c * t**2 for t in (-dt, 0.0, dt)])
    state = FieldState.from_trajectory(traj, dt)
    report = natural_bc_residual(mesh, HARMONIC, surf, state)
    # unit sphere boundary: rhs = 2H * (-phi..) = -4c, residual = flux - rhs
    assert np.abs(report.residual - 4.0 * c[mesh.boundary_vertex_ids]).max() <= 1e-10


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
    x, iterations, definite = _cg(lambda p: A @ p, b,
                                  lambda r: np.abs(r).max() <= 1e-13, 100)
    assert definite and 0 < iterations < 100
    assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-12


def test_cg_stops_on_negative_curvature():
    A = np.diag([-3.0, 1.0, 1.0])
    x, iterations, definite = _cg(lambda p: A @ p, np.ones(3), lambda r: False, 10)
    assert not definite and iterations == 0
    assert np.array_equal(x, np.zeros(3))


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


def test_solve_newton_path_stationary():
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    state, log = solve_stationary(mesh, POISSON, robin_surface(1.0),
                                  options=SolveOptions(force_newton=True))
    assert log.converged
    assert log.method == "newton"
    grad = action_gradient(mesh, POISSON, robin_surface(1.0), state)
    assert np.abs(grad).max() <= 1e-10


def test_solve_stationarity_gradient():
    mesh = build_ball_tetmesh(1.0, surface_level=2, radial_layers=3)
    state, log = solve_stationary(mesh, POISSON, robin_surface(1.0))
    assert log.converged
    grad = action_gradient(mesh, POISSON, robin_surface(1.0), state)
    assert np.abs(grad).max() <= 1e-10


def test_bc_residual_small_at_discrete_solution():
    mesh = build_ball_tetmesh(1.0, surface_level=2, radial_layers=3)
    state, _ = solve_stationary(mesh, POISSON, robin_surface(1.0))
    report = natural_bc_residual(mesh, POISSON, robin_surface(1.0), state)
    # the discrete solution satisfies the discrete BC to solver tolerance
    assert np.abs(report.residual).max() <= 1e-6


def make_negated_bulk(flip_gradient_only):
    """-(0.5 |grad phi|^2 + 0.5 phi^2): a quadratic, negative definite action.

    With ``flip_gradient_only`` the density is the positive one while the
    partials stay negated, so gradients disagree with the action.
    """
    sign = 1.0 if flip_gradient_only else -1.0
    return BulkLagrangian(
        "negated", 1,
        density=lambda p, r, g: sign * 0.5 * (np.einsum("mkj,mkj->m", g, g)
                                              + np.einsum("mk,mk->m", p, p)),
        d_phi=lambda p, r, g: -p,
        d_rate=lambda p, r, g: np.zeros_like(p),
        d_grad=lambda p, r, g: -g,
        quadratic=not flip_gradient_only,
    )


def test_cg_indefinite_operator_warns_and_switches(caplog):
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    initial = FieldState(np.random.default_rng(11).standard_normal((mesh.n_vertices, 1)))
    with caplog.at_level("WARNING", logger="curvbc"):
        _, log = solve_stationary(mesh, make_negated_bulk(False), zero_surface(),
                                  initial, SolveOptions(newton_max=2))
    assert log.method == "newton"
    assert any("positive definiteness" in note for note in log.notes)
    assert [r.name for r in caplog.records] == ["curvbc"]
    assert "positive definiteness" in caplog.records[0].getMessage()


def test_failed_line_search_is_not_converged(caplog):
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    initial = FieldState(np.random.default_rng(12).standard_normal((mesh.n_vertices, 1)))
    with caplog.at_level("WARNING", logger="curvbc"):
        state, log = solve_stationary(mesh, make_negated_bulk(True), zero_surface(),
                                      initial)
    assert not log.converged
    assert any("line search failed" in note for note in log.notes)
    assert any("line search failed" in r.getMessage() for r in caplog.records)
    # the rejected step is not taken
    assert np.array_equal(state.values, initial.values)


def test_newton_steepest_descent_is_noted(caplog):
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=2)
    initial = FieldState(np.random.default_rng(11).standard_normal((mesh.n_vertices, 1)))
    with caplog.at_level("INFO", logger="curvbc"):
        _, log = solve_stationary(mesh, make_negated_bulk(False), zero_surface(),
                                  initial, SolveOptions(newton_max=2))
    note = "steepest descent at newton iteration 0"
    assert note in log.notes
    assert any(r.levelname == "INFO" and note in r.getMessage() for r in caplog.records)
