"""Acceptance suite: one test per shipped guarantee, tolerances as pinned.

Each test is independent and runs at desk scale; `pytest -v` prints one
pass/fail line per criterion.
"""
from __future__ import annotations

import numpy as np
import pytest

from curvbc import (
    AnalyticSurface,
    BoundaryPoint,
    FieldState,
    IsotropicSurfaceParams,
    RestrictedSurface,
    action_gradient,
    assemble_action,
    build_ball_tetmesh,
    build_icosphere,
    builtin_bulk,
    coeffs_from_surface,
    curvature_identity_residual,
    evaluate_jet,
    extended_bc_rhs,
    general_bc_rhs,
    harmonic,
    isotropic_bc_values,
    linear_elastic,
    make_isotropic_surface,
    mean_curvature,
    natural_bc_residual,
    poisson_source,
    quadratic_potential,
    robin_surface,
    solve_stationary,
    surface_action,
    surface_divergence,
    tie_curvature_channel,
    tolman_curve,
    verify_reductions,
    zero_surface,
)

# estimators are exact to machine precision on the sphere fixtures, so
# "decreasing" sequences are read with a roundoff floor
FLOOR = 1e-10


def test_criterion_1_curvature_identity():
    identity = []
    for level in (2, 3, 4, 5):
        mesh = build_icosphere(1.0, level)
        identity.append(curvature_identity_residual(mesh))
        if level == 4:
            h_err = np.abs(mean_curvature(mesh) - 1.0).max()
    assert all(b < a or b <= FLOOR for a, b in zip(identity, identity[1:]))
    assert h_err <= 0.02


def test_criterion_2_closed_surface_cancellation():
    mesh = build_ball_tetmesh(1.0, surface_level=2, radial_layers=4)
    rng = np.random.default_rng(0)
    state = FieldState(rng.standard_normal((mesh.n_vertices, 1)))
    surf = robin_surface(1.0)
    base = assemble_action(mesh, builtin_bulk("harmonic"), surf, state)

    boundary = mesh.boundary
    raw = rng.standard_normal((boundary.n_faces, 3))
    tangential = raw - boundary.face_normals * np.einsum(
        "fj,fj->f", raw, boundary.face_normals)[:, None]
    moved = assemble_action(mesh, builtin_bulk("harmonic"), surf, state,
                            surface_transport=tangential)
    assert abs(moved.total - base.total) <= 1e-10 * (1.0 + abs(base.total))

    div = surface_divergence(boundary, tangential)
    assert abs(np.sum(boundary.vertex_areas * div)) <= 1e-12


def test_criterion_3_variation_consistency():
    mesh = build_ball_tetmesh(1.0, surface_level=1, radial_layers=3)
    rng = np.random.default_rng(1)

    def restricted(k):
        return RestrictedSurface(
            k,
            gamma_bar=quadratic_potential(0.7, k),
            chi=rng.standard_normal((k, 3)),
            chi_tilde=rng.standard_normal(3),
            gamma0_potential=quadratic_potential(1.1, k),
            kappa=rng.standard_normal((k, 3)),
            kappa_hat=rng.standard_normal(3),
            gamma1_potential=quadratic_potential(-0.4, k),
        )

    pairs = []
    for make_bulk in (lambda k: harmonic(k), lambda k: poisson_source(6.0, k)):
        pairs += [
            (make_bulk(1), zero_surface(1)),
            (make_bulk(1), robin_surface(1.0, 1)),
            (make_bulk(1), restricted(1)),
            (make_bulk(3), make_isotropic_surface(1.0, 0.1)),
        ]
    elastic = linear_elastic(1.0, 1.0)
    pairs += [
        (elastic, zero_surface(3)),
        (elastic, robin_surface(1.0, 3)),
        (elastic, make_isotropic_surface(1.0, 0.1)),
        (elastic, restricted(3)),
    ]

    for bulk, surf in pairs:
        for _ in range(20):
            values = rng.standard_normal((mesh.n_vertices, bulk.n_components))
            grad = action_gradient(mesh, bulk, surf, FieldState(values))
            direction = rng.standard_normal(values.shape)
            direction /= np.abs(direction).max()
            eps = 1e-6 * (1.0 + np.abs(values).max())
            plus = assemble_action(mesh, bulk, surf,
                                   FieldState(values + eps * direction)).total
            minus = assemble_action(mesh, bulk, surf,
                                    FieldState(values - eps * direction)).total
            fd = (plus - minus) / (2 * eps)
            dev = abs(np.vdot(grad, direction) - fd) / (1.0 + abs(fd))
            assert dev <= 1e-6, f"{bulk.name} x {surf.name}: {dev:.3e}"


def test_criterion_4_classical_recovery():
    mesh = build_ball_tetmesh(1.0)  # default resolution
    bulk = builtin_bulk("poisson_source", source=6.0)
    surf = robin_surface(1.0)

    state, log = solve_stationary(mesh, bulk, surf)
    assert log.converged
    r2 = np.einsum("vj,vj->v", mesh.vertices, mesh.vertices)
    exact = 3.0 - r2
    w = mesh.dual_volumes
    err = np.sqrt(((state.values[:, 0] - exact) ** 2 * w).sum()
                  / ((exact**2 * w).sum()))
    assert err <= 0.01

    report = natural_bc_residual(mesh, bulk, surf, FieldState(exact[:, None]))
    areas = report.vertex_areas

    def anorm(rows):
        return np.sqrt((rows[:, 0] ** 2 * areas).sum() / areas.sum())

    rel = anorm(report.residual) / (anorm(report.flux_weak) + anorm(report.rhs))
    assert rel <= 0.02


def test_criterion_5_droplet_normal_condition():
    sigma, tau = 1.0, 0.1
    surf = make_isotropic_surface(sigma, tau)
    step = 1e-6
    for radius in (1.0, 2.0, 4.0):
        expected = 2 * sigma / radius - 4 * tau / radius**2
        devs = []
        for level in (2, 3):
            mesh = build_icosphere(radius, level)
            radial = mesh.vertices / radius

            def act(eps):
                plain, curv = surface_action(mesh, surf, eps * radial)
                return plain + curv

            per_area = (act(step) - act(-step)) / (2 * step) / mesh.total_area
            devs.append(abs(per_area - expected) / abs(expected))
        assert devs[-1] <= 0.05
        assert devs[1] < devs[0] or devs[1] <= FLOOR


def test_criterion_6_tolman_formula():
    params = IsotropicSurfaceParams(1.0, 0.1)
    delta = params.delta
    radii = np.array([0.05, delta, 0.5, 1.0, 2.0, 10.0])
    rows = np.asarray(tolman_curve(params, radii).rows())
    for R, H, dp, dp_yl, delta_H in rows:
        assert abs(dp - 2 * params.sigma * H * (1 - delta * H)) <= 1e-12
        _, normal = isotropic_bc_values(params, H)
        assert abs(dp - normal) <= 1e-12
    assert abs(rows[1, 2]) <= 1e-12  # zero crossing at R = delta

    plain = np.asarray(tolman_curve(IsotropicSurfaceParams(1.0, 0.0), radii).rows())
    assert np.abs(plain[:, 2] - plain[:, 3]).max() <= 1e-12


def test_criterion_7_extended_formula():
    rng = np.random.default_rng(2)
    jets = []
    sphere = AnalyticSurface.sphere(1.0)
    torus = AnalyticSurface.torus(2.0, 0.5)
    for theta in (0.5, 1.2, 2.3):
        for phi in (0.3, 2.1, 4.4):
            jets.append(evaluate_jet(sphere, theta, phi))
    for u in (0.4, 1.7, 3.9):
        for v in (0.7, 2.0, 3.6, 5.1):
            jets.append(evaluate_jet(torus, u, v))

    states = 0
    k = 3
    while states < 100:
        for jet in jets:
            point = BoundaryPoint.from_jet(jet, rng.standard_normal(k),
                                           rng.standard_normal((2, k)))
            surf = RestrictedSurface(
                k,
                gamma_bar=quadratic_potential(rng.uniform(0.2, 1.5), k),
                chi=rng.standard_normal((k, 3)),
                chi_tilde=rng.standard_normal(3),
                gamma0_potential=quadratic_potential(rng.uniform(0.2, 1.5), k),
            )
            coeffs = coeffs_from_surface(surf, point)
            delta = rng.uniform(-0.4, 0.4)
            general = general_bc_rhs(point, tie_curvature_channel(coeffs, delta))
            extended = extended_bc_rhs(point, coeffs, delta)
            assert np.abs(general - extended).max() <= 1e-10
            states += 1
    assert states >= 100


def test_criterion_8_reduction_chain():
    report = verify_reductions()
    assert report.all_passed
    checked = [row for row in report.rows if row.passed is not None]
    assert all(row.passed for row in checked)
    assert all(row.tolerance <= 1e-10 or row.name == "discrete_droplet_normal_value"
               for row in checked)
    finding = report.row("adapted_normal_row_printed_signs")
    assert finding.passed is None
    assert finding.note
