"""Boundary-condition reductions, size-corrected pressure, equivalence report."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from curvbc import (
    AnalyticSurface,
    BoundaryPoint,
    RestrictedPointCoeffs,
    RestrictedSurface,
    adapted_coefficient_divergence,
    expansion_terms,
    IsotropicSurfaceParams,
    SolveOptions,
    build_ball_tetmesh,
    builtin_bulk,
    coeffs_from_surface,
    evaluate_jet,
    extended_bc_rhs,
    general_bc_rhs,
    isotropic_bc_values,
    make_isotropic_surface,
    quadratic_potential,
    reduced_bc_rhs,
    solve_stationary,
    tie_curvature_channel,
    tolman_curve,
    tolman_pressure,
    verify_reductions,
)
from curvbc import tolman_reduction
from curvbc.analytic_geometry import GeometryJet
from curvbc.lagrangian_library import SurfaceLagrangian
from curvbc.tolman_reduction import _CubicPotential


def sphere_point(seed=0, k=2):
    jet = evaluate_jet(AnalyticSurface.sphere(2.0), 0.8, 1.1)
    rng = np.random.default_rng(seed)
    return BoundaryPoint.from_jet(jet, rng.standard_normal(k),
                                  rng.standard_normal((2, k)))


def test_reduced_rhs_robin_form():
    beta = 0.5
    surf = RestrictedSurface(1, gamma_bar=quadratic_potential(beta))
    point = sphere_point(k=1)
    rhs = reduced_bc_rhs(point, coeffs_from_surface(surf, point))
    assert np.abs(rhs + beta * point.phi).max() <= 1e-14


def test_coeffs_require_restricted_form():
    zeros_s = lambda p, r, g: np.zeros(p.shape[0])
    zeros_v = lambda p, r, g: np.zeros_like(p)
    zeros_g = lambda p, r, g: np.zeros_like(g)
    opaque = SurfaceLagrangian("opaque", 2, zeros_s, zeros_v, zeros_g,
                               zeros_s, zeros_v, zeros_g)
    with pytest.raises(ValueError):
        coeffs_from_surface(opaque, sphere_point())


def test_reduced_equals_general_for_restricted_surface():
    surf = RestrictedSurface(
        2,
        gamma_bar=quadratic_potential(0.7, 2),
        gamma_hat_potential=quadratic_potential(0.2, 2),
    )
    point = sphere_point(seed=4)
    coeffs = coeffs_from_surface(surf, point)
    assert np.abs(general_bc_rhs(point, coeffs)
                  - reduced_bc_rhs(point, coeffs)).max() <= 1e-10


def test_extended_rhs_zero_delta_matches_general():
    point = sphere_point(seed=5, k=2)
    rng = np.random.default_rng(5)
    coeffs = coeffs_from_surface(
        RestrictedSurface(
            2,
            gamma_bar=quadratic_potential(0.9, 2),
            chi_tilde=rng.standard_normal(3),
            gamma0_potential=quadratic_potential(0.4, 2),
        ),
        point,
    )
    dev = np.abs(general_bc_rhs(point, coeffs)
                 - extended_bc_rhs(point, coeffs, 0.0)).max()
    assert dev <= 1e-12


def test_tie_scales_drift_channels():
    point = sphere_point(seed=6, k=2)
    rng = np.random.default_rng(6)
    coeffs = coeffs_from_surface(
        RestrictedSurface(
            2,
            gamma_bar=quadratic_potential(0.9, 2),
            chi=rng.standard_normal((2, 3)),
            chi_tilde=rng.standard_normal(3),
            gamma0_potential=quadratic_potential(0.4, 2),
        ),
        point,
    )
    delta = 0.3
    tied = tie_curvature_channel(coeffs, delta)
    assert np.abs(np.asarray(tied.kappa) - 0.5 * delta * np.asarray(coeffs.chi)).max() == 0.0
    assert np.abs(np.asarray(tied.kappa_hat) - 0.5 * delta * np.asarray(coeffs.chi_tilde)).max() == 0.0


def test_tied_pair_matches_extended_rhs():
    rng = np.random.default_rng(7)
    for surface in (AnalyticSurface.sphere(1.5), AnalyticSurface.torus(2.0, 0.5)):
        jet = evaluate_jet(surface, rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        point = BoundaryPoint.from_jet(jet, rng.standard_normal(2),
                                       rng.standard_normal((2, 2)))
        coeffs = coeffs_from_surface(
            RestrictedSurface(
                2,
                gamma_bar=quadratic_potential(0.9, 2),
                chi=rng.standard_normal((2, 3)),
                chi_tilde=rng.standard_normal(3),
                gamma0_potential=quadratic_potential(0.4, 2),
            ),
            point,
        )
        delta = rng.uniform(-0.4, 0.4)
        general = general_bc_rhs(point, tie_curvature_channel(coeffs, delta))
        extended = extended_bc_rhs(point, coeffs, delta)
        assert np.abs(general - extended).max() <= 1e-10


def test_isotropic_bc_values_rows():
    params = IsotropicSurfaceParams(1.0, 0.1)
    grad_H = np.array([0.3, -0.2])
    tangential, normal = isotropic_bc_values(params, 0.5, grad_H=grad_H,
                                             metric_inv=np.eye(2))
    assert abs(normal - (2 * 1.0 * 0.5 - 4 * 0.1 * 0.25)) <= 1e-14
    assert np.abs(tangential + 2 * 0.1 * grad_H).max() <= 1e-14


@pytest.mark.parametrize("m", [2, 3])
def test_isotropic_bc_values_stacked_equal_per_point(m):
    """A stack of points gives each point's values, with or without a
    stack of metric inverses and of params (2 points once mixed, 3 raised)."""
    rng = np.random.default_rng(m)
    H, grad_H = rng.uniform(0.2, 2.0, m), rng.standard_normal((m, 2))
    a = rng.standard_normal((m, 2, 2))
    metric_inv = a @ a.transpose(0, 2, 1) + np.eye(2)
    sigma, tau = rng.uniform(1.0, 2.0, m), rng.uniform(0.0, 0.3, m)
    for stacked in (False, True):
        params = IsotropicSurfaceParams(sigma, tau) if stacked else IsotropicSurfaceParams(1.0, 0.1)
        for ginv in (None, metric_inv):
            tangential, normal = isotropic_bc_values(params, H, grad_H, ginv)
            assert tangential.shape == (m, 2) and normal.shape == (m,)
            for i in range(m):
                one = isotropic_bc_values(
                    IsotropicSurfaceParams(sigma[i], tau[i]) if stacked else params,
                    H[i], grad_H[i], None if ginv is None else ginv[i])
                assert np.array_equal(tangential[i], one[0])
                assert normal[i] == one[1]


def test_pressure_identities():
    rng = np.random.default_rng(8)
    for _ in range(50):
        sigma = rng.uniform(0.1, 3.0)
        tau = rng.uniform(0.0, 0.5) * sigma
        params = IsotropicSurfaceParams(sigma, tau)
        H = rng.uniform(0.05, 5.0)
        dp = tolman_pressure(params, H)
        delta = 2 * tau / sigma
        assert abs(dp - 2 * sigma * H * (1 - delta * H)) <= 1e-12
        _, normal = isotropic_bc_values(params, H)
        assert abs(dp - normal) <= 1e-12
        if tau > 0:
            assert dp < 2 * sigma * H  # always below the uncorrected value


def test_curve_rows_and_zero_crossing():
    params = IsotropicSurfaceParams(1.0, 0.1)  # delta = 0.2
    radii = np.array([0.1, 0.2, 1.0, 10.0])
    curve = tolman_curve(params, radii)
    rows = np.asarray(curve.rows())
    assert rows.shape == (4, 5)
    for R, H, dp, dp_yl, deltaH in rows:
        assert abs(H - 1.0 / R) <= 1e-15
        assert abs(dp - 2 * H * (1 - 0.2 * H)) <= 1e-12
        assert abs(dp_yl - 2 * H) <= 1e-12
        assert abs(deltaH - 0.2 * H) <= 1e-15
    # crossing at R = delta
    assert abs(rows[1, 2]) <= 1e-12


def test_curve_young_laplace_limit():
    curve = tolman_curve(IsotropicSurfaceParams(2.0, 0.0), np.array([0.5, 3.0]))
    rows = np.asarray(curve.rows())
    assert np.abs(rows[:, 2] - rows[:, 3]).max() <= 1e-15


def test_curve_validates_radii():
    with pytest.raises(ValueError):
        tolman_curve(IsotropicSurfaceParams(1.0, 0.1), np.array([1.0, -2.0]))


@pytest.mark.parametrize("radius", [np.nan, np.inf])
def test_curve_rejects_non_finite_radii(radius):
    """A nan radius gave a row of nans, which passed both identity checks."""
    with pytest.raises(ValueError, match="^radii must be finite and positive$"):
        tolman_curve(IsotropicSurfaceParams(1.0, 0.1), [radius, 1.0])


def test_curve_csv_format(tmp_path):
    curve = tolman_curve(IsotropicSurfaceParams(1.0, 0.05),
                         np.linspace(0.2, 10.0, 50))
    path = tmp_path / "curve.csv"
    curve.write_csv(path, comments=("run x",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# run x"
    assert lines[1] == "R,H,dp_tolman,dp_young_laplace,delta_H"
    assert len(lines) == 52
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 10.0
    assert abs(last[2] - 0.198) <= 1e-15


def test_verify_reductions_report():
    report = verify_reductions(trials=5, seed=0)
    assert report.all_passed
    names = [row.name for row in report.rows]
    assert len(names) == len(set(names))
    finding = report.row("adapted_normal_row_printed_signs")
    assert finding.passed is None  # documented finding, not a pass/fail row
    assert finding.note
    table = report.format_table()
    assert "adapted_normal_row_printed_signs" in table
    payload = json.loads(json.dumps(report.to_rows()))
    assert len(payload) == len(report.rows)
    assert all("max_deviation" in entry for entry in payload)


# -- stacked points against single-point calls ---------------------------------

N_STACK = 12


def stacked_jets():
    """Sphere and torus jets: one list of single jets and the same jets stacked."""
    rng = np.random.default_rng(21)
    jets = [evaluate_jet(surface, rng.uniform(0.3, 2.8), rng.uniform(0.0, 6.0))
            for surface in (AnalyticSurface.sphere(1.5), AnalyticSurface.torus(2.0, 0.5))
            for _ in range(N_STACK // 2)]
    stack = GeometryJet(*(np.stack([getattr(j, f.name) for j in jets])
                          for f in dataclasses.fields(GeometryJet)))
    return jets, stack


def random_point_data(k, seed):
    """Stacked points and coefficients with per-point cubic potentials, and
    the same data split into single points."""
    rng = np.random.default_rng(seed)
    jets, stack = stacked_jets()
    n = len(jets)
    phi, dphi = rng.standard_normal((n, k)), rng.standard_normal((n, 2, k))
    pots = {name: (rng.standard_normal((n, k)), rng.standard_normal((n, k, k)),
                   rng.standard_normal(n))
            for name in ("gamma_bar", "gamma_hat", "gamma0", "gamma1")}
    arrays = dict(chi=rng.standard_normal((n, 2, k)), kappa=rng.standard_normal((n, 2, k)),
                  chi_tilde=rng.standard_normal((n, 2)), kappa_hat=rng.standard_normal((n, 2)),
                  div_chi=rng.standard_normal((n, k)), div_kappa=rng.standard_normal((n, k)),
                  div_chi_tilde=rng.standard_normal(n), div_kappa_hat=rng.standard_normal(n))
    point = BoundaryPoint.from_jet(stack, phi, dphi)
    coeffs = RestrictedPointCoeffs(k, **{name: _CubicPotential(*p) for name, p in pots.items()},
                                   **arrays)
    singles = [(BoundaryPoint.from_jet(jet, phi[i], dphi[i]),
                RestrictedPointCoeffs(k, **{name: _CubicPotential(*(a[i] for a in p))
                                            for name, p in pots.items()},
                                      **{name: a[i] for name, a in arrays.items()}))
               for i, jet in enumerate(jets)]
    return point, coeffs, singles, rng


def assert_rows_match(stacked, single_rows):
    single = np.stack(single_rows)
    assert stacked.shape == single.shape
    assert np.abs(stacked - single).max() <= 1e-14 * (1.0 + np.abs(single).max())


@pytest.mark.parametrize("k", [1, 3])
def test_stacked_bc_rhs_match_single_points(k):
    point, coeffs, singles, rng = random_point_data(k, seed=k)
    delta = rng.uniform(-0.4, 0.4, N_STACK)
    assert_rows_match(general_bc_rhs(point, coeffs),
                      [general_bc_rhs(p, c) for p, c in singles])
    assert_rows_match(reduced_bc_rhs(point, coeffs),
                      [reduced_bc_rhs(p, c) for p, c in singles])
    assert_rows_match(extended_bc_rhs(point, coeffs, delta),
                      [extended_bc_rhs(p, c, d) for (p, c), d in zip(singles, delta)])
    assert_rows_match(general_bc_rhs(point, tie_curvature_channel(coeffs, delta)),
                      [general_bc_rhs(p, tie_curvature_channel(c, d))
                       for (p, c), d in zip(singles, delta)])
    # one delta for the whole stack
    assert_rows_match(extended_bc_rhs(point, coeffs, 0.3),
                      [extended_bc_rhs(p, c, 0.3) for p, c in singles])


def test_stacked_coeffs_from_surface_match_single_points():
    rng = np.random.default_rng(5)
    surf = RestrictedSurface(
        2, gamma_bar=quadratic_potential(0.9, 2), chi=rng.standard_normal((2, 3)),
        chi_tilde=rng.standard_normal(3), gamma0_potential=quadratic_potential(0.4, 2),
        kappa=rng.standard_normal((2, 3)), kappa_hat=rng.standard_normal(3),
        gamma1_potential=quadratic_potential(-0.3, 2),
        gamma_hat_potential=quadratic_potential(0.2, 2))
    jets, stack = stacked_jets()
    phi, dphi = rng.standard_normal((len(jets), 2)), rng.standard_normal((len(jets), 2, 2))
    stacked = coeffs_from_surface(surf, BoundaryPoint.from_jet(stack, phi, dphi))
    singles = [coeffs_from_surface(surf, BoundaryPoint.from_jet(jet, phi[i], dphi[i]))
               for i, jet in enumerate(jets)]
    for name in ("chi", "kappa", "chi_tilde", "kappa_hat", "div_chi", "div_kappa",
                 "div_chi_tilde", "div_kappa_hat"):
        assert_rows_match(getattr(stacked, name), [getattr(c, name) for c in singles])
    # a single point keeps its shapes and scalar types
    assert singles[0].chi.shape == (2, 2) and singles[0].chi_tilde.shape == (2,)
    assert isinstance(singles[0].div_chi_tilde, float)
    assert isinstance(singles[0].div_kappa_hat, float)
    # and the general route through the stack matches the single points
    point = BoundaryPoint.from_jet(stack, phi, dphi)
    assert_rows_match(general_bc_rhs(point, stacked),
                      [general_bc_rhs(BoundaryPoint.from_jet(jet, phi[i], dphi[i]), c)
                       for i, (jet, c) in enumerate(zip(jets, singles))])


def test_catalog_surface_on_a_two_axis_stack():
    """Catalog potentials take rows, so a (2, 6) stack equals the flat one."""
    rng = np.random.default_rng(8)
    surf = RestrictedSurface(
        2, gamma_bar=quadratic_potential(0.9, 2), chi_tilde=rng.standard_normal(3),
        gamma0_potential=quadratic_potential(0.4, 2), kappa_hat=rng.standard_normal(3),
        gamma1_potential=quadratic_potential(-0.3, 2))
    _, stack = stacked_jets()
    phi, dphi = rng.standard_normal((N_STACK, 2)), rng.standard_normal((N_STACK, 2, 2))
    flat = BoundaryPoint.from_jet(stack, phi, dphi)
    columns = (np.asarray(getattr(flat, f.name)) for f in dataclasses.fields(BoundaryPoint))
    grid = BoundaryPoint(*(a.reshape((2, -1) + a.shape[1:]) for a in columns))
    expect = general_bc_rhs(flat, coeffs_from_surface(surf, flat))
    got = general_bc_rhs(grid, coeffs_from_surface(surf, grid))
    assert got.shape == (2, N_STACK // 2, 2)
    assert np.abs(got.reshape(expect.shape) - expect).max() <= 1e-14 * (1.0 + np.abs(expect).max())


def test_stacked_adapted_expansions_match_single_jets():
    rng = np.random.default_rng(6)
    jets, stack = stacked_jets()
    n = len(jets)
    chi, kappa = rng.standard_normal((n, 2, 3)), rng.standard_normal((n, 2, 3))
    dchi, dkap = rng.standard_normal((n, 2, 3)), rng.standard_normal((n, 2, 3))
    dgb, dgh = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    assert_rows_match(adapted_coefficient_divergence(stack, chi),
                      [adapted_coefficient_divergence(jet, chi[i]) for i, jet in enumerate(jets)])
    terms = expansion_terms(stack, chi, kappa, dgb, dgh, dchi, dkap)
    single = [expansion_terms(jet, chi[i], kappa[i], dgb[i], dgh[i], dchi[i], dkap[i])
              for i, jet in enumerate(jets)]
    for f in dataclasses.fields(terms):
        assert_rows_match(np.asarray(getattr(terms, f.name)),
                          [getattr(t, f.name) for t in single])
    # a single jet keeps scalar normal entries
    assert isinstance(single[0].rhs_normal_printed, float)
    assert isinstance(single[0].kappa_conn_n, float)
    assert single[0].rhs_tangential_printed.shape == (2,)


# -- the equivalence report ------------------------------------------------------

ROW_NAMES = [
    "reduced_equals_general_uniform_curvature",
    "plain_drift_channel_drops",
    "curvature_drift_channel_remnant",
    "normal_projection_identity",
    "tangential_row_tension_gradient",
    "pressure_normal_value_identity",
    "tied_pair_equals_size_corrected_form",
    "adapted_tangential_row_matches",
    "adapted_normal_row_corrected_matches",
    "adapted_normal_row_printed_signs",
    "discrete_droplet_normal_value",
]


@pytest.mark.parametrize("seed", range(10))
def test_verify_reductions_passes_every_seed(seed):
    report = verify_reductions(25, seed)
    assert [row.name for row in report.rows] == ROW_NAMES
    assert report.all_passed, report.format_table()
    tolerances = [1e-10] * 5 + [1e-12] + [1e-10] * 3 + [None, 5e-2]
    assert [row.tolerance for row in report.rows] == tolerances


def test_verify_reductions_catches_an_extended_route_fault(monkeypatch):
    """The batched rows compare two routes, not an array with itself."""
    def off_by_a_little(point, coeffs, delta, _real=tolman_reduction.extended_bc_rhs):
        return _real(point, coeffs, delta) + 1e-6

    monkeypatch.setattr(tolman_reduction, "extended_bc_rhs", off_by_a_little)
    report = verify_reductions(3, 0)
    row = report.row("tied_pair_equals_size_corrected_form")
    assert row.passed is False
    assert abs(row.max_deviation - 1e-6) <= 1e-9
    assert not report.all_passed


def test_tolman_law_from_bulk_solves():
    """The droplet law dp = 2 sigma / R - 4 tau / R^2, fitted to bulk solves.

    ``linear_elastic(1, 1) x isotropic(1, 0.05)`` is solved under the rigid
    gauge on (2, 3) balls of four radii.  Each solution is close to a uniform
    dilation u = c x; the volume-weighted fit of c gives the pressure jump
    dp = -(3 lam + 2 mu) c, and a least-squares fit of dp(R) gives sigma and
    tau.  sigma carries the O(h^2) discretization error of the (2, 3) ball.
    delta = 2 tau / sigma comes out exact only because the ball meshes are
    scaled copies of one another, so the same discrete operator appears at
    every radius: this pins the solve -> fit -> Tolman chain, not the
    discretization of delta.
    """
    lam, mu, sigma, tau = 1.0, 1.0, 1.0, 0.05
    bulk = builtin_bulk("linear_elastic", lam=lam, mu=mu)
    surface = make_isotropic_surface(sigma, tau)
    radii = np.array([0.5, 1.0, 2.0, 4.0])
    dp = []
    for radius in radii:
        mesh = build_ball_tetmesh(radius, surface_level=2, radial_layers=3)
        state, log = solve_stationary(mesh, bulk, surface, options=SolveOptions(gauge="rigid"))
        assert log.converged
        x, w = mesh.vertices, mesh.dual_volumes
        c = ((w * np.einsum("vj,vj->v", state.values, x)).sum()
             / (w * np.einsum("vj,vj->v", x, x)).sum())
        dp.append(-(3.0 * lam + 2.0 * mu) * c)
    (sigma_fit, tau_fit), *_ = np.linalg.lstsq(
        np.column_stack([2.0 / radii, -4.0 / radii**2]), np.array(dp), rcond=None)
    assert abs(sigma_fit - sigma) <= 0.02 * sigma
    delta = IsotropicSurfaceParams(sigma_fit, tau_fit).delta
    assert abs(delta - 2.0 * tau / sigma) <= 1e-8
