"""Bulk and surface Lagrangian catalog: densities, partials, validation."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from curvbc import (
    AnalyticSurface,
    BoundaryPoint,
    BulkLagrangian,
    IsotropicSurfaceParams,
    ZeroPotential,
    build_icosphere,
    builtin_bulk,
    check_partials,
    coeffs_from_surface,
    evaluate_jet,
    harmonic,
    linear_elastic,
    make_isotropic_surface,
    make_restricted_surface,
    poisson_source,
    quadratic_potential,
    reduced_bc_rhs,
    robin_surface,
    surface_action,
    zero_surface,
)

CATALOG = [
    harmonic(),
    harmonic(3),
    poisson_source(6.0),
    linear_elastic(1.0, 1.0),
    robin_surface(1.0),
    zero_surface(),
    zero_surface(3),
    make_isotropic_surface(1.0, 0.1),
]


def worst_err(report):
    if isinstance(report.max_err, dict):
        return max(report.max_err.values())
    return report.max_err


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_catalog_partials(entry):
    report = check_partials(entry, seed=0)
    assert report.passed, str(report)
    assert worst_err(report) <= 1e-6


def test_corrupted_partial_detected():
    base = harmonic()

    def bad_d_grad(phi, rate, grad):
        return 1.02 * base.d_grad(phi, rate, grad)

    broken = BulkLagrangian("broken", 1, base.density, base.d_phi, bad_d_grad)
    report = check_partials(broken, seed=0)
    assert not report.passed


def kinetic(value):
    """``value`` plus ``0.5 |rate|^2``, and that term's rate partial."""
    return (lambda p, r, g: value(p, r, g) + 0.5 * np.einsum("mk,mk->m", r, r),
            lambda p, r, g: r.copy())


def test_catalog_bulks_give_no_rate_partial():
    for entry in CATALOG:
        if isinstance(entry, BulkLagrangian):
            assert entry.d_rate is None
            assert check_partials(entry, seed=0).max_err["d_rate"] == 0.0


def test_rate_density_without_its_partial_fails():
    """A density that reads the rate fails the check unless it gives the
    rate partial: an absent partial is checked as zero."""
    base = harmonic()
    density, d_rate = kinetic(base.density)
    without = dataclasses.replace(base, name="kinetic", density=density)
    report = check_partials(without, seed=0)
    assert not report.passed and report.max_err["d_rate"] > 0.1
    assert check_partials(dataclasses.replace(without, d_rate=d_rate), seed=0).passed


@pytest.mark.parametrize("slot", ["gamma0", "gamma_hat"])
def test_surface_rate_partials_are_checked(slot):
    base = robin_surface(1.0)
    density, d_rate = kinetic(getattr(base, slot))
    given = dataclasses.replace(base, **{slot: density, f"{slot}_d_rate": d_rate})
    report = check_partials(given, seed=0)
    assert report.passed, str(report)
    assert set(report.max_err) >= {"gamma0_d_rate", "gamma_hat_d_rate"}

    def wrong(p, r, g):
        return 1.02 * d_rate(p, r, g)
    report = check_partials(dataclasses.replace(given, **{f"{slot}_d_rate": wrong}), seed=0)
    assert not report.passed and report.max_err[f"{slot}_d_rate"] > 1e-3
    report = check_partials(dataclasses.replace(given, **{f"{slot}_d_rate": None}), seed=0)
    assert not report.passed and report.max_err[f"{slot}_d_rate"] > 0.1


def test_elastic_density_at_identity_strain():
    entry = linear_elastic(1.0, 1.0)
    grad = np.tile(np.eye(3), (4, 1, 1))
    dens = entry.density(np.zeros((4, 3)), np.zeros((4, 3)), grad)
    assert np.abs(dens - 7.5).max() <= 1e-14


def test_harmonic_quadratic_homogeneity():
    entry = harmonic()
    rng = np.random.default_rng(0)
    grad = rng.standard_normal((5, 1, 3))
    zeros = np.zeros((5, 1))
    ratio = entry.density(zeros, zeros, 2.0 * grad) - 4.0 * entry.density(zeros, zeros, grad)
    assert np.abs(ratio).max() <= 1e-14


def test_poisson_source_linear_term():
    entry = poisson_source(6.0)
    phi = np.ones((3, 1))
    dens_zero_grad = entry.density(phi, np.zeros_like(phi), np.zeros((3, 1, 3)))
    assert np.abs(dens_zero_grad + 6.0).max() <= 1e-14
    assert np.abs(entry.d_phi(phi, np.zeros_like(phi), np.zeros((3, 1, 3))) + 6.0).max() <= 1e-14


def test_isotropic_rigid_motion_invariance():
    mesh = build_icosphere(1.0, 2)
    surf = make_isotropic_surface(2.0, 0.3)
    rng = np.random.default_rng(2)
    shift = rng.standard_normal(3)
    spin = rng.standard_normal(3)
    values = shift + np.cross(spin, mesh.vertices)
    plain, curv = surface_action(mesh, surf, values)
    scale = 1.0 + np.abs(values).max() * mesh.total_area
    assert abs(plain) <= 1e-10 * scale
    assert abs(curv) <= 1e-10 * scale
    d_phi = surf.gamma0_d_phi(values, np.zeros_like(values), np.zeros((len(values), 3, 3)))
    assert np.abs(d_phi).max() == 0.0


def test_plain_channels_leave_reduced_rhs_unchanged():
    # constant drift-channel coefficients drop out of the reduced relation
    jet = evaluate_jet(AnalyticSurface.sphere(2.0), 0.8, 1.1)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(2)
    dphi = rng.standard_normal((2, 2))
    point = BoundaryPoint.from_jet(jet, phi, dphi)

    bare = make_restricted_surface(2, gamma_bar=quadratic_potential(0.7, 2))
    extended = make_restricted_surface(
        2,
        gamma_bar=quadratic_potential(0.7, 2),
        chi_tilde=rng.standard_normal(3),
        gamma0_potential=quadratic_potential(1.3, 2),
        kappa_hat=rng.standard_normal(3),
        gamma1_potential=quadratic_potential(-0.4, 2),
    )
    lhs = reduced_bc_rhs(bare, point)
    rhs = reduced_bc_rhs(extended, point)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_validation_errors():
    with pytest.raises(ValueError):
        robin_surface(-0.5)
    with pytest.raises(ValueError):
        make_isotropic_surface(-1.0, 0.0)
    with pytest.raises(ValueError):
        make_isotropic_surface(0.0, 0.1)
    with pytest.raises(ValueError):
        linear_elastic(1.0, 0.0)
    with pytest.raises(ValueError):
        linear_elastic(-10.0, 1.0)
    with pytest.raises(ValueError):
        builtin_bulk("nope")


def test_builtin_bulk_dispatch():
    assert builtin_bulk("harmonic", n_components=3).n_components == 3
    assert builtin_bulk("poisson_source", source=2.0).n_components == 1
    assert builtin_bulk("linear_elastic", mu=1.0, lam=1.0).n_components == 3


def test_potentials():
    qp = quadratic_potential(0.5, 2)
    phi = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert np.abs(qp.value(phi) - np.array([1.25, 0.25])).max() <= 1e-14
    assert np.abs(qp.grad(phi) - 0.5 * phi).max() <= 1e-14
    hess = np.asarray(qp.hess(phi))
    assert np.abs(hess - hess.transpose(0, 2, 1)).max() <= 1e-14

    zp = ZeroPotential()
    assert np.abs(zp.value(phi)).max() == 0.0
    assert np.abs(zp.grad(phi)).max() == 0.0


def test_isotropic_metadata():
    """The tensions are the restricted coefficients ``chi = sigma I`` and
    ``kappa = tau I``; the parameters derive delta."""
    surf = make_isotropic_surface(2.0, 0.3)
    assert np.array_equal(surf.meta["chi"], 2.0 * np.eye(3))
    assert np.array_equal(surf.meta["kappa"], 0.3 * np.eye(3))
    assert abs(IsotropicSurfaceParams(2.0, 0.3).delta - 0.3) <= 1e-15


def test_isotropic_metadata_without_tension():
    surf = make_isotropic_surface(0.0, 0.0)
    assert not surf.meta["chi"].any() and not surf.meta["kappa"].any()
    assert IsotropicSurfaceParams(0.0, 0.0).delta == 0.0


# -- the uniform-tension pair is a restricted pair ------------------------------

def reference_isotropic_coeffs(sigma, tau, point):
    """Chart coefficients of the uniform-tension pair, written out directly.

    ``chi[:, c]`` projects ``sigma e_c`` onto the chart and the divergence of
    a tangentially projected constant field is ``-2 H (c . n)``; likewise for
    ``kappa`` with tau.
    """
    def project(c):
        return point.metric_inv @ (point.tangents @ c)

    eye = np.eye(3)
    H, n = point.mean_curvature, point.normal
    return {
        "chi": np.stack([project(sigma * eye[c]) for c in range(3)], axis=1),
        "kappa": np.stack([project(tau * eye[c]) for c in range(3)], axis=1),
        "div_chi": -2.0 * H * sigma * n,
        "div_kappa": -2.0 * H * tau * n,
    }


def jet_points():
    rng = np.random.default_rng(11)
    sphere = AnalyticSurface.sphere(1.5)
    torus = AnalyticSurface.torus(2.0, 0.5)
    jets = [evaluate_jet(sphere, theta, phi) for theta in (0.4, 1.3, 2.6)
            for phi in (0.2, 3.0)]
    jets += [evaluate_jet(torus, u, v) for u in (0.3, 2.2, 4.0) for v in (0.9, 3.3, 5.5)]
    return [BoundaryPoint.from_jet(jet, rng.standard_normal(3), rng.standard_normal((2, 3)))
            for jet in jets]


@pytest.mark.parametrize("sigma,tau", [(1.0, 0.1), (2.5, -0.4), (0.3, 0.0), (0.0, 0.0)])
def test_isotropic_coeffs_match_reference(sigma, tau):
    surf = make_isotropic_surface(sigma, tau)
    for point in jet_points():
        coeffs = coeffs_from_surface(surf, point)
        ref = reference_isotropic_coeffs(sigma, tau, point)
        for name, expect in ref.items():
            assert np.abs(getattr(coeffs, name) - expect).max() <= 1e-14, name
        assert coeffs.chi_tilde is None and coeffs.kappa_hat is None
        assert coeffs.div_chi_tilde == 0.0 and coeffs.div_kappa_hat == 0.0


def test_isotropic_densities_are_trace_weighted():
    rng = np.random.default_rng(2)
    phi, rate = rng.standard_normal((30, 3)), rng.standard_normal((30, 3))
    grad = rng.standard_normal((30, 3, 3))
    surf = make_isotropic_surface(1.7, 0.2)
    trace = np.einsum("mkk->m", grad)
    assert np.abs(surf.gamma0(phi, rate, grad) - 1.7 * trace).max() <= 1e-14
    assert np.abs(surf.gamma_hat(phi, rate, grad) - 0.2 * trace).max() <= 1e-14
    assert np.array_equal(surf.gamma0_d_grad(phi, rate, grad),
                          np.broadcast_to(1.7 * np.eye(3), grad.shape))
    assert np.array_equal(surf.gamma_hat_d_grad(phi, rate, grad),
                          np.broadcast_to(0.2 * np.eye(3), grad.shape))
    assert not surf.gamma0_d_phi(phi, rate, grad).any()
    assert not surf.gamma_hat_d_phi(phi, rate, grad).any()


@pytest.mark.parametrize("sigma,tau", [
    (1.0, 0.1), (0.0, 0.0), (2.0, -0.5), (-1.0, 0.0), (-1e-300, 0.0),
    (0.0, 0.1), (0.0, -1e-300), (-2.0, 0.3),
])
def test_isotropic_builder_and_params_reject_the_same_inputs(sigma, tau):
    def rejects(build):
        try:
            build(sigma, tau)
        except ValueError:
            return True
        return False

    assert rejects(make_isotropic_surface) == rejects(IsotropicSurfaceParams)
    assert rejects(make_isotropic_surface) == (sigma < 0 or (sigma == 0 and tau != 0))


@pytest.mark.parametrize("sigma,tau", [
    (np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, -np.inf),
    ([1.0, np.nan], [0.0, 0.1]),
])
def test_isotropic_params_reject_non_finite(sigma, tau):
    with pytest.raises(ValueError, match="finite"):
        IsotropicSurfaceParams(sigma, tau)
