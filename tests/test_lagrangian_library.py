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
    RestrictedSurface,
    SurfaceLagrangian,
    ZeroPotential,
    build_icosphere,
    builtin_bulk,
    check_partials,
    coeffs_from_surface,
    evaluate_jet,
    harmonic,
    linear_elastic,
    make_isotropic_surface,
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


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_catalog_partials(entry):
    report = check_partials(entry, seed=0)
    assert report.passed, str(report)
    assert max(report.max_err.values()) <= 1e-6


def test_corrupted_partial_detected():
    base = harmonic()

    def bad_d_grad(phi, grad):
        return 1.02 * base.d_grad(phi, grad)

    broken = BulkLagrangian("broken", 1, base.density, base.d_phi, bad_d_grad)
    report = check_partials(broken, seed=0)
    assert not report.passed


def general_surface(surface, **partials):
    """A general :class:`SurfaceLagrangian` with ``surface``'s partials, the
    given ``partials`` in place of its own."""
    given = {f.name: getattr(surface, f.name) for f in dataclasses.fields(SurfaceLagrangian)}
    return SurfaceLagrangian(**{**given, **partials})


def test_check_partials_has_a_value_and_a_gradient_slot_per_density():
    """A density takes ``(phi, grad)``: the check has its two partials' slots."""
    for entry in CATALOG:
        slots = ({"d_phi", "d_grad"} if isinstance(entry, BulkLagrangian) else
                 {"gamma0_d_phi", "gamma0_d_grad", "gamma_hat_d_phi", "gamma_hat_d_grad"})
        assert set(check_partials(entry, trials=2, seed=0).max_err) == slots


def test_rate_partials_are_refused():
    """No density has a time rate, so no pair takes a rate partial."""
    bulk, surface = harmonic(), robin_surface(1.0)
    with pytest.raises(TypeError):
        BulkLagrangian("rate", 1, bulk.density, bulk.d_phi, bulk.d_grad, d_rate=bulk.d_phi)
    partials = [getattr(surface, f.name) for f in dataclasses.fields(SurfaceLagrangian)[2:]]
    with pytest.raises(TypeError):
        SurfaceLagrangian("rate", 1, *partials, gamma0_d_rate=surface.gamma0_d_phi)


def test_elastic_density_at_identity_strain():
    entry = linear_elastic(1.0, 1.0)
    grad = np.tile(np.eye(3), (4, 1, 1))
    dens = entry.density(np.zeros((4, 3)), grad)
    assert np.abs(dens - 7.5).max() <= 1e-14


def test_harmonic_quadratic_homogeneity():
    entry = harmonic()
    rng = np.random.default_rng(0)
    grad = rng.standard_normal((5, 1, 3))
    zeros = np.zeros((5, 1))
    ratio = entry.density(zeros, 2.0 * grad) - 4.0 * entry.density(zeros, grad)
    assert np.abs(ratio).max() <= 1e-14


def test_poisson_source_linear_term():
    entry = poisson_source(6.0)
    phi = np.ones((3, 1))
    dens_zero_grad = entry.density(phi, np.zeros((3, 1, 3)))
    assert np.abs(dens_zero_grad + 6.0).max() <= 1e-14
    assert np.abs(entry.d_phi(phi, np.zeros((3, 1, 3))) + 6.0).max() <= 1e-14


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
    d_phi = surf.gamma0_d_phi(values, np.zeros((len(values), 3, 3)))
    assert np.abs(d_phi).max() == 0.0


def test_restricted_pair_is_its_coefficients():
    """A restricted pair is stated once, by its coefficients: its densities
    cannot be replaced apart from them, and a replaced coefficient rebuilds
    the densities and the reduction together."""
    base = robin_surface(1.0)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(base, gamma0=lambda p, g: 3.0 * p[:, 0] ** 2,
                            gamma0_d_phi=lambda p, g: 6.0 * p)

    replaced = dataclasses.replace(base, gamma_bar=quadratic_potential(3.0))
    direct = robin_surface(3.0)
    assert check_partials(replaced, seed=0).max_err == check_partials(direct, seed=0).max_err
    phi = np.array([[0.5]])
    assert replaced.gamma0_d_phi(phi, np.zeros((1, 1, 3))).tolist() == [[1.5]]
    jet = evaluate_jet(AnalyticSurface.sphere(2.0), 0.8, 1.1)
    point = BoundaryPoint.from_jet(jet, np.array([0.5]), np.zeros((2, 1)))
    rhs = reduced_bc_rhs(point, coeffs_from_surface(replaced, point))
    assert rhs.tolist() == [-1.5]
    assert rhs.tobytes() == reduced_bc_rhs(point, coeffs_from_surface(direct, point)).tobytes()
    # the same partials in a general pair carry no coefficients to reduce
    with pytest.raises(ValueError, match="not in restricted form"):
        coeffs_from_surface(general_surface(replaced), point)


def test_restricted_coefficients_are_float_arrays_through_replace():
    surf = RestrictedSurface(2, chi=[[1, 0, 0], [0, 2, 0]], kappa_hat=(0, 0, 3))
    assert surf.chi.dtype == float and surf.chi.shape == (2, 3)
    assert surf.kappa_hat.dtype == float and surf.kappa_hat.shape == (3,)
    again = dataclasses.replace(surf, name="again")
    assert again.name == "again"
    assert np.array_equal(again.chi, surf.chi) and np.array_equal(again.kappa_hat, surf.kappa_hat)
    rng = np.random.default_rng(0)
    phi, grad = (rng.standard_normal(s) for s in ((5, 2), (5, 2, 3)))
    for name in ("gamma0", "gamma0_d_grad", "gamma_hat", "gamma_hat_d_phi"):
        assert np.array_equal(getattr(again, name)(phi, grad), getattr(surf, name)(phi, grad))


def test_plain_channels_leave_reduced_rhs_unchanged():
    # constant drift-channel coefficients drop out of the reduced relation
    jet = evaluate_jet(AnalyticSurface.sphere(2.0), 0.8, 1.1)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(2)
    dphi = rng.standard_normal((2, 2))
    point = BoundaryPoint.from_jet(jet, phi, dphi)

    bare = RestrictedSurface(2, gamma_bar=quadratic_potential(0.7, 2))
    extended = RestrictedSurface(
        2,
        gamma_bar=quadratic_potential(0.7, 2),
        chi_tilde=rng.standard_normal(3),
        gamma0_potential=quadratic_potential(1.3, 2),
        kappa_hat=rng.standard_normal(3),
        gamma1_potential=quadratic_potential(-0.4, 2),
    )
    lhs = reduced_bc_rhs(point, coeffs_from_surface(bare, point))
    rhs = reduced_bc_rhs(point, coeffs_from_surface(extended, point))
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
    bad = float("nan"), float("inf"), -float("inf")
    for make in (robin_surface, poisson_source, lambda x: linear_elastic(1.0, x),
                 lambda x: linear_elastic(x, 1.0)):
        for x in bad:
            with pytest.raises(ValueError, match="must be finite"):
                make(x)


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
    assert np.array_equal(surf.chi, 2.0 * np.eye(3))
    assert np.array_equal(surf.kappa, 0.3 * np.eye(3))
    assert abs(IsotropicSurfaceParams(2.0, 0.3).delta - 0.3) <= 1e-15


def test_isotropic_metadata_without_tension():
    surf = make_isotropic_surface(0.0, 0.0)
    assert not surf.chi.any() and not surf.kappa.any()
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
    phi = rng.standard_normal((30, 3))
    grad = rng.standard_normal((30, 3, 3))
    surf = make_isotropic_surface(1.7, 0.2)
    trace = np.einsum("mkk->m", grad)
    assert np.abs(surf.gamma0(phi, grad) - 1.7 * trace).max() <= 1e-14
    assert np.abs(surf.gamma_hat(phi, grad) - 0.2 * trace).max() <= 1e-14
    assert np.array_equal(surf.gamma0_d_grad(phi, grad),
                          np.broadcast_to(1.7 * np.eye(3), grad.shape))
    assert np.array_equal(surf.gamma_hat_d_grad(phi, grad),
                          np.broadcast_to(0.2 * np.eye(3), grad.shape))
    assert not surf.gamma0_d_phi(phi, grad).any()
    assert not surf.gamma_hat_d_phi(phi, grad).any()


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
