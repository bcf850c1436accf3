"""Analytic surfaces, differential-geometry jets, sampled meshes."""
from __future__ import annotations

import numpy as np
import pytest

from curvbc import (
    AnalyticSurface,
    adapted_coefficient_divergence,
    curvature_identity_residual,
    evaluate_jet,
    expansion_terms,
    mean_curvature,
    sample_mesh,
)

SPHERE = AnalyticSurface.sphere(2.0)
TORUS = AnalyticSurface.torus(2.0, 0.5)
CYLINDER = AnalyticSurface.cylinder(0.5, 2.0)


def test_domain_validation():
    with pytest.raises(ValueError):
        AnalyticSurface.sphere(0.0)
    with pytest.raises(ValueError):
        AnalyticSurface.torus(1.0, 1.5)
    with pytest.raises(ValueError):
        AnalyticSurface.torus(1.0, -0.1)
    with pytest.raises(ValueError):
        AnalyticSurface.cylinder(-1.0, 1.0)
    # nan passes every order test and inf the torus's: both are refused by name
    for build, params in ((AnalyticSurface.sphere, (np.nan,)),
                          (AnalyticSurface.sphere, (np.inf,)),
                          (AnalyticSurface.cylinder, (np.inf, 1.0)),
                          (AnalyticSurface.cylinder, (1.0, np.nan)),
                          (AnalyticSurface.torus, (np.inf, 1.0)),
                          (AnalyticSurface.torus, (2.0, np.nan))):
        with pytest.raises(ValueError, match="parameters must be finite"):
            build(*params)


def test_jet_metric_inverse():
    for surf, u, v in ((SPHERE, 0.8, 1.1), (TORUS, 0.9, 1.3), (CYLINDER, 0.3, 0.7)):
        jet = evaluate_jet(surf, u, v)
        assert np.abs(jet.metric_inv @ jet.metric - np.eye(2)).max() <= 1e-12


def test_jet_mean_curvature_is_half_trace():
    for surf, u, v in ((SPHERE, 0.8, 1.1), (TORUS, 0.9, 1.3)):
        jet = evaluate_jet(surf, u, v)
        assert abs(jet.mean_curvature - 0.5 * np.trace(jet.shape_mixed)) <= 1e-12


def test_jet_symmetries():
    jet = evaluate_jet(TORUS, 0.9, 1.3)
    assert np.abs(jet.second_form - jet.second_form.T).max() <= 1e-12
    assert np.abs(jet.christoffel - jet.christoffel.transpose(0, 2, 1)).max() <= 1e-12


def test_sphere_jet_values():
    jet = evaluate_jet(SPHERE, 0.8, 1.1)
    assert abs(jet.mean_curvature - 0.5) <= 1e-12
    assert abs(np.linalg.det(jet.shape_mixed) - 0.25) <= 1e-12
    assert jet.normal @ jet.position > 0  # outward
    assert np.abs(jet.d_H).max() <= 1e-12


def test_torus_jet_values():
    # outer equator of torus (2.0, 0.5): H = (1/r + cos v/(R + r cos v)) / 2
    jet = evaluate_jet(TORUS, 0.7, 0.0)
    assert abs(jet.mean_curvature - 1.2) <= 1e-12


def test_cylinder_jet_values():
    jet = evaluate_jet(CYLINDER, 0.3, 0.7)
    assert abs(jet.mean_curvature - 1.0) <= 1e-12


def test_jet_curvature_gradient_matches_fd():
    h = 1e-6
    for u, v in ((0.9, 1.3), (2.1, 4.0)):
        jet = evaluate_jet(TORUS, u, v)
        fd = np.array([
            (evaluate_jet(TORUS, u + h, v).mean_curvature
             - evaluate_jet(TORUS, u - h, v).mean_curvature) / (2 * h),
            (evaluate_jet(TORUS, u, v + h).mean_curvature
             - evaluate_jet(TORUS, u, v - h).mean_curvature) / (2 * h),
        ])
        assert np.abs(jet.d_H - fd).max() <= 1e-6 * (1.0 + np.abs(fd).max())


def test_sampled_sphere_mesh():
    mesh, jets = sample_mesh(AnalyticSurface.sphere(1.0), (32, 64))
    assert not mesh.boundary_vertex_mask().any()
    assert abs(mesh.total_area - 4 * np.pi) <= 0.01 * 4 * np.pi
    H = mean_curvature(mesh)
    assert np.abs(H - 1.0).max() <= 0.03
    missing = [i for i, jet in enumerate(jets) if jet is None]
    assert len(missing) == 2  # poles
    for i, jet in enumerate(jets):
        if jet is not None:
            assert abs(jet.mean_curvature - 1.0) <= 1e-12
            assert np.abs(jet.position - mesh.vertices[i]).max() <= 1e-12


def test_sampled_torus_identity_refines():
    coarse, jets = sample_mesh(TORUS, (24, 48))
    fine, _ = sample_mesh(TORUS, (48, 96))
    assert not coarse.boundary_vertex_mask().any()
    assert all(jet is not None for jet in jets)
    r_coarse = curvature_identity_residual(coarse)
    r_fine = curvature_identity_residual(fine)
    assert r_coarse <= 0.1
    assert r_fine < r_coarse


def test_sampled_cylinder_closed_with_caps():
    mesh, jets = sample_mesh(CYLINDER, (8, 24))
    assert not mesh.boundary_vertex_mask().any()
    assert sum(1 for jet in jets if jet is None) > 0  # cap fans carry no chart jet


def test_adapted_divergence_zero_and_linear():
    jet = evaluate_jet(TORUS, 0.9, 1.3)
    rng = np.random.default_rng(0)
    assert np.abs(adapted_coefficient_divergence(jet, np.zeros((2, 3)))).max() == 0.0

    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3))
    combined = adapted_coefficient_divergence(jet, a + 2.0 * b)
    split = (adapted_coefficient_divergence(jet, a)
             + 2.0 * adapted_coefficient_divergence(jet, b))
    assert np.abs(combined - split).max() <= 1e-12


def test_adapted_divergence_matches_chart_fd():
    # oracle: (1/sqrt g) d_A (sqrt g W^A) for frame-constant components
    u0, v0 = 0.9, 1.3
    rng = np.random.default_rng(1)
    c = rng.standard_normal((2, 3))

    def field(u, v, slot):
        jet = evaluate_jet(TORUS, u, v)
        w = c[slot, 0] * jet.tangents[0] + c[slot, 1] * jet.tangents[1] \
            - c[slot, 2] * jet.normal
        return w, np.sqrt(np.linalg.det(jet.metric))

    jet0 = evaluate_jet(TORUS, u0, v0)
    _, sqrt_g = field(u0, v0, 0)
    h = 1e-6
    fd = np.zeros(3)
    for slot, (du, dv) in enumerate(((h, 0.0), (0.0, h))):
        wp, sp = field(u0 + du, v0 + dv, slot)
        wm, sm = field(u0 - du, v0 - dv, slot)
        fd += (sp * wp - sm * wm) / (2 * h)
    fd /= sqrt_g
    out = adapted_coefficient_divergence(jet0, c)
    assert np.abs(out - fd).max() <= 1e-6 * (1.0 + np.abs(fd).max())


def test_expansion_terms_carry_curvature():
    jet = evaluate_jet(SPHERE, 0.8, 1.1)
    terms = expansion_terms(jet)
    assert abs(terms.mean_curvature - jet.mean_curvature) <= 1e-14
    assert abs(terms.rhs_normal_printed) <= 1e-14  # no coefficients supplied
