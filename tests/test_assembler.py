"""The shared simplex assembler off the sphere.

Every case runs on a radially perturbed ``(2, 3)`` ball built with
``TetMesh(...)`` from perturbed vertices, so the boundary mean curvature is
not constant and the curvature weights, corner areas and hat gradients of
each simplex differ.  The assembled gradients are checked against central
differences of the assembled action, and against an ``np.add.at``
formulation of the same discrete chain rule written out here.  The
assembled tangent is checked against gradient differences, and its pattern
against the sorted-keys builder it replaced, kept here as the reference;
only its memory guard runs on the unperturbed (3, 6) ball.
"""
from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvbc import (
    BulkLagrangian,
    FieldState,
    RestrictedSurface,
    SolveOptions,
    SurfaceLagrangian,
    TetMesh,
    TriangleMesh,
    action_gradient,
    assemble_action,
    build_ball_tetmesh,
    builtin_bulk,
    bulk_action,
    check_partials,
    euler_lagrange_residual,
    make_isotropic_surface,
    mean_curvature,
    natural_bc_residual,
    quadratic_potential,
    robin_surface,
    shape_operator,
    solve_stationary,
    surface_bc_terms,
)
from curvbc import variational_engine as ve
from curvbc.surface_mesh import _scatter
from curvbc.variational_engine import surface_action, surface_action_gradient

from test_variational_engine import counted, force_newton, quartic_bulk

SETTINGS = settings(max_examples=6, deadline=None, derandomize=True,
                    database=None)
SEEDS = st.integers(0, 2**16)
AMPLITUDES = st.floats(0.01, 0.05)


def perturbed_ball(seed, amplitude):
    """The (2, 3) ball with every vertex moved radially by up to ``amplitude``."""
    base = build_ball_tetmesh(1.0, surface_level=2, radial_layers=3)
    rng = np.random.default_rng(seed)
    radii = 1.0 + amplitude * rng.uniform(-1.0, 1.0, base.n_vertices)
    vertices = base.vertices * radii[:, None]
    ids = base.boundary_vertex_ids
    boundary = TriangleMesh(vertices[ids], base.boundary.triangles)
    return TetMesh(vertices, base.tets, boundary, ids)


# -- Lagrangians ---------------------------------------------------------------

def curved_robin():
    """Robin pair with a curvature-weighted potential and gradient couplings."""
    return RestrictedSurface(
        1, gamma_bar=quadratic_potential(1.0),
        chi=[[0.3, -0.2, 0.5]],
        gamma_hat_potential=quadratic_potential(0.4),
        kappa=[[-0.1, 0.4, 0.2]], name="curved_robin")


def _sq(a):
    """Squared norm of each sample's rows: (m, ...) -> (m,)."""
    a = a.reshape(len(a), -1)
    return np.einsum("mi,mi->m", a, a)


def grad_coupled_bulk(base, c=0.3):
    """``base`` plus ``0.5 c |phi|^2 |grad phi|^2``: the value and the
    gradient enter both partials."""
    return BulkLagrangian(
        base.name + "+coupled", base.n_components,
        density=lambda p, g: base.density(p, g) + 0.5 * c * _sq(p) * _sq(g),
        d_phi=lambda p, g: base.d_phi(p, g) + c * _sq(g)[:, None] * p,
        d_grad=lambda p, g: base.d_grad(p, g) + c * _sq(p)[:, None, None] * g)


def grad_coupled_surface(base, c0=0.2, c1=0.5):
    """``base`` plus ``0.5 c |phi|^2 |grad phi|^2`` in both channels, with
    ``c0`` in the plain one and ``c1`` in the curvature one."""

    def add(value, c):
        return lambda p, g: value(p, g) + 0.5 * c * _sq(p) * _sq(g)

    def add_d_phi(d_phi, c):
        return lambda p, g: d_phi(p, g) + c * _sq(g)[:, None] * p

    def add_d_grad(d_grad, c):
        return lambda p, g: d_grad(p, g) + c * _sq(p)[:, None, None] * g

    return SurfaceLagrangian(
        base.name + "+coupled", base.n_components,
        gamma0=add(base.gamma0, c0),
        gamma0_d_phi=add_d_phi(base.gamma0_d_phi, c0),
        gamma0_d_grad=add_d_grad(base.gamma0_d_grad, c0),
        gamma_hat=add(base.gamma_hat, c1),
        gamma_hat_d_phi=add_d_phi(base.gamma_hat_d_phi, c1),
        gamma_hat_d_grad=add_d_grad(base.gamma_hat_d_grad, c1))


# ``poisson_source(6) x curved_robin`` made non-affine in every partial
GRAD_COUPLED = (lambda: grad_coupled_bulk(builtin_bulk("poisson_source", source=6.0)),
                lambda: grad_coupled_surface(curved_robin()))


PAIRS = {
    "poisson_source x robin": (lambda: builtin_bulk("poisson_source", source=6.0),
                               lambda: robin_surface(1.0)),
    "linear_elastic x isotropic": (lambda: builtin_bulk("linear_elastic", lam=1.0, mu=1.0),
                                   lambda: make_isotropic_surface(1.0, 0.1)),
    "poisson_source x curved_robin": (lambda: builtin_bulk("poisson_source", source=6.0),
                                      curved_robin),
}


def drift_surface():
    """Restricted pair with drift terms in both channels: ``chi_tilde . grad
    gamma0_potential(phi)`` and ``kappa_hat . grad gamma1_potential(phi)``
    couple the field to its gradient."""
    return RestrictedSurface(
        1, gamma_bar=quadratic_potential(1.0),
        chi_tilde=[0.4, -0.3, 0.2], gamma0_potential=quadratic_potential(0.7),
        kappa_hat=[-0.2, 0.5, 0.1], gamma1_potential=quadratic_potential(0.3),
        name="drift")


def advected_bulk(b=(0.3, -0.5, 0.2), coupling=((1.0, 0.5), (-0.3, 0.8))):
    """Quadratic two-component bulk ``0.5 |grad phi|^2 + 0.5 |phi|^2 + phi .
    A (b . grad phi)``; the non-symmetric ``A`` couples each component's
    value to the other's gradient."""
    b, a = np.asarray(b, dtype=float), np.asarray(coupling, dtype=float)

    def advection(grad):
        return np.einsum("cd,mdj,j->mc", a, grad, b)

    return BulkLagrangian(
        "advected", 2,
        density=lambda p, g: (0.5 * np.einsum("mkj,mkj->m", g, g)
                              + 0.5 * np.einsum("mk,mk->m", p, p)
                              + np.einsum("mc,mc->m", p, advection(g))),
        d_phi=lambda p, g: p + advection(g),
        d_grad=lambda p, g: g + np.einsum("mc,cd,j->mdj", p, a, b))


# the quadratic pairs the assembled tangent is checked on
TANGENT_PAIRS = {
    **PAIRS,
    "poisson_source x drift": (lambda: builtin_bulk("poisson_source", source=6.0),
                               drift_surface),
    "advected x robin": (advected_bulk, lambda: robin_surface(1.0, 2)),
    "poisson_source x robin, k = 2": (
        lambda: builtin_bulk("poisson_source", source=6.0, n_components=2),
        lambda: robin_surface(1.0, 2)),
    # unequal moduli: the diagonal blocks' two halves round differently
    "linear_elastic(0.7, 1.3) x isotropic(1, 0.3)": (
        lambda: builtin_bulk("linear_elastic", lam=0.7, mu=1.3),
        lambda: make_isotropic_surface(1.0, 0.3)),
}


# the pairs the residual reports and the actions are checked on: a catalog
# pair, and the same pair made non-affine in every partial
REPORT_PAIRS = {
    "poisson_source x curved_robin": PAIRS["poisson_source x curved_robin"],
    "grad_coupled x grad_coupled": GRAD_COUPLED,
}


def random_state(mesh, k, rng):
    return FieldState(rng.standard_normal((mesh.n_vertices, k)))


# -- the np.add.at formulation ---------------------------------------------------

def ref_pointwise(simplices, hat, values):
    m, c = simplices.shape
    phi_c = values[simplices]
    grad = np.einsum("tck,tcj->tkj", phi_c, hat)
    return phi_c.reshape(m * c, values.shape[1]), np.repeat(grad, c, axis=0)


def ref_corner(n, simplices, arr):
    out = np.zeros((n,) + arr.shape[1:])
    np.add.at(out, simplices.ravel(), arr)
    return out


def ref_grad(n, simplices, hat, arr):
    m, c = simplices.shape
    k = arr.shape[1]
    per = arr.reshape(m, c, k, 3).sum(axis=1)
    corner = np.einsum("tkj,tcj->tck", per, hat)
    return ref_corner(n, simplices, corner.reshape(m * c, k))


def ref_bulk_gradient(mesh, bulk, values):
    args = ref_pointwise(mesh.tets, mesh.tet_gradients, values)
    w = np.repeat(mesh.tet_volumes / 4.0, 4)
    n = mesh.n_vertices
    return (ref_corner(n, mesh.tets, bulk.d_phi(*args) * w[:, None])
            + ref_grad(n, mesh.tets, mesh.tet_gradients,
                       bulk.d_grad(*args) * w[:, None, None]))


def ref_surface_channels(B, surface, values, H):
    """Scattered channels P, G, Q, R of the plain and curvature terms."""
    args = ref_pointwise(B.triangles, B.hat_gradients, values)
    w = B.corner_areas.ravel()
    wc = -2.0 * H[B.triangles].ravel() * w
    n, tri, hat = B.n_vertices, B.triangles, B.hat_gradients
    return (ref_corner(n, tri, surface.gamma0_d_phi(*args) * w[:, None]),
            ref_grad(n, tri, hat, surface.gamma0_d_grad(*args) * w[:, None, None]),
            ref_corner(n, tri, surface.gamma_hat_d_phi(*args) * wc[:, None]),
            ref_grad(n, tri, hat, surface.gamma_hat_d_grad(*args) * wc[:, None, None]))


def ref_action_gradient(mesh, bulk, surface, state):
    ids = mesh.boundary_vertex_ids
    out = ref_bulk_gradient(mesh, bulk, state.values)
    H = mean_curvature(mesh.boundary)
    np.add.at(out, ids, sum(ref_surface_channels(mesh.boundary, surface, state.values[ids], H)))
    return out


def ref_natural_bc(mesh, bulk, surface, state):
    B = mesh.boundary
    ids = mesh.boundary_vertex_ids
    a = B.vertex_areas[:, None]
    H = mean_curvature(B)
    n, tri = B.n_vertices, B.triangles
    flux_weak = ref_bulk_gradient(mesh, bulk, state.values)[ids] / a
    bvals = state.values[ids]
    P, G, Q, R = ref_surface_channels(B, surface, bvals, H)
    terms = {"gamma0_phi": -P / a, "gamma0_div": -G / a,
             "curv_phi": -Q / a, "curv_div": -R / a}
    args = ref_pointwise(tri, B.hat_gradients, bvals)
    w = B.corner_areas.ravel()
    dg = surface.gamma_hat_d_grad(*args) * w[:, None, None]
    R_frozen = ref_grad(n, tri, B.hat_gradients, dg)
    W = ref_corner(n, tri, dg) / a[:, :, None]
    terms["curv_div_frozen"] = 2.0 * H[:, None] * (R_frozen / a)
    terms["grad_H_term"] = -2.0 * np.einsum("vkj,vj->vk", W, shape_operator(B).grad_H)
    rhs = terms["gamma0_phi"] + terms["gamma0_div"] + terms["curv_phi"] + terms["curv_div"]
    args_b = ref_pointwise(mesh.tets, mesh.tet_gradients, state.values)
    wb = np.repeat(mesh.tet_volumes / 4.0, 4)
    mom = ref_corner(mesh.n_vertices, mesh.tets, bulk.d_grad(*args_b) * wb[:, None, None])
    mom = mom[ids] / mesh.dual_volumes[ids][:, None, None]
    return {"residual": flux_weak - rhs, "flux_weak": flux_weak, "rhs": rhs,
            "terms": terms,
            "flux_pointwise": np.einsum("vkj,vj->vk", mom, B.vertex_normals)}


def assert_close(actual, expected, scale=None, rtol=1e-12):
    scale = np.abs(expected).max() if scale is None else scale
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rtol * scale


# -- tests -----------------------------------------------------------------------

@given(seed=SEEDS, amplitude=AMPLITUDES)
@SETTINGS
def test_perturbed_ball_is_off_the_sphere(seed, amplitude):
    mesh = perturbed_ball(seed, amplitude)
    H = mesh.boundary.vertex_mean_curvature
    assert np.ptp(H) > 0.1
    assert mesh.tet_volumes.min() > 0


@pytest.mark.parametrize("pair", ["poisson_source x robin", "linear_elastic x isotropic"])
@given(seed=SEEDS, amplitude=AMPLITUDES)
@SETTINGS
def test_gradient_matches_central_differences(pair, seed, amplitude):
    mesh = perturbed_ball(seed, amplitude)
    bulk, surface = (make() for make in PAIRS[pair])
    k = bulk.n_components
    rng = np.random.default_rng(seed)
    state = random_state(mesh, k, rng)
    grad = action_gradient(mesh, bulk, surface, state)
    # a full direction, one on the boundary only, one boundary coordinate
    full = rng.standard_normal(state.values.shape)
    on_boundary = np.zeros_like(full)
    on_boundary[mesh.boundary_vertex_ids] = full[mesh.boundary_vertex_ids]
    single = np.zeros_like(full)
    single[mesh.boundary_vertex_ids[seed % mesh.boundary.n_vertices], seed % k] = 1.0
    h = 1e-3
    for d in (full, on_boundary, single):
        plus = assemble_action(mesh, bulk, surface, FieldState(state.values + h * d)).total
        minus = assemble_action(mesh, bulk, surface, FieldState(state.values - h * d)).total
        fd = (plus - minus) / (2.0 * h)
        assert abs(np.vdot(grad, d) - fd) <= 1e-8 * (1.0 + abs(fd))


@pytest.mark.parametrize("pair", sorted({**PAIRS, **REPORT_PAIRS}))
@given(seed=SEEDS, amplitude=AMPLITUDES)
@SETTINGS
def test_gradient_equals_add_at_reference(pair, seed, amplitude):
    """The gradient and the Euler-Lagrange rows are the np.add.at chain rule."""
    mesh = perturbed_ball(seed, amplitude)
    bulk, surface = (make() for make in {**PAIRS, **REPORT_PAIRS}[pair])
    state = random_state(mesh, bulk.n_components, np.random.default_rng(seed))
    assert_close(action_gradient(mesh, bulk, surface, state),
                 ref_action_gradient(mesh, bulk, surface, state))
    expected = ref_bulk_gradient(mesh, bulk, state.values) / mesh.dual_volumes[:, None]
    assert_close(euler_lagrange_residual(mesh, bulk, state), expected)


@pytest.mark.parametrize("pair", REPORT_PAIRS)
@given(seed=SEEDS, amplitude=AMPLITUDES)
@SETTINGS
def test_bc_report_equals_add_at_reference(pair, seed, amplitude):
    mesh = perturbed_ball(seed, amplitude)
    bulk, surface = (make() for make in REPORT_PAIRS[pair])
    state = random_state(mesh, 1, np.random.default_rng(seed))
    report = natural_bc_residual(mesh, bulk, surface, state)
    expected = ref_natural_bc(mesh, bulk, surface, state)
    # residual = flux_weak - rhs cancels; measure it on the scale of its parts
    scale = max(np.abs(expected["flux_weak"]).max(), np.abs(expected["rhs"]).max())
    assert_close(report.residual, expected["residual"], scale)
    assert_close(report.flux_weak, expected["flux_weak"])
    assert_close(report.rhs, expected["rhs"], scale)
    assert sorted(report.terms) == sorted(expected["terms"])
    for name, value in expected["terms"].items():
        assert_close(report.terms[name], value, scale)
    assert_close(report.flux_pointwise, expected["flux_pointwise"])


@pytest.mark.parametrize("pair", REPORT_PAIRS)
@given(seed=SEEDS, amplitude=AMPLITUDES)
@SETTINGS
def test_surface_bc_terms_equal_report(pair, seed, amplitude):
    mesh = perturbed_ball(seed, amplitude)
    bulk, surface = (make() for make in REPORT_PAIRS[pair])
    state = random_state(mesh, 1, np.random.default_rng(seed))
    rhs, terms = surface_bc_terms(mesh.boundary, surface,
                                  FieldState(state.values[mesh.boundary_vertex_ids]))
    report = natural_bc_residual(mesh, bulk, surface, state)
    assert np.array_equal(rhs, report.rhs)
    assert list(terms) == list(report.terms)
    for name, value in terms.items():
        assert np.array_equal(value, report.terms[name])


def test_surface_bc_terms_rejects_bad_states():
    B = perturbed_ball(2, 0.03).boundary
    with pytest.raises(ValueError, match="component count mismatch"):
        surface_bc_terms(B, curved_robin(), FieldState(np.zeros((B.n_vertices, 2))))
    with pytest.raises(ValueError, match="wrong number of vertices"):
        surface_bc_terms(B, curved_robin(), FieldState(np.zeros((B.n_vertices + 1, 1))))


@pytest.mark.parametrize("pair", REPORT_PAIRS)
def test_actions_equal_the_weighted_density_dot(pair):
    """The sums of the density channels are the ``weights . density`` dots
    of the corner rows, up to the roundoff of their summation order."""
    mesh = perturbed_ball(13, 0.04)
    bulk, surface = (make() for make in REPORT_PAIRS[pair])
    state = random_state(mesh, 1, np.random.default_rng(13))
    B, ids = mesh.boundary, mesh.boundary_vertex_ids
    w = B.corner_areas.ravel()
    args = ref_pointwise(B.triangles, B.hat_gradients, state.values[ids])
    expected = [
        mesh.corner_weights.ravel() @ bulk.density(*ref_pointwise(
            mesh.tets, mesh.tet_gradients, state.values)),
        w @ surface.gamma0(*args),
        (-2.0 * mean_curvature(B)[B.triangles].ravel() * w) @ surface.gamma_hat(*args)]
    action = assemble_action(mesh, bulk, surface, state)
    actual = [[bulk_action(mesh, bulk, state), action.bulk],
              *zip(surface_action(B, surface, state.values[ids]),
                   (action.surface_plain, action.surface_curvature))]
    for value, got in zip(expected, actual):
        assert abs(value) > 0.1
        for g in got:
            assert abs(g - value) <= 1e-13 * abs(value)
    assert abs(action.total - sum(expected)) <= 1e-13 * sum(map(abs, expected))


def test_mean_curvature_cached_once_per_mesh():
    B = perturbed_ball(5, 0.03).boundary
    H = B.vertex_mean_curvature
    assert H is B.vertex_mean_curvature
    assert np.array_equal(H, mean_curvature(B))
    assert not H.flags.writeable


@given(data=st.data())
@SETTINGS
def test_scatter_equals_add_at(data):
    n = data.draw(st.integers(1, 30))
    shape = data.draw(st.sampled_from([(40,), (10, 4), (3, 7, 2)]))
    tail = data.draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    rng = np.random.default_rng(data.draw(SEEDS))
    index = rng.integers(0, n, shape)
    values = rng.standard_normal(shape + tail)
    expected = np.zeros((n,) + tail)
    np.add.at(expected, index, values)
    assert np.array_equal(_scatter(index, n, values), expected)


# -- blocked assembly ------------------------------------------------------------

def test_blocks_change_no_bits(monkeypatch):
    """Many small blocks give the bytes of one whole-mesh block."""
    mesh = perturbed_ball(11, 0.04)
    rng = np.random.default_rng(11)
    static = random_state(mesh, 1, rng)
    coupled_bulk, coupled_surface = (make() for make in GRAD_COUPLED)
    calls = Counter()
    bulk = counted(builtin_bulk("poisson_source", source=6.0), calls)
    surface = curved_robin()

    def counting(run):
        calls.clear()
        return run(), +calls

    def report_fields(case, report):
        out = {f"{case}.{name}": getattr(report, name)
               for name in ("residual", "flux_weak", "rhs", "flux_pointwise",
                            "boundary_vertex_ids", "vertex_areas")}
        out.update((f"{case}.terms.{name}", v) for name, v in report.terms.items())
        return out

    def results():
        gradient, gradient_calls = counting(lambda: action_gradient(mesh, bulk, surface, static))
        action, action_calls = counting(lambda: bulk_action(mesh, bulk, static))
        report, report_calls = counting(lambda: natural_bc_residual(mesh, bulk, surface, static))
        out = {"action_gradient": gradient, "bulk_action": np.array(action),
               "euler_lagrange": euler_lagrange_residual(mesh, coupled_bulk, static),
               **report_fields("static", report),
               **report_fields("coupled", natural_bc_residual(
                   mesh, coupled_bulk, coupled_surface, static))}
        return out, gradient_calls, action_calls, report_calls

    assert mesh.n_tets <= ve._BLOCK
    whole, *_ = results()
    block = 37
    assert mesh.n_tets % block and mesh.boundary.n_faces % block
    monkeypatch.setattr(ve, "_BLOCK", block)
    blocked, gradient_calls, action_calls, report_calls = results()
    assert list(blocked) == list(whole)
    for name, value in whole.items():
        assert blocked[name].dtype == value.dtype and blocked[name].shape == value.shape, name
        assert blocked[name].tobytes() == value.tobytes(), name
    per_pass = -(-mesh.n_tets // block)
    assert gradient_calls == Counter(d_phi=per_pass, d_grad=per_pass)
    assert action_calls == Counter(density=per_pass)
    # the report's bulk pass runs on the tets with a boundary vertex only
    touching = np.count_nonzero(~mesh.interior_mask[mesh.tets].all(axis=1))
    per_report = -(-touching // block)
    assert report_calls == Counter(d_phi=per_report, d_grad=per_report)


def whole_mesh_report(mesh, bulk, surface, state):
    """Reference report whose bulk channels run over every tet, as the
    report's did before they ran on the boundary layer."""
    B, ids = mesh.boundary, mesh.boundary_vertex_ids
    rhs, terms = surface_bc_terms(B, surface, FieldState(state.values[ids]))
    weights = mesh.corner_weights
    g_bulk, mom = ve._simplex_pass(
        mesh.tets, mesh.tet_gradients, state.values,
        [(weights, bulk.d_phi, bulk.d_grad), (weights, bulk.d_grad, None)])
    flux_weak = g_bulk[ids] / B.vertex_areas[:, None]
    mom = mom[ids].reshape(-1, state.n_components, 3) / mesh.dual_volumes[ids][:, None, None]
    return {"residual": flux_weak - rhs, "flux_weak": flux_weak, "rhs": rhs,
            "flux_pointwise": np.einsum("vkj,vj->vk", mom, B.vertex_normals),
            **{f"terms.{name}": v for name, v in terms.items()}}


BOUNDARY_LAYER_CASES = {
    "default ball, k = 1": (
        lambda: build_ball_tetmesh(1.0), 1,
        lambda: (builtin_bulk("poisson_source", source=6.0), robin_surface(1.0))),
    "(3, 6) ball, k = 3": (
        lambda: build_ball_tetmesh(1.0, surface_level=3, radial_layers=6), 3,
        lambda: (builtin_bulk("linear_elastic", lam=1.0, mu=1.0),
                 make_isotropic_surface(1.0, 0.1))),
    "permuted ball, k = 1": (lambda: permuted_ball(2), 1,
                             lambda: (builtin_bulk("poisson_source", source=6.0),
                                      curved_robin())),
}


@pytest.mark.parametrize("case", list(BOUNDARY_LAYER_CASES))
def test_report_on_the_boundary_layer_keeps_the_bits(case):
    """The report's bulk pass on the tets with a boundary vertex gives the
    bytes of the whole-mesh pass, for the case's pair and for that pair
    made non-affine in every partial."""
    build, k, pair = BOUNDARY_LAYER_CASES[case]
    mesh = build()
    layer = mesh.boundary_layer
    assert 0 < len(layer) < mesh.n_tets
    assert np.array_equal(layer, np.flatnonzero(~mesh.interior_mask[mesh.tets].all(axis=1)))
    assert layer is mesh.boundary_layer
    rng = np.random.default_rng(k)
    bulk, surface = pair()
    states = {"catalog": (bulk, surface, random_state(mesh, k, rng)),
              "coupled": (grad_coupled_bulk(bulk), grad_coupled_surface(surface),
                          random_state(mesh, k, rng))}
    for kind, (b, s, state) in states.items():
        report = natural_bc_residual(mesh, b, s, state)
        expected = whole_mesh_report(mesh, b, s, state)
        actual = {name: getattr(report, name)
                  for name in ("residual", "flux_weak", "rhs", "flux_pointwise")}
        actual.update((f"terms.{name}", v) for name, v in report.terms.items())
        assert list(actual) == list(expected), kind
        for name, value in expected.items():
            assert actual[name].shape == value.shape, (kind, name)
            assert actual[name].tobytes() == value.tobytes(), (kind, name)


# -- assembled tangent -------------------------------------------------------------

# pairs that are not quadratic: their tangent is taken at a state
NON_AFFINE_PAIRS = {
    "quartic x robin": (quartic_bulk, lambda: robin_surface(1.0)),
    "grad_coupled x grad_coupled": GRAD_COUPLED,
}
AT_STATE = " at a state"


@pytest.mark.parametrize("block", [None, 600])
@pytest.mark.parametrize("pair", sorted(TANGENT_PAIRS) + [
    name + AT_STATE for name in sorted(TANGENT_PAIRS) + sorted(NON_AFFINE_PAIRS)])
def test_tangent_equals_gradient_difference(pair, block, monkeypatch):
    """The assembled tangent applied to x is g(x) - g(0), for any block size.
    At a random state s, the difference tangent of a quadratic pair equals
    its constant tangent, and that of any other pair applied to x is
    ``(g(s + e x) - g(s - e x)) / 2 e``."""
    mesh = perturbed_ball(7, 0.04)
    name = pair.removesuffix(AT_STATE)
    bulk, surface = (make() for make in {**TANGENT_PAIRS, **NON_AFFINE_PAIRS}[name])
    rng = np.random.default_rng(7)
    x = rng.standard_normal((mesh.n_vertices, bulk.n_components))
    if block is not None:
        assert mesh.n_tets > block
        monkeypatch.setattr(ve, "_BLOCK", block)
    if name == pair:
        expected = (action_gradient(mesh, bulk, surface, FieldState(x))
                    - action_gradient(mesh, bulk, surface, FieldState(np.zeros_like(x)))).ravel()
        assert_close(ve._assemble_tangent(mesh, bulk, surface)(x.ravel()), expected)
        return
    state = random_state(mesh, bulk.n_components, rng)
    tangent = ve._assemble_tangent(mesh, bulk, surface, state)
    if name in TANGENT_PAIRS:
        # measured: at most 6.5e-12
        assert_close(tangent.data, ve._assemble_tangent(mesh, bulk, surface).data, rtol=1e-10)
        return

    def gradient(values):
        return action_gradient(mesh, bulk, surface, FieldState(values)).ravel()
    e = 1e-5
    # measured: at most 2.6e-11
    assert_close(tangent(x.ravel()),
                 (gradient(state.values + e * x) - gradient(state.values - e * x)) / (2 * e),
                 rtol=1e-9)


@pytest.mark.parametrize("k", [1, 3])
def test_grad_coupled_partials_are_exact_and_not_affine(k):
    """The coupled terms have exact partials, and every partial of the
    coupled pair, in the bulk and in both surface channels, is non-affine."""
    bulk = grad_coupled_bulk(builtin_bulk("harmonic", n_components=k))
    surface = grad_coupled_surface(robin_surface(1.0, k))
    for spec in (bulk, surface):
        report = check_partials(spec, trials=5, seed=k)
        assert report.passed, str(report)
    jacobians = ve._probe_partials(bulk, surface)
    assert len(jacobians) == 6 and all(j is None for j in jacobians.values())


def test_tangent_pairs_reach_cross_blocks():
    """The drift surface and the advected bulk have non-zero phi-grad blocks."""
    for partial, k in ((drift_surface().gamma0_d_phi, 1), (advected_bulk().d_phi, 2)):
        assert np.abs(ve._probe_jacobian(partial, k)[:, k:]).max() > 0
    for partial, k in ((drift_surface().gamma_hat_d_grad, 1), (advected_bulk().d_grad, 2)):
        assert np.abs(ve._probe_jacobian(partial, k)[:, :k]).max() > 0


def reference_pattern(tets, n):
    """Sorted CSR keys ``row * n + col`` of the vertices that share a tet,
    each vertex with itself included: the key builder the edge-indexed
    pattern replaced."""
    m = len(tets)
    edges = np.empty(6 * m, dtype=np.int64)
    for s, (i, j) in enumerate(zip(*np.triu_indices(4, 1))):
        a, b = tets[:, i], tets[:, j]
        edges[s * m:(s + 1) * m] = np.minimum(a, b) * n + np.maximum(a, b)
    edges.sort()
    v, w = np.divmod(edges[np.r_[True, edges[1:] != edges[:-1]]], n)
    keys = np.r_[v, w, :n] * n + np.r_[w, v, :n]
    keys.sort()
    return keys


def permuted_ball_inputs(seed):
    """The ``TetMesh`` arguments of :func:`permuted_ball`; about half of its
    tets come negatively oriented."""
    mesh = perturbed_ball(seed, 0.04)
    rng = np.random.default_rng(seed)
    old = rng.permutation(mesh.n_vertices)        # new vertex j is old vertex old[j]
    label = np.argsort(old)
    tets = label[mesh.tets[rng.permutation(mesh.n_tets)]]
    tets = np.take_along_axis(tets, rng.permuted(np.tile(np.arange(4), (len(tets), 1)), axis=1),
                              axis=1)
    return mesh.vertices[old], tets, mesh.boundary, label[mesh.boundary_vertex_ids]


def permuted_ball(seed):
    """The perturbed (2, 3) ball with its tets, their corners and the vertex
    labels randomly permuted."""
    return TetMesh(*permuted_ball_inputs(seed))


@pytest.mark.parametrize("seed", [0, 1])
def test_vertex_pattern_equals_sorted_keys(seed):
    """The vertex CSR built from the unique edges is the sorted-keys CSR, and
    the edge ids of the tets' and the boundary triangles' corner pairs, from
    the same sort, are those a search of the unique edges finds."""
    mesh = permuted_ball(seed)
    n = mesh.n_vertices
    triangles = mesh.boundary_vertex_ids[mesh.boundary.triangles]
    edges, starts, cols, upper, lower, diagonal, edge_ids = ve._tangent_pattern(
        [mesh.tets, triangles], n)
    keys = reference_pattern(mesh.tets, n)
    np.testing.assert_array_equal(starts, np.searchsorted(keys, np.arange(n + 1) * n))
    np.testing.assert_array_equal(cols, keys % n)
    row = np.repeat(np.arange(n), np.diff(starts))
    assert (np.diff(cols)[row[1:] == row[:-1]] > 0).all()
    np.testing.assert_array_equal(row[diagonal], np.arange(n))
    np.testing.assert_array_equal(cols[diagonal], np.arange(n))
    v, w = np.divmod(edges, n)
    assert (v < w).all() and (np.diff(edges) > 0).all()
    for at, r, col in ((upper, v, w), (lower, w, v)):
        np.testing.assert_array_equal(row[at], r)
        np.testing.assert_array_equal(cols[at], col)
    for simplices, ids in zip((mesh.tets, triangles), edge_ids):
        i, j = np.triu_indices(simplices.shape[1], 1)
        a, b = simplices[:, i].T, simplices[:, j].T
        assert ids.dtype == np.int32
        np.testing.assert_array_equal(
            ids, np.searchsorted(edges, np.minimum(a, b) * n + np.maximum(a, b)))


@pytest.mark.parametrize("pair", ["poisson_source x robin", "poisson_source x robin, k = 2",
                                  "linear_elastic(0.7, 1.3) x isotropic(1, 0.3)",
                                  "advected x robin"])
def test_tangent_layout_equals_sorted_keys(pair):
    """The tangent is the sorted-keys vertex CSR with a (k, k) block per
    entry, each block is exactly the transpose of its mirror block, and it
    is still g(x) - g(0) on a relabelled mesh."""
    mesh = permuted_ball(3)
    n = mesh.n_vertices
    bulk, surface = (make() for make in TANGENT_PAIRS[pair])
    k = bulk.n_components
    tangent = ve._assemble_tangent(mesh, bulk, surface)
    keys = reference_pattern(mesh.tets, n)
    np.testing.assert_array_equal(tangent.starts, np.searchsorted(keys, np.arange(n) * n))
    np.testing.assert_array_equal(tangent.cols, keys % n)
    assert tangent.data.shape == (k, k, len(keys))
    transposed = tangent.cols * n + keys // n
    mirror = np.searchsorted(keys, transposed)
    np.testing.assert_array_equal(keys[mirror], transposed)
    assert tangent.data[:, :, mirror].transpose(1, 0, 2).tobytes() == tangent.data.tobytes()
    x = np.random.default_rng(3).standard_normal((mesh.n_vertices, k))
    expected = (action_gradient(mesh, bulk, surface, FieldState(x))
                - action_gradient(mesh, bulk, surface, FieldState(np.zeros_like(x)))).ravel()
    assert_close(tangent(x.ravel()), expected)


def reference_apply(tangent, x):
    """The tangent apply with one gather per block entry, k^2 in all."""
    k = len(tangent.data)
    X = x.reshape(-1, k).T
    out = np.empty((len(tangent.starts), k))
    for a in range(k):
        row = tangent.data[a, 0] * X[0][tangent.cols]
        for i in range(1, k):
            row += tangent.data[a, i] * X[i][tangent.cols]
        out[:, a] = np.add.reduceat(row, tangent.starts)
    return out.ravel()


@pytest.mark.parametrize("pair", ["poisson_source x robin", "poisson_source x robin, k = 2",
                                  "linear_elastic(0.7, 1.3) x isotropic(1, 0.3)"])
def test_tangent_apply_keeps_the_bits_of_per_entry_gathers(pair):
    """Gathering each input component once changes no bit at k = 1, 2, 3."""
    mesh = perturbed_ball(7, 0.04)
    bulk, surface = (make() for make in TANGENT_PAIRS[pair])
    tangent = ve._assemble_tangent(mesh, bulk, surface)
    x = np.random.default_rng(7).standard_normal(mesh.n_vertices * bulk.n_components)
    assert tangent(x).tobytes() == reference_apply(tangent, x).tobytes()


# -- the tangent preconditioner -------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_aggregates_partition_the_vertices_whatever_their_labels(seed):
    """The aggregates partition the vertices, and relabelling the vertices,
    the tets and their corners relabels only the aggregates."""
    mesh, relabelled = perturbed_ball(seed, 0.04), permuted_ball(seed)
    n = mesh.n_vertices
    partitions = []
    for m in (mesh, relabelled):
        _, starts, cols, *_ = ve._tangent_pattern([m.tets], n)
        labels, count = ve._aggregates(m, starts[:-1], cols)
        assert labels.shape == (n,)
        np.testing.assert_array_equal(np.unique(labels), np.arange(count))
        partitions.append((labels, count))
    # vertex j of the relabelled ball is vertex old[j] of the ball (distinct points)
    old = np.empty(n, dtype=np.int64)
    old[np.lexsort(relabelled.vertices.T)] = np.lexsort(mesh.vertices.T)
    np.testing.assert_array_equal(relabelled.vertices, mesh.vertices[old])
    (labels, count), (relabelled_labels, relabelled_count) = partitions
    assert relabelled_count == count
    assert len(set(zip(relabelled_labels.tolist(), labels[old].tolist()))) == count


def test_aggregates_are_shells_by_patches_on_the_ball():
    """On the (2, 3) ball the layers are the shells: 3 shells of 26 patches
    (the 3 x 3 x 3 grid's centre cell holds no boundary vertex) and the centre."""
    mesh = build_ball_tetmesh(1.0, surface_level=2, radial_layers=3)
    _, starts, cols, *_ = ve._tangent_pattern([mesh.tets], mesh.n_vertices)
    labels, count = ve._aggregates(mesh, starts[:-1], cols)
    assert count == 3 * 26 + 1
    radius = np.linalg.norm(mesh.vertices, axis=1)
    for label in range(count):
        assert np.ptp(radius[labels == label]) <= 1e-12


@pytest.mark.parametrize("pair", ["poisson_source x robin", "linear_elastic x isotropic"])
def test_coarse_matrix_equals_dense_product(pair):
    """``E`` summed from the blocks is the dense ``Z^T K Z``, at k = 1 and 3."""
    mesh = perturbed_ball(7, 0.04)
    bulk, surface = (make() for make in PAIRS[pair])
    k, n = bulk.n_components, mesh.n_vertices
    tangent = ve._assemble_tangent(mesh, bulk, surface)
    labels, count = ve._aggregates(mesh, tangent.starts, tangent.cols)
    K = np.column_stack([tangent(e) for e in np.eye(n * k)])
    Z = np.zeros((n * k, count * k))
    Z[np.arange(n * k), (labels[:, None] * k + np.arange(k)).ravel()] = 1.0
    assert_close(ve._coarse_matrix(tangent, labels, count), Z.T @ K @ Z)


@pytest.mark.parametrize("pair, gauge", [("poisson_source x robin", "none"),
                                         ("linear_elastic x isotropic", "rigid")])
def test_tangent_steps_and_newton_steps_agree(pair, gauge, monkeypatch):
    """The two tangents, the constant one and the difference one at every
    step (every partial made to probe as not affine), reach the same
    solution."""
    mesh = perturbed_ball(7, 0.04)
    bulk, surface = (make() for make in PAIRS[pair])
    options = SolveOptions(gauge=gauge)
    step, step_log = solve_stationary(mesh, bulk, surface, options=options)
    force_newton(monkeypatch)
    newton, newton_log = solve_stationary(mesh, bulk, surface, options=options)
    assert (step_log.method, newton_log.method) == ("cg", "newton")
    assert step_log.converged and newton_log.converged
    assert np.abs(step.values - newton.values).max() <= 1e-8


# tracemalloc peak over the live mesh of the (3, 6) ball build from (m, 3, 3)
# gathers, 7.72 over 3.84 MB: a fixed bound for the assembly, which a leaner
# build does not lower
BUILD_PEAK_RATIO = 2.01


@pytest.mark.parametrize("pair", ["poisson_source x robin", "linear_elastic x isotropic"])
def test_tangent_assembly_peak_below_mesh_build(pair):
    """Above the live mesh, the assembly's tracemalloc peak stays below
    ``BUILD_PEAK_RATIO`` times the mesh, the peak the mesh build once had,
    so the assembly does not set a solve's peak memory, at k = 1 and at
    k = 3."""
    bulk, surface = (make() for make in PAIRS[pair])
    build_ball_tetmesh(1.0, surface_level=2, radial_layers=3)   # first-call imports
    tracemalloc.start()
    try:
        mesh = build_ball_tetmesh(1.0, surface_level=3, radial_layers=6)
        live, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ve._assemble_tangent(mesh, bulk, surface)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - live < BUILD_PEAK_RATIO * live


def test_newton_converges_on_the_perturbed_ball(caplog, monkeypatch):
    """Rigid-gauge Newton on the perturbed ball meets the tolerance: the
    gradient norm keeps falling where the action's decrease is below its
    roundoff."""
    mesh = perturbed_ball(7, 0.04)
    bulk, surface = (make() for make in PAIRS["linear_elastic x isotropic"])
    force_newton(monkeypatch)
    with caplog.at_level("WARNING", logger="curvbc"):
        _, log = solve_stationary(mesh, bulk, surface, options=SolveOptions(gauge="rigid"))
    assert log.method == "newton" and log.converged
    assert log.iterations <= 6
    assert not log.notes and not caplog.records
    assert log.final_residual <= 1e-10
