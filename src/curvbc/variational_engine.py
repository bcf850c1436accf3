"""Discrete action assembly, functional gradients, residuals and solvers.

Fields live on the vertices of a :class:`~curvbc.surface_mesh.TetMesh` whose
closed boundary is a :class:`~curvbc.surface_mesh.TriangleMesh`.  The action
is the one-point gradient quadrature of the bulk density over tets (potential
terms lumped to the corners) plus a corner-area quadrature of the boundary
pair ``gamma0 - 2 H gamma_hat``.  Gradients are exact chain rules of that
discrete functional, which makes three statements identities rather than
approximations: the gradient matches finite differences of the assembled
action, stationarity of the total action encodes the curvature-dependent
natural boundary condition, and a pure transport term integrates to zero.

Tets and boundary triangles, actions, gradients and residual reports share
one element-then-scatter path (:func:`_simplex_pass`), whose one output is
a channel: a partial evaluated at the corners, weighted and scattered to the
vertices.  It runs over blocks of ``_BLOCK`` simplices: each block gathers
its corner-expanded inputs, evaluates every partial it needs once, and
writes its element corner rows into one corner array per channel; one
bincount scatter per channel then adds the whole array into the vertex rows.  Blocking bounds the
temporaries to a few MB, whatever the mesh size, and changes no bits: each
element is computed by the same operations, and the scatter order is fixed.
The solve looks for a zero of the gradient, not for a minimum: it is one
step loop on the exact gradient, every step is solved by one CG routine
(:func:`_cg`) on an assembled tangent (:func:`_assemble_tangent`), and
every step is accepted by one rule, a backtracking decrease of the gradient
norm.  A probe of each partial picks the tangent: a pair whose partials are
affine contracts their constant Jacobians with the hat gradients and corner
weights, once per solve; any other pair takes central differences at each
step.  Either way the element matrices are added per unique tet edge into
the (k, k) blocks of a vertex CSR indexed by the edge sort, and the CG is
preconditioned by Jacobi plus a Galerkin coarse correction on vertex
aggregates (:func:`_two_level`).

Row interpretation used by the residual reports: dividing interior gradient
rows by dual volumes recovers the Euler-Lagrange operator pointwise, and
dividing boundary rows of the total gradient by boundary vertex areas
recovers flux minus the curvature boundary terms.
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .surface_mesh import _BLOCK, _scatter, _vertex_grad_H
# re-exported: the names are part of this module's namespace
from .surface_mesh import TetMesh, build_ball_tetmesh, mean_curvature  # noqa: F401


_LOG = logging.getLogger("curvbc")

_CG_MAX_ITERATIONS = 5000
# steps of the solve loop before it gives up
_MAX_STEPS = 50
# a step of length t is accepted when it cuts the gradient norm by 1 - _DECREASE * t
_DECREASE = 1e-4
_TRANSPORT_TOLERANCE = 1e-10
# relative 2-norm tolerance of a step's CG solve on the assembled tangent
_TANGENT_TOLERANCE = 1e-10
# relative deviation between a partial's Jacobians at zero and at a random
# point above which the partial counts as not affine
_AFFINE_TOLERANCE = 1e-8
# cells per bounding-box axis of the voxel grid that cuts the boundary into
# the patches of the tangent preconditioner's coarse aggregates
_PATCH_GRID = 3


class SingularProblemError(RuntimeError):
    """Stationarity system has a nullspace incompatible with the data."""


# -- field states ------------------------------------------------------------

def _columns(values):
    """Float vertex rows (n, k); a vertex scalar field (n,) is one column."""
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else values


@dataclass
class FieldState:
    """Vertex field values (n, k), or (n,) for a scalar field, read as one
    column."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _columns(self.values)
        if self.values.ndim != 2:
            raise ValueError("values must be (n, k)")

    @property
    def n_components(self):
        return self.values.shape[1]


# -- assembly ----------------------------------------------------------------

def _check_components(mesh, bulk, surface, state):
    k = state.n_components
    if state.values.shape[0] != mesh.n_vertices:
        raise ValueError("state has wrong number of vertices for this mesh")
    if bulk is not None and bulk.n_components != k:
        raise ValueError("bulk lagrangian component count mismatch")
    if surface is not None and surface.n_components != k:
        raise ValueError("surface lagrangian component count mismatch")


def _pointwise(simplices, hat, values):
    """Corner-expanded quadrature inputs (phi, grad), ``m * c`` rows."""
    m, c = simplices.shape
    phi_c = values[simplices]                             # (m, c, k)
    grad = np.einsum("tck,tcj->tkj", phi_c, hat)
    return phi_c.reshape(m * c, values.shape[1]), np.repeat(grad, c, axis=0)


def _corner(hat, weights, corner_rows, grad_rows):
    """Element corner rows (m, c, width) of the chain rule of ``sum weights * L``.

    ``corner_rows`` (``m * c``, ...) are the evaluated rows of any partial,
    weighted at the corners at the width of a row: k for a ``d_phi``, 1 for
    a density, 3k for a ``d_grad``.  ``grad_rows`` (``m * c``, k, 3) are
    evaluated ``d_grad`` rows, weighted and summed over the corners of each
    simplex, then contracted once with the hat gradients.  Either may be None.
    """
    m, c = weights.shape
    corner = 0.0
    if corner_rows is not None:
        corner = corner_rows.reshape(m, c, -1) * weights[:, :, None]
    if grad_rows is not None:
        per_simplex = np.einsum("tc,tcx->tx", weights, grad_rows.reshape(m, c, -1))
        corner = corner + np.einsum("tkx,tcx->tck", per_simplex.reshape(m, -1, 3), hat)
    return corner


def _channel_corners(hat, channels, b, at):
    """:func:`_corner` rows of each ``(weights, d_phi, d_grad)`` channel on
    the simplices ``b`` (a slice), from their :func:`_pointwise` inputs
    ``at``.  Each distinct partial is evaluated once."""
    partials = {id(p): p for _, *ps in channels for p in ps if p is not None}
    ev = {key: p(*at) for key, p in partials.items()}
    return [_corner(hat[b], weights[b], ev.get(id(d_phi)), ev.get(id(d_grad)))
            for weights, d_phi, d_grad in channels]


def _simplex_pass(simplices, hat, values, channels):
    """The ``(weights, d_phi, d_grad)`` channels (see :func:`_corner`),
    scattered to vertex rows (n, width), from one pass over blocks of
    ``_BLOCK`` simplices.  Each block writes its :func:`_channel_corners` into
    each channel's (m, c, width) corner array, and one bincount per channel
    scatters it after the loop.  A density channel ``(weights, density,
    None)`` sums to the action.

    The block size only bounds the temporaries: every element is computed
    by the same operations as in one whole-mesh block, and the scatter
    adds in the row order of ``simplices``, so no result depends on it.
    """
    m, c = simplices.shape
    corners = [None] * len(channels)
    for start in range(0, m, _BLOCK):
        b = slice(start, start + _BLOCK)
        at = _pointwise(simplices[b], hat[b], values)
        for j, rows in enumerate(_channel_corners(hat, channels, b, at)):
            if corners[j] is None:
                corners[j] = np.empty((m, c, rows.shape[2]))
            corners[j][b] = rows
    return [_scatter(simplices, len(values), corner) for corner in corners]


def bulk_action(mesh, bulk, state):
    """Volume part of the action for a state on a tet mesh."""
    _check_components(mesh, bulk, None, state)
    density, = _simplex_pass(mesh.tets, mesh.tet_gradients, state.values,
                             [(mesh.corner_weights, bulk.density, None)])
    return float(density.sum())


def bulk_action_gradient(mesh, bulk, state):
    """Exact gradient of :func:`bulk_action` with respect to vertex values."""
    _check_components(mesh, bulk, None, state)
    g, = _simplex_pass(mesh.tets, mesh.tet_gradients, state.values,
                       [(mesh.corner_weights, bulk.d_phi, bulk.d_grad)])
    return g


def _surface_weights(mesh):
    """Corner weights of the plain (``w``) and curvature (``-2 H w``) terms."""
    w = mesh.corner_areas
    return w, -2.0 * mesh.vertex_mean_curvature[mesh.triangles] * w


def _surface_channels(surface, w, wc):
    """The boundary action gradient's four channels by name: plain potential,
    plain gradient, curvature potential, curvature gradient."""
    return {"gamma0_phi": (w, surface.gamma0_d_phi, None),
            "gamma0_div": (w, None, surface.gamma0_d_grad),
            "curv_phi": (wc, surface.gamma_hat_d_phi, None),
            "curv_div": (wc, None, surface.gamma_hat_d_grad)}


def surface_action(mesh, surface, values):
    """Boundary action split (plain gamma0 part, -2H gamma_hat part).

    ``values`` is a per-vertex field on the triangle mesh itself, (n, k) or
    (n,) for one component; use :func:`assemble_action` for fields defined
    on a tet mesh.
    """
    w, wc = _surface_weights(mesh)
    plain, curv = _simplex_pass(mesh.triangles, mesh.hat_gradients, _columns(values),
                                [(w, surface.gamma0, None), (wc, surface.gamma_hat, None)])
    return float(plain.sum()), float(curv.sum())


def surface_action_gradient(mesh, surface, values):
    """Exact gradient of the boundary action on a triangle mesh, for fields
    as :func:`surface_action` takes them."""
    w, wc = _surface_weights(mesh)
    g = _simplex_pass(mesh.triangles, mesh.hat_gradients, _columns(values),
                      list(_surface_channels(surface, w, wc).values()))
    return g[0] + g[1] + g[2] + g[3]


@dataclass
class ActionBreakdown:
    """Assembled action with its bulk and boundary contributions.

    ``surface_curvature`` already carries the -2H weight; ``transport_integral``
    is the surface integral of the divergence of the optional transport
    field, which vanishes identically on a closed boundary and is asserted
    against ``_TRANSPORT_TOLERANCE * scale`` before being dropped.
    """

    bulk: float
    surface_plain: float
    surface_curvature: float
    transport_integral: float = 0.0

    @property
    def total(self):
        return self.bulk + self.surface_plain + self.surface_curvature


def assemble_action(mesh, bulk, surface, state, surface_transport=None):
    """Total discrete action of a field state on a tet mesh.

    ``surface_transport``, when given, is a per-face tangential vector field
    on the boundary whose surface divergence is integrated and required to
    cancel (closed-surface transport terms contribute nothing to the action).
    """
    _check_components(mesh, bulk, surface, state)
    b = bulk_action(mesh, bulk, state)
    plain, curv = surface_action(mesh.boundary, surface, state.values[mesh.boundary_vertex_ids])

    transport = 0.0
    if surface_transport is not None:
        V = np.asarray(surface_transport, dtype=float)
        flux = np.einsum("fj,fcj->fc", V * mesh.boundary.face_areas[:, None],
                         mesh.boundary.hat_gradients)
        transport = float(-flux.sum())
        scale = 1.0 + float(np.abs(V).max()) * mesh.boundary.total_area
        if abs(transport) > _TRANSPORT_TOLERANCE * scale:
            raise AssertionError(
                f"closed-surface transport integral {transport:.3e} exceeds "
                f"tolerance {_TRANSPORT_TOLERANCE * scale:.3e}")
    return ActionBreakdown(b, plain, curv, transport)


def action_gradient(mesh, bulk, surface, state):
    """Exact gradient of the total action with respect to vertex values."""
    _check_components(mesh, bulk, surface, state)
    out = bulk_action_gradient(mesh, bulk, state)
    ids = mesh.boundary_vertex_ids
    out[ids] += surface_action_gradient(mesh.boundary, surface, state.values[ids])
    return out


# -- residual reports ---------------------------------------------------------

def euler_lagrange_residual(mesh, bulk, state):
    """Pointwise Euler-Lagrange defect, one row per vertex.

    Interior rows divide the bulk gradient by dual volumes, recovering
    dL/dphi - div(dL/dgrad).  Rows at boundary vertices additionally
    contain the flux and are reported as-is.
    """
    _check_components(mesh, bulk, None, state)
    return bulk_action_gradient(mesh, bulk, state) / mesh.dual_volumes[:, None]


def surface_bc_terms(mesh, surface, state):
    """Boundary-condition load of a surface pair on a triangle mesh alone.

    Returns ``(rhs, terms)`` for a state on the mesh vertices: ``rhs``, minus
    the boundary action gradient over vertex areas, sums the ``terms``
    channels ``gamma0_phi``, ``gamma0_div``, ``curv_phi`` and ``curv_div``.
    The diagnostic ``curv_div_frozen`` + ``grad_H_term`` (vertex gradient of
    the cached H) differs from ``curv_div`` by a discretization-order
    product rule.  Each partial is evaluated once.  The tangential part of
    ``rhs`` is a weak quantity: it converges paired with smooth test fields,
    not pointwise off the sphere.
    """
    _check_components(mesh, None, surface, state)
    tri, hat, n = mesh.triangles, mesh.hat_gradients, mesh.n_vertices
    a = mesh.vertex_areas[:, None]
    w, wc = _surface_weights(mesh)
    # the four channels, then those of the diagnostic split: the frozen-weight
    # curvature gradient and the gamma_hat_d_grad rows put in the corner slot
    channels = _surface_channels(surface, w, wc)
    *g, R_frozen, W = _simplex_pass(
        tri, hat, state.values,
        [*channels.values(), (w, None, surface.gamma_hat_d_grad),
         (w, surface.gamma_hat_d_grad, None)])
    terms = {name: -gi / a for name, gi in zip(channels, g)}
    rhs = terms["gamma0_phi"] + terms["gamma0_div"] + terms["curv_phi"] + terms["curv_div"]

    # diagnostic split of the curvature gradient channel
    W = W.reshape(n, state.n_components, 3) / a[:, :, None]
    terms["curv_div_frozen"] = 2.0 * mesh.vertex_mean_curvature[:, None] * (R_frozen / a)
    terms["grad_H_term"] = -2.0 * np.einsum("vkj,vj->vk", W, _vertex_grad_H(mesh))
    return rhs, terms


@dataclass
class BCResidualReport:
    """Natural boundary condition defect at every boundary vertex.

    ``residual = flux_weak - rhs`` exactly, where ``flux_weak`` is the
    variational flux recovery (bulk gradient boundary rows over vertex
    areas) and ``rhs`` and ``terms`` are the boundary-condition load and its
    channels from :func:`surface_bc_terms`.  ``flux_pointwise`` is an
    independent dual-volume average of the bulk momentum dotted with the
    vertex normal.
    """

    residual: np.ndarray
    flux_weak: np.ndarray
    rhs: np.ndarray
    terms: dict
    flux_pointwise: np.ndarray
    boundary_vertex_ids: np.ndarray
    vertex_areas: np.ndarray

    @property
    def max_residual(self):
        return float(np.abs(self.residual).max())


def natural_bc_residual(mesh, bulk, surface, state):
    """Evaluate the curvature-dependent natural boundary condition defect.

    ``rhs`` and ``terms`` are :func:`surface_bc_terms` of the boundary state;
    this adds the bulk fluxes.  Each partial is evaluated once.
    """
    _check_components(mesh, bulk, surface, state)
    B = mesh.boundary
    ids = mesh.boundary_vertex_ids
    rhs, terms = surface_bc_terms(B, surface, FieldState(state.values[ids]))

    # both fluxes read boundary vertex rows only, which are sums over the
    # tets with a boundary vertex: the bulk pass runs on those tets alone, and
    # each boundary row receives the whole mesh's additions in the same order;
    # the momentum channel puts the d_grad rows in the corner slot
    layer = mesh.boundary_layer
    weights = mesh.corner_weights[layer]
    g_bulk, mom = _simplex_pass(
        mesh.tets[layer], mesh.tet_gradients[layer], state.values,
        [(weights, bulk.d_phi, bulk.d_grad), (weights, bulk.d_grad, None)])
    flux_weak = g_bulk[ids] / B.vertex_areas[:, None]
    residual = flux_weak - rhs

    # independent pointwise flux: dual-volume-averaged momentum dotted with normals
    mom = mom[ids].reshape(-1, state.n_components, 3) / mesh.dual_volumes[ids][:, None, None]
    flux_pointwise = np.einsum("vkj,vj->vk", mom, B.vertex_normals)

    return BCResidualReport(residual, flux_weak, rhs, terms, flux_pointwise,
                            ids, B.vertex_areas)


# -- stationary solver ---------------------------------------------------------

@dataclass
class SolveOptions:
    tolerance: float = 1e-10
    gauge: str = "none"


@dataclass
class ConvergenceLog:
    method: str
    iterations: int
    residual_norms: list = field(default_factory=list)
    final_residual: float = np.inf
    converged: bool = False
    notes: list = field(default_factory=list)
    tangent_iterations: int = 0
    tangent_assembly_s: float = 0.0
    tangent_solve_s: float = 0.0
    gradient_calls: int = 0
    step_sizes: list = field(default_factory=list)
    coarse_size: int = 0
    unpreconditioned: str = ""
    preconditioner_s: float = 0.0


def _gauge_basis(mesh, k, gauge, components=None):
    """Orthonormal columns spanning the gauge modes: the constant shifts of
    the ``components`` (all by default) and, under ``rigid``, the
    infinitesimal rotations; None for ``none``."""
    if gauge == "none":
        return None
    if gauge not in ("zero_mean", "rigid"):
        raise ValueError(f"unknown gauge {gauge!r}")
    if gauge == "rigid" and k != 3:
        raise ValueError("rigid gauge requires a 3-component field")
    # column j shifts component components[j] by one at every vertex
    shifts = np.eye(k) if components is None else np.eye(k)[:, components]
    modes = np.tile(shifts, (mesh.n_vertices, 1))
    if gauge == "rigid":
        x = mesh.vertices - mesh.vertices.mean(axis=0)
        modes = np.column_stack([modes] + [np.cross(axis, x).ravel() for axis in np.eye(3)])
    q, _ = np.linalg.qr(modes)
    return q


def _cg(apply, b, done, max_iterations, precondition=None):
    """Conjugate gradients for ``apply(x) = b`` from ``x = 0``.

    ``apply`` need only be symmetric: on an indefinite operator the
    iteration goes on through negative curvature.  ``precondition``, when
    given, applies a symmetric positive definite ``M`` to a residual: the
    iteration is then CG on ``M apply`` in the ``M^-1`` inner product;
    without it every iterate keeps the bits of plain CG.  Stops when
    ``done(r)`` holds (it sees the initial and every updated residual),
    after ``max_iterations`` steps, on an exact breakdown (``p.Ap == 0``),
    or before a step that is not finite.  Returns ``(x, iterations)``.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = None
    iterations = 0
    while not done(r) and iterations < max_iterations:
        z = r if precondition is None else precondition(r)
        rz_new = r @ z
        p = z.copy() if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = apply(p)
        pAp = p @ Ap
        if pAp == 0:
            break
        alpha = rz / pAp
        # a finite p.Ap means a finite p, so a finite alpha a finite step
        if not (np.isfinite(pAp) and np.isfinite(alpha)):
            break
        x += alpha * p
        r -= alpha * Ap
        iterations += 1
    return x, iterations


def _edge_keys(a, b, n):
    """Keys ``min * n + max`` of the vertex pairs ``(a, b)``."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def _tangent_pattern(simplices, n):
    """Vertex CSR of the simplices' vertex adjacency, built from their unique edges.

    ``simplices`` lists (m, c) vertex arrays: the tets, then any whose edges
    are tet edges (the boundary triangles).  Returns ``(edges, starts, cols,
    upper, lower, diagonal, edge_ids)``.  ``edges`` are the sorted keys ``v
    * n + w`` (``v < w``) of the unique edges.  Row ``r`` of the CSR
    (``starts``, ``cols``) holds its lower entries (the edges ``(v, r)``),
    its diagonal, then its upper entries (the edges ``(r, w)``), so its
    columns come sorted.  ``upper[e]`` and ``lower[e]`` are the CSR
    positions of edge ``e``'s entries ``(v, w)`` and ``(w, v)``,
    ``diagonal[r]`` that of ``(r, r)``: index arithmetic on the edge sort,
    with no search.  ``edge_ids`` holds per array of ``simplices`` the
    int32 (c (c - 1) / 2, m) ids into ``edges`` of its corner pairs
    ``triu_indices(c, 1)``, pair by pair, from the same sort.
    """
    pairs = [np.triu_indices(s.shape[1], 1) for s in simplices]
    sizes = [len(s) * len(i) for s, (i, _) in zip(simplices, pairs)]
    keys = np.empty(sum(sizes), dtype=np.int64)
    at = 0
    for s, (i, j) in zip(simplices, pairs):
        for a, b in zip(i, j):
            keys[at:at + len(s)] = _edge_keys(s[:, a], s[:, b], n)
            at += len(s)
    order = np.argsort(keys)
    # the sorted keys are compared block by block, so that no other array of
    # their length is made while the keys and their order live
    first = np.empty(len(keys), dtype=bool)
    last = -1
    for start in range(0, len(keys), _BLOCK):
        block = keys[order[start:start + _BLOCK]]
        new = first[start:start + len(block)]
        new[0] = block[0] != last
        np.not_equal(block[1:], block[:-1], out=new[1:])
        last = block[-1]
    del keys
    # int32 ranks and ids: the ids live through the assembly
    rank = np.cumsum(first, dtype=np.int32)
    del first
    rank -= 1
    ids = np.empty(len(order), dtype=np.int32)
    ids[order] = rank
    n_edges = int(rank[-1]) + 1
    del order, rank
    edge_ids = [part.reshape(len(i), -1) for part, (i, _) in
                zip(np.split(ids, np.cumsum(sizes)[:-1]), pairs)]
    # each unique key, written back through the ids of its corner pairs
    edges = np.empty(n_edges, dtype=np.int64)
    for s, (i, j), part in zip(simplices, pairs, edge_ids):
        for a, b, e in zip(i, j, part):
            edges[e] = _edge_keys(s[:, a], s[:, b], n)
    v, w = np.divmod(edges, n)
    n_lower, n_upper = np.bincount(w, minlength=n), np.bincount(v, minlength=n)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_lower + 1 + n_upper, out=starts[1:])
    diagonal = starts[:-1] + n_lower
    # edges come sorted by (v, w): row v's upper entries in edge order; each
    # position is an edge's rank plus a per-row offset, added in place so
    # that the ids' live bytes do not raise the peak
    upper = np.arange(len(edges))
    upper += (diagonal + 1 - (np.cumsum(n_upper) - n_upper))[v]
    # a stable sort by w keeps v sorted within each row w
    order = np.argsort(w, kind="stable")
    at = (starts[:-1] - (np.cumsum(n_lower) - n_lower))[w[order]]
    at += np.arange(len(edges))
    lower = np.empty_like(upper)
    lower[order] = at
    del order, at
    cols = np.empty(starts[-1], dtype=np.int64)
    cols[upper], cols[lower], cols[diagonal] = w, v, np.arange(n)
    return edges, starts, cols, upper, lower, diagonal, edge_ids


def _probe_jacobian(partial, k):
    """Jacobian of an affine partial in ``(phi, grad)``, from ``4 k + 1`` probes.

    The probes are zero and one unit value per ``phi`` and per ``grad``
    input.  Returns a (k, 4 k) array for a ``d_phi`` and a (3 k, 4 k) array
    for a ``d_grad``: rows are the flattened outputs, columns the ``phi``
    inputs, then the ``grad`` inputs (component-major).  The same probes
    around a seeded random point of ``(phi, grad)`` must give the same
    Jacobian to ``_AFFINE_TOLERANCE`` of the probed values; otherwise the
    partial is not affine and None is returned.
    """
    q = 4 * k
    unit = np.vstack([np.zeros(q), np.eye(q)])
    # stdlib random: importing numpy.random would add about 6 MB of RSS
    point = random.Random(0)
    x = np.vstack([unit, [point.gauss(0.0, 1.0) for _ in range(q)] + unit])
    out = partial(x[:, :k], x[:, k:].reshape(-1, k, 3)).reshape(2, q + 1, -1)
    jac = (out[:, 1:] - out[:, :1]).transpose(0, 2, 1)
    affine = np.abs(jac[1] - jac[0]).max() <= _AFFINE_TOLERANCE * np.abs(out).max()
    return jac[0] if affine else None


def _probe_partials(bulk, surface):
    """:func:`_probe_jacobian` of the pair's value and gradient partials, by id."""
    return {id(p): _probe_jacobian(p, bulk.n_components) for p in (
        bulk.d_phi, bulk.d_grad, surface.gamma0_d_phi, surface.gamma0_d_grad,
        surface.gamma_hat_d_phi, surface.gamma_hat_d_grad)}


def _element_jacobians(channels, k, jacobians):
    """Per distinct weights, the summed ``jacobians`` blocks of the ``channels``.

    Returns ``[(weights, pp, pg, gp, gg)]``, each block None when it is
    zero: ``pp`` [c, i] and ``pg`` [y, (c, i)] from the ``d_phi`` partials,
    ``gp`` [x, (c, i)] and ``gg`` [x, (c, i, y)] from the ``d_grad``
    partials, for output component ``c``, input component ``i`` and spatial
    indices ``x`` (of the output) and ``y`` (of the input).  The spatial
    index comes first, so that ``G (., 3) @ block`` contracts it.
    """
    groups = {}
    for weights, *partials in channels:
        group = groups.setdefault(id(weights), [weights, np.zeros((k, 4 * k)),
                                                np.zeros((3 * k, 4 * k))])
        for slot, p in enumerate(partials, 1):
            if p is not None:
                group[slot] += jacobians[id(p)]
    out = []
    for weights, jp, jg in groups.values():
        blocks = [jp[:, :k],
                  jp[:, k:].reshape(k, k, 3).transpose(2, 0, 1).reshape(3, k * k),
                  jg[:, :k].reshape(k, 3, k).transpose(1, 0, 2).reshape(3, k * k),
                  jg[:, k:].reshape(k, 3, k, 3).transpose(1, 0, 2, 3).reshape(3, -1)]
        blocks = [j if j.any() else None for j in blocks]
        if any(j is not None for j in blocks):
            out.append((weights, *blocks))
    return out


def _element_tangents(hat, block, groups, k):
    """Element matrices of the simplices ``block`` from constant Jacobians.

    ``groups`` come from :func:`_element_jacobians`.  With corner weights
    ``w``, their sum ``W`` and hat gradients ``G``, the matrix of corner rows
    ``a`` and columns ``b`` is ``w_a delta_ab pp + w_a pg G_b + w_b G_a gp
    + W G_a gg G_b`` (``G`` contracted with the spatial index of the
    blocks); an absent block is skipped.  Returns the (b, c, c, k, k)
    matrices, indexed ``[simplex, a, b, output component, input component]``.
    """
    G = hat[block]
    nb, c = G.shape[:2]
    corners = np.arange(c)
    flat = G.reshape(-1, 3)
    out = np.zeros((nb, c, c, k, k))
    for weights, pp, pg, gp, gg in groups:
        w = weights[block]
        if pp is not None:
            out[:, corners, corners] += w[:, :, None, None] * pp
        if pg is not None:
            out += w[:, :, None, None, None] * (flat @ pg).reshape(nb, 1, c, k, k)
        if gp is not None:
            out += (flat @ gp).reshape(nb, c, 1, k, k) * w[:, None, :, None, None]
        if gg is not None:
            # W G_a gg G_b: [simplex, (a, c, i), y] @ [simplex, y, b]
            out += ((flat @ gg).reshape(nb, c * k * k, 3)
                    @ (G * w.sum(axis=1)[:, None, None]).transpose(0, 2, 1)
                    ).reshape(nb, c, k, k, c).transpose(0, 1, 4, 2, 3)
    return out


def _difference_tangents(simplices, hat, block, channels, state, k):
    """Element matrices of the simplices ``block`` of any pair at a
    ``state``, as :func:`_element_tangents` returns them.  Column ``(b, i)``
    is the central difference of the corner rows, summed over the
    ``channels``, as corner ``b``'s component ``i`` moves by ``h = cbrt(eps)
    (1 + max |values|)``.  Each move starts from a fresh copy of the corner
    values, whose bits a move and its reverse would not restore."""
    c = simplices.shape[1]
    values = state.values
    h = np.cbrt(np.finfo(float).eps) * (1.0 + float(np.abs(values).max()))
    corners = values[simplices[block]]
    # each simplex indexes its own rows of the moved corner values
    own = np.arange(corners.size // k).reshape(-1, c)

    def rows(b, i, move):
        moved = corners.copy()
        moved[:, b, i] += move
        at = _pointwise(own, hat[block], moved.reshape(-1, k))
        return sum(_channel_corners(hat, channels, block, at))
    out = np.empty((len(own), c, c, k, k))
    for b, i in np.ndindex(c, k):
        out[:, :, b, :, i] = (rows(b, i, h) - rows(b, i, -h)) / (2.0 * h)
    return out


def _accumulate(out, index, blocks):
    """Add the (k, k) ``blocks`` into the rows ``index`` of ``out`` (flat,
    ``k * k`` per row) with one bincount over the spanned range."""
    # an int64 factor: int32 edge ids times kk may pass 2**31
    kk = np.int64(blocks.shape[-1] * blocks.shape[-2])
    index = index[..., None] * kk + np.arange(kk)
    lo = index.min()
    sums = np.bincount((index - lo).ravel(), blocks.ravel())
    out[lo:lo + len(sums)] += sums


def _add_element_blocks(edge_blocks, diagonal_blocks, ids, edge_ids, element):
    """Add element matrices (b, c, c, k, k) of simplices with vertices ``ids``
    into the per-edge upper blocks (row of the smaller vertex) and the
    per-vertex diagonal blocks; ``edge_ids`` (b, c (c - 1) / 2) are the
    edges of the corner pairs ``triu_indices(c, 1)``."""
    c = ids.shape[1]
    i, j = np.triu_indices(c, 1)
    upper = np.where((ids[:, i] > ids[:, j])[..., None, None], element[:, j, i], element[:, i, j])
    _accumulate(edge_blocks, edge_ids, upper)
    corners = np.arange(c)
    _accumulate(diagonal_blocks, ids, element[:, corners, corners])


@dataclass
class _Tangent:
    """Vertex CSR of (k, k) blocks: ``starts`` (n,) and ``cols`` (nnz,) from
    :func:`_tangent_pattern`, columns sorted within each row, and ``data``
    (k, k, nnz).  Entry ``p`` of row ``r`` couples vertex ``r``'s component
    ``a`` to vertex ``cols[p]``'s component ``i`` by ``data[a, i, p]``;
    ``diagonal[r]`` (n,) is the position of row ``r``'s entry ``(r, r)``."""

    starts: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    diagonal: np.ndarray

    def __call__(self, x):
        k = len(self.data)
        X = x.reshape(-1, k).T
        # one gather per input component; the last output component's
        # products overwrite them, so k = 1 holds one (nnz,) array
        gathered = [X[i][self.cols] for i in range(k)]
        out = np.empty((len(self.starts), k))
        for a in range(k):
            into = gathered if a == k - 1 else [None] * k
            row = np.multiply(self.data[a, 0], gathered[0], out=into[0])
            for i in range(1, k):
                row += np.multiply(self.data[a, i], gathered[i], out=into[i])
            out[:, a] = np.add.reduceat(row, self.starts)
        return out.ravel()


def _assemble_tangent(mesh, bulk, surface, state=None, jacobians=None):
    """Hessian of the action as a block CSR matrix-vector product.

    The element matrices of the tets and of the boundary triangles (their
    ``w`` and ``-2 H w`` channels) come at a ``state`` from
    :func:`_difference_tangents`, for any pair; without one, from
    :func:`_element_tangents` on the constant ``jacobians`` of an affine
    pair's partials (:func:`_probe_partials`, probed here when not given),
    and the tangent applied to ``x`` is then ``g(x) - g(0)`` of the action
    gradient ``g`` up to roundoff.
    Each element's off-diagonal (k, k) blocks are added per unique tet edge
    (its upper block, the one of the smaller vertex's row) and its diagonal
    blocks per vertex, by bincount.  They fill the blocks of the vertex CSR
    of :func:`_tangent_pattern` at positions that come by index arithmetic
    from the edge sort: an edge's upper block ``B`` and lower block ``B^T``,
    and the symmetric part of each diagonal block.  So the tangent is exactly
    symmetric.
    """
    k = bulk.n_components
    kk = k * k
    n = mesh.n_vertices
    B = mesh.boundary
    triangles = mesh.boundary_vertex_ids[B.triangles]
    edges, starts, cols, upper, lower, diagonal, edge_ids = _tangent_pattern(
        [mesh.tets, triangles], n)
    edge_blocks = np.zeros(len(edges) * kk)
    del edges
    diagonal_blocks = np.zeros(n * kk)
    w, wc = _surface_weights(B)
    if state is None and jacobians is None:
        jacobians = _probe_partials(bulk, surface)
    parts = [(mesh.tets, mesh.tet_gradients,
              [(mesh.corner_weights, bulk.d_phi, bulk.d_grad)]),
             (triangles, B.hat_gradients, list(_surface_channels(surface, w, wc).values()))]
    # blocks of _BLOCK // k^2 simplices: c^2 _BLOCK numbers of matrices whatever k
    step = max(1, _BLOCK // kk)
    for (vertex_ids, hat, channels), ids in zip(parts, edge_ids):
        groups = None if state is not None else _element_jacobians(channels, k, jacobians)
        for start in range(0, len(vertex_ids), step):
            b = slice(start, start + step)
            # the triangles hold volume vertex ids, so both parts read the whole state
            element = (_difference_tangents(vertex_ids, hat, b, channels, state, k)
                       if groups is None else _element_tangents(hat, b, groups, k))
            _add_element_blocks(edge_blocks, diagonal_blocks, vertex_ids[b], ids[:, b].T, element)
    # [a, i, entry]: row component a, column component i
    edge_blocks = edge_blocks.reshape(-1, k, k).transpose(1, 2, 0)
    diagonal_blocks = diagonal_blocks.reshape(-1, k, k).transpose(1, 2, 0)
    diagonal_blocks = 0.5 * (diagonal_blocks + diagonal_blocks.transpose(1, 0, 2))
    # the diagonal's temporaries and the edge ids go before ``data`` is made,
    # to keep the peak low
    # the loop's ``ids`` is a view that keeps the whole id array alive
    del edge_ids, ids
    data = np.empty((k, k, len(cols)))
    data[:, :, upper] = edge_blocks
    data[:, :, lower] = edge_blocks.transpose(1, 0, 2)
    data[:, :, diagonal] = diagonal_blocks
    return _Tangent(starts[:-1], cols, data, diagonal)


def _aggregates(mesh, starts, cols):
    """Vertex aggregates of the coarse correction: ``(labels, count)``.

    An aggregate is one graph layer from the boundary, found breadth-first
    over the CSR (``starts``, ``cols``), crossed with one boundary patch, a
    cell of a ``_PATCH_GRID`` voxel grid over the bounding box of the
    boundary vertices.  Each vertex of a layer takes the patch of its
    nearest neighbour in the layer outside it, ties going to the smaller
    patch, so the aggregates follow the geometry, not the vertex labels.
    ``labels`` (n,) run over ``0 .. count - 1``; vertices the search does
    not reach share one aggregate.
    """
    x, ids, n = mesh.vertices, mesh.boundary_vertex_ids, mesh.n_vertices
    ends = np.r_[starts[1:], len(cols)]
    lo = x[ids].min(axis=0)
    extent = x[ids].max(axis=0) - lo
    cell = ((x[ids] - lo) * (_PATCH_GRID / np.where(extent > 0, extent, 1.0))).astype(np.int64)
    cell = np.minimum(cell, _PATCH_GRID - 1)
    patch = np.zeros(n, dtype=np.int64)
    patch[ids] = (cell[:, 0] * _PATCH_GRID + cell[:, 1]) * _PATCH_GRID + cell[:, 2]
    layer = np.full(n, -1, dtype=np.int64)
    layer[ids] = 0
    nearest = np.full(n, np.inf)
    front, depth = ids, 0
    while len(front):
        # the CSR entries (src, dst) of the front's rows that reach new vertices
        counts = ends[front] - starts[front]
        src = np.repeat(front, counts)
        dst = cols[np.arange(len(src)) + np.repeat(starts[front] - np.cumsum(counts) + counts,
                                                   counts)]
        new = layer[dst] < 0
        src, dst = src[new], dst[new]
        distance = ((x[dst] - x[src]) ** 2).sum(axis=1)
        np.minimum.at(nearest, dst, distance)
        depth += 1
        layer[dst] = depth
        front = np.flatnonzero(layer == depth)
        patch[front] = _PATCH_GRID**3
        tie = distance == nearest[dst]
        np.minimum.at(patch, dst[tie], patch[src[tie]])
    keys, labels = np.unique(layer * _PATCH_GRID**3 + patch, return_inverse=True)
    return labels, len(keys)


def _coarse_matrix(tangent, labels, count):
    """``Z^T K Z`` of the tangent ``K`` for the indicator ``Z`` of the
    aggregates ``labels``, one column per aggregate and component (index
    ``aggregate * k + component``), summed from the blocks by bincount."""
    k = len(tangent.data)
    pair = np.repeat(labels * count, np.diff(np.r_[tangent.starts, len(tangent.cols)]))
    pair += labels[tangent.cols]
    E = np.empty((count, k, count, k))
    for a in range(k):
        for i in range(k):
            E[:, a, :, i] = np.bincount(pair, tangent.data[a, i],
                                        minlength=count * count).reshape(count, count)
    return E.reshape(count * k, count * k)


def _two_level(mesh, tangent, basis):
    """Two-level preconditioner of the tangent CG: Jacobi on the tangent's
    diagonal plus the additive coarse correction ``Z E^-1 Z^T``.

    ``Z`` is the indicator of the :func:`_aggregates`, one column per
    aggregate and component, and ``E = Z^T K Z`` of the tangent ``K``,
    summed from its blocks by bincount (Nicolaides, SIAM J. Numer. Anal. 24,
    1987; Vanek, Mandel & Brezina, Computing 56, 1996).  With a gauge
    ``basis`` ``Q``, ``E`` also gets ``(Z^T Q) (Z^T Q)^T``, the coarse image
    of the gauge modes, which ``K`` may annihilate.  ``E`` is tested by
    Cholesky and inverted once.  Returns ``(precondition, coarse size,
    reason)``.  When the diagonal is not positive or ``E`` is not positive
    definite, the preconditioner would not be positive definite, so
    ``precondition`` is None, the size 0 and ``reason`` says why; otherwise
    ``reason`` is "".
    """
    k = len(tangent.data)
    diagonal = tangent.data[range(k), range(k)][:, tangent.diagonal].T.ravel()
    if not (diagonal > 0).all():
        return None, 0, "the tangent's diagonal is not positive"
    labels, count = _aggregates(mesh, tangent.starts, tangent.cols)
    E = _coarse_matrix(tangent, labels, count)
    # coarse dof of each fine dof: aggregate-major, then component
    coarse = (labels[:, None] * k + np.arange(k)).ravel()
    if basis is not None:
        ZQ = np.stack([np.bincount(coarse, q, minlength=count * k) for q in basis.T], axis=1)
        E += ZQ @ ZQ.T
    # E is symmetric to roundoff, and the Cholesky test reads its lower half
    try:
        np.linalg.cholesky(E)
    except np.linalg.LinAlgError:
        return None, 0, "the coarse matrix is not positive definite"
    # applied once per CG iteration as one dense product
    coarse_inverse = np.linalg.inv(E)
    del E
    coarse_inverse += coarse_inverse.T
    coarse_inverse *= 0.5
    inverse_diagonal = 1.0 / diagonal

    def precondition(r):
        restricted = np.bincount(coarse, r, minlength=count * k)
        return r * inverse_diagonal + (coarse_inverse @ restricted)[coarse]
    return precondition, count * k, ""


def solve_stationary(mesh, bulk, surface, initial=None, options=None):
    """Find a stationary point of the assembled action: a zero of its
    gauge-projected gradient, which need not be a minimum.

    One step loop serves every pair.  Each step has the exact action
    gradient, records the max norm of its gauge projection and stops once
    that is at most ``options.tolerance``, or after ``_MAX_STEPS`` steps.
    Otherwise CG on the gauge-projected tangent, to a relative 2-norm of
    ``_TANGENT_TOLERANCE``, gives a direction ``d``, preconditioned by
    :func:`_two_level` (Jacobi plus a coarse correction on vertex
    aggregates) unless the tangent's diagonal is not positive or its coarse
    matrix not positive definite.  The probe's verdict picks the tangent:
    when the pair's six value and gradient partials all probe as affine
    (:func:`_probe_jacobian`), the pair is quadratic and its tangent is
    assembled once, from their constant Jacobians; otherwise the tangent
    and its preconditioner are assembled at every step, by central
    differences at the current state (Newton with an assembled Jacobian;
    Knoll & Keyes, J. Comput. Phys. 193, 2004).

    Every step is accepted by one rule: the first of ``t = 1, 1/2, ...``
    (down to 1e-12) whose projected gradient has a 2-norm at most ``1 -
    _DECREASE * t`` times the current one (Eisenstat & Walker, SIAM J.
    Optim. 4, 1994).  The accepted gradient is the next step's, so an exact
    quadratic step costs one gradient.  A quadratic pair's gradient is
    affine along the step, so its trials after ``t = 1`` are tested on ``g
    + t (g(1) - g)`` and only an accepted one gets an exact gradient.
    Nothing asks for a decrease of the action, so on a nonconvex pair
    Newton may stop at a saddle or a maximum.

    Under ``gauge="none"`` a quadratic solve first probes the constant shift
    of each component.  A shift the operator annihilates joins the gauge;
    if the data loads it, the pure-Neumann problem is incompatible and
    :class:`SingularProblemError` is raised.

    ``log.iterations`` counts the steps, ``log.step_sizes`` holds each
    accepted ``t``, ``log.tangent_iterations`` counts the tangent CG
    iterations and ``log.gradient_calls`` every action gradient (rejected
    trials included); ``log.tangent_assembly_s``, ``log.preconditioner_s``
    and ``log.tangent_solve_s`` sum the times of every assembly, every
    preconditioner setup and every tangent solve.  ``log.coarse_size`` is
    the last assembly's preconditioner's coarse size, 0 when its CG runs
    unpreconditioned, and ``log.unpreconditioned`` then says why (also
    logged at INFO).  A separate gradient at the result sets
    ``log.final_residual`` and ``log.converged``.

    Two events are noted in the log and warned on the ``curvbc`` logger: a
    tangent CG stopped by ``_CG_MAX_ITERATIONS`` above its tolerance (at
    its first step only; the solve goes on), and a step that no ``t``
    accepts, which ends the solve unconverged without taking it.
    """
    options = options or SolveOptions()
    k = bulk.n_components
    if surface.n_components != k:
        raise ValueError("bulk and surface component counts differ")
    if initial is None:
        initial = FieldState(np.zeros((mesh.n_vertices, k)))
    _check_components(mesh, bulk, surface, initial)

    basis = _gauge_basis(mesh, k, options.gauge)

    def project(vec):
        if basis is None:
            return vec
        return vec - basis @ (basis.T @ vec)

    jacobians = _probe_partials(bulk, surface)
    quadratic = all(j is not None for j in jacobians.values())
    log = ConvergenceLog(method="cg" if quadratic else "newton", iterations=0)

    def grad_at(values):
        log.gradient_calls += 1
        return action_gradient(mesh, bulk, surface, FieldState(values)).ravel()

    def report(note):
        log.notes.append(note)
        _LOG.warning("solve_stationary: %s", note)

    phi = initial.values.copy()
    g = grad_at(phi)
    scale = 1.0 + float(np.abs(g).max())

    if quadratic and options.gauge == "none":
        # probe the constant shifts: annihilated + loaded means incompatible data
        singular = []
        for c in range(k):
            shift = np.zeros_like(phi)
            shift[:, c] = 1.0
            if np.abs(grad_at(phi + shift) - g).max() <= 1e-12 * scale:
                if abs(g @ shift.ravel()) > 1e-10 * scale * mesh.n_vertices:
                    raise SingularProblemError(
                        "constant shifts are in the nullspace but the data "
                        "does not balance; fix the model or use gauge='zero_mean'")
                singular.append(c)
        if singular:
            basis = _gauge_basis(mesh, k, "zero_mean", singular)

    line_search_failed = capped = False
    for it in range(_MAX_STEPS):
        b = project(-g)
        gn = float(np.abs(b).max())
        log.residual_norms.append(gn)
        log.iterations = it
        if gn <= options.tolerance:
            break
        # a quadratic pair's tangent is constant; any other's is taken at phi
        if it == 0 or not quadratic:
            start = perf_counter()
            tangent = _assemble_tangent(mesh, bulk, surface,
                                        None if quadratic else FieldState(phi), jacobians)
            log.tangent_assembly_s += perf_counter() - start
            start = perf_counter()
            precondition, log.coarse_size, log.unpreconditioned = _two_level(
                mesh, tangent, basis)
            if precondition is not None and basis is not None:
                two_level = precondition
                precondition = lambda r: project(two_level(r))
            log.preconditioner_s += perf_counter() - start
            if log.unpreconditioned:
                _LOG.info("solve_stationary: the tangent CG runs unpreconditioned: %s",
                          log.unpreconditioned)
        start = perf_counter()
        tol = _TANGENT_TOLERANCE * np.linalg.norm(b)
        converged = lambda r: np.linalg.norm(r) <= tol
        d, its = _cg(lambda v: project(tangent(v)), b, converged, _CG_MAX_ITERATIONS,
                     precondition)
        log.tangent_iterations += its
        log.tangent_solve_s += perf_counter() - start
        if (its == _CG_MAX_ITERATIONS and not capped
                and not converged(b - project(tangent(d)))):
            # reported at the first capped step only
            capped = True
            report(f"tangent CG stopped at its cap of {its} iterations at step {it}")
        # backtrack on the norm of the projected gradient
        bound = np.linalg.norm(b)
        t, slope = 1.0, None
        while t > 1e-12:
            trial = phi + t * d.reshape(phi.shape)
            # a quadratic pair's gradient is affine along the line: after the
            # exact one at t = 1, a rejected trial costs no gradient
            g_trial = grad_at(trial) if slope is None else g + t * slope
            if np.linalg.norm(project(g_trial)) <= (1.0 - _DECREASE * t) * bound:
                break
            if quadratic and slope is None:
                slope = g_trial - g
            t *= 0.5
        else:
            report(f"line search failed: no decrease of the gradient norm at step {it}")
            line_search_failed = True
            break
        if slope is not None:
            g_trial = grad_at(trial)
        phi, g = trial, g_trial
        log.step_sizes.append(t)

    log.final_residual = float(np.abs(project(grad_at(phi))).max())
    log.converged = log.final_residual <= options.tolerance and not line_search_failed
    return FieldState(phi), log
