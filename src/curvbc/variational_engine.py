"""Discrete action assembly, functional gradients, residuals and solvers.

Fields live on the vertices of a tetrahedral mesh whose closed boundary is
a :class:`~curvbc.surface_mesh.TriangleMesh`.  The action is the one-point
gradient quadrature of the bulk density over tets (potential and rate terms
lumped to the corners) plus a corner-area quadrature of the boundary pair
``gamma0 - 2 H gamma_hat``.  Gradients are exact chain rules of that
discrete functional, which makes three statements identities rather than
approximations: the gradient matches finite differences of the assembled
action, stationarity of the total action encodes the curvature-dependent
natural boundary condition, and a pure transport term integrates to zero.

Tets and boundary triangles, gradients and residual reports, share one
element-then-scatter path (:func:`_simplex_gradient`): evaluated partial rows
make an element corner array, added into the vertex rows by one bincount
scatter.  The solve and its Newton steps share one CG routine (:func:`_cg`).

Row interpretation used by the residual reports: dividing interior gradient
rows by dual volumes recovers the Euler-Lagrange operator pointwise, and
dividing boundary rows of the total gradient by boundary vertex areas
recovers flux minus the curvature boundary terms.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .surface_mesh import (TriangleMesh, _scatter, _vertex_grad_H,
                           build_icosphere)
# re-exported: the name is part of this module's namespace
from .surface_mesh import mean_curvature  # noqa: F401


_LOG = logging.getLogger("curvbc")


class SingularProblemError(RuntimeError):
    """Stationarity system has a nullspace incompatible with the data."""


# -- tetrahedral meshes -----------------------------------------------------

class TetMesh:
    """Tetrahedral mesh of a solid with a closed triangulated boundary.

    Parameters
    ----------
    vertices : (n, 3) float array
    tets : (m, 4) int array
        Corner indices; orientation is canonicalized to positive volume.
    boundary : TriangleMesh
        Closed outward-oriented boundary surface.
    boundary_vertex_ids : (nb,) int array
        Volume vertex index of each boundary-mesh vertex.

    Attributes
    ----------
    tet_volumes : (m,) positive volumes.
    tet_gradients : (m, 4, 3) gradients of the corner hat functions.
    corner_weights : (m, 4) quarter volumes, the corner quadrature weights.
    dual_volumes : (n,) quarter-volume lumped vertex measures.
    """

    def __init__(self, vertices, tets, boundary, boundary_vertex_ids):
        self.vertices = np.asarray(vertices, dtype=float)
        tets = np.asarray(tets, dtype=np.int64)
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise ValueError("tets must be (m, 4)")
        edge = self.vertices[tets[:, 1:]] - self.vertices[tets[:, :1]]
        signed = np.linalg.det(edge) / 6.0
        flip = signed < 0
        tets = tets.copy()
        tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
        self.tets = tets
        edge = self.vertices[tets[:, 1:]] - self.vertices[tets[:, :1]]
        self.tet_volumes = np.linalg.det(edge) / 6.0
        if np.any(self.tet_volumes <= 0):
            raise ValueError("degenerate tetrahedron (zero volume)")
        # rows of inv([x1-x0; x2-x0; x3-x0]) give hat gradients of corners 1..3
        inv = np.linalg.inv(edge)
        grads = np.empty((len(tets), 4, 3))
        grads[:, 1:, :] = np.swapaxes(inv, 1, 2)
        grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
        self.tet_gradients = grads
        del edge, inv   # (m, 3, 3) each; keeps them out of the boundary check's peak
        self.corner_weights = np.repeat(self.tet_volumes / 4.0, 4).reshape(-1, 4)
        self.dual_volumes = _scatter(tets, len(self.vertices), self.corner_weights)
        self.boundary = boundary
        self.boundary_vertex_ids = np.asarray(boundary_vertex_ids, dtype=np.int64)
        if len(self.boundary_vertex_ids) != boundary.n_vertices:
            raise ValueError("boundary_vertex_ids must match the boundary mesh")
        if len(np.unique(self.boundary_vertex_ids)) != boundary.n_vertices:
            raise ValueError("boundary_vertex_ids must be distinct")
        _check_boundary_faces(tets, self.n_vertices, boundary.triangles,
                              self.boundary_vertex_ids)
        mask = np.ones(len(self.vertices), dtype=bool)
        mask[self.boundary_vertex_ids] = False
        self.interior_mask = mask

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    @property
    def total_volume(self):
        return float(self.tet_volumes.sum())


# faces of a positively oriented tet (0, 1, 2, 3), wound with outward normals
_TET_FACES = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def _check_boundary_faces(tets, n, triangles, ids):
    """Raise ValueError unless the tet faces used once are the boundary triangles.

    With every boundary triangle added reversed, each face must occur exactly
    twice with opposite windings: an interior face between its two
    positively oriented tets, a boundary face between its tet and the
    outward boundary triangle.  Rows are slot-major tet faces, then triangles.
    """
    if n >= 2**21:
        raise ValueError("the boundary check supports fewer than 2**21 vertices")
    keys, odd = [], []
    for table, cols in [(tets, f) for f in _TET_FACES] + [(ids[triangles], [2, 1, 0])]:
        p = table[:, cols]
        s = np.sort(p, axis=1)
        keys.append((s[:, 0] * n + s[:, 1]) * n + s[:, 2])
        # the row is an odd permutation of its sorted vertices
        odd.append((p[:, 0] > p[:, 1]) ^ (p[:, 1] > p[:, 2]) ^ (p[:, 0] > p[:, 2]))
    key, odd = np.concatenate(keys), np.concatenate(odd)
    del keys
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    del key
    sizes = np.diff(np.r_[starts, len(order)])
    pair = order[np.minimum(starts + 1, len(order) - 1)]
    bad = (sizes != 2) | (odd[order[starts]] == odd[pair])
    if bad.any():
        g, m = int(np.argmax(bad)), len(tets)
        row = int(order[starts[g]:starts[g] + sizes[g]].max())   # a triangle if any
        what = (f"boundary triangle {row - 4 * m}" if row >= 4 * m
                else f"face {tets[row % m, _TET_FACES[row // m]].tolist()} of tet {row % m}")
        why = {1: "is used once" if row < 4 * m else "is not a tet face",
               2: "is wound inward"}.get(int(sizes[g]), f"is shared {sizes[g]} times")
        raise ValueError(f"boundary mismatch: {what} {why}")


def build_ball_tetmesh(radius=1.0, center=(0.0, 0.0, 0.0), surface_level=4,
                       radial_layers=12, grading=0.7):
    """Tetrahedralize a ball with icosphere layers joined by prism splits.

    Vertices are a center point plus ``radial_layers`` concentric icosphere
    shells; each prism between consecutive shells is cut into three tets
    with diagonals chosen by sorted vertex index so neighbouring prisms
    agree, and the innermost shell is coned to the center.  Shell radii
    follow ``radius * (layer/radial_layers)**grading``; exponents below 1
    cluster layers near the boundary, where flux accuracy matters, and
    fatten the innermost cone cells.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if radial_layers < 1:
        raise ValueError("need at least one radial layer")
    if grading <= 0:
        raise ValueError("grading must be positive")
    center = np.asarray(center, dtype=float)
    shell = build_icosphere(1.0, surface_level)
    dirs = shell.vertices
    nd = len(dirs)
    faces = shell.triangles

    r = np.array([radius * (layer / radial_layers) ** grading
                  for layer in range(1, radial_layers + 1)])
    vertices = np.vstack([center, (center + r[:, None, None] * dirs).reshape(-1, 3)])

    # shell l (1-based) holds vertices 1 + (l - 1) * nd + i; each prism's
    # corners are its sorted bottom triangle b0 b1 b2, then the top t0 t1 t2
    cone = np.column_stack([np.zeros(len(faces), dtype=np.int64), 1 + faces])
    bottom = 1 + np.sort(faces, axis=1) + (nd * np.arange(radial_layers - 1))[:, None, None]
    prism = np.concatenate([bottom, bottom + nd], axis=2)
    split = [[0, 1, 2, 5], [0, 1, 4, 5], [0, 3, 4, 5]]   # b0b1b2t2, b0b1t1t2, b0t0t1t2
    tets = np.vstack([cone, prism[:, :, split].reshape(-1, 4)])

    boundary_ids = 1 + (radial_layers - 1) * nd + np.arange(nd)
    boundary = TriangleMesh(vertices[boundary_ids], faces)
    return TetMesh(vertices, tets, boundary, boundary_ids)


# -- field states ------------------------------------------------------------

@dataclass
class FieldState:
    """Vertex field values, optionally with a short trajectory around them.

    ``trajectory`` is (s, n, k) with odd s >= 3; ``values`` must equal the
    middle snapshot.  Rates are central differences at the middle snapshot
    (one-sided at the trajectory ends when snapshot rates are requested).
    """

    values: np.ndarray
    trajectory: Optional[np.ndarray] = None
    dt: Optional[float] = None

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise ValueError("values must be (n, k)")
        if self.trajectory is not None:
            self.trajectory = np.asarray(self.trajectory, dtype=float)
            s = self.trajectory.shape[0]
            if self.trajectory.ndim != 3 or s < 3 or s % 2 == 0:
                raise ValueError("trajectory must be (s, n, k) with odd s >= 3")
            if self.dt is None or self.dt <= 0:
                raise ValueError("trajectory requires a positive dt")
            if not np.array_equal(self.trajectory[s // 2], self.values):
                raise ValueError("values must equal the middle trajectory snapshot")

    @classmethod
    def from_trajectory(cls, trajectory, dt):
        trajectory = np.asarray(trajectory, dtype=float)
        return cls(trajectory[trajectory.shape[0] // 2], trajectory, dt)

    @property
    def n_components(self):
        return self.values.shape[1]

    def rates(self):
        """Field rate at the middle snapshot; zeros for a static state."""
        if self.trajectory is None:
            return np.zeros_like(self.values)
        return self.snapshot_rates(self.trajectory.shape[0] // 2)

    def _rates_at(self, ids=slice(None)):
        """Middle-snapshot rates at ``ids``; None for a static state."""
        return None if self.trajectory is None else self.rates()[ids]

    def snapshot_rates(self, s):
        traj = self.trajectory
        if s == 0:
            return (traj[1] - traj[0]) / self.dt
        if s == traj.shape[0] - 1:
            return (traj[-1] - traj[-2]) / self.dt
        return (traj[s + 1] - traj[s - 1]) / (2.0 * self.dt)


# -- assembly ----------------------------------------------------------------

def _check_components(mesh, bulk, surface, state):
    k = state.n_components
    if state.values.shape[0] != mesh.n_vertices:
        raise ValueError("state has wrong number of vertices for this mesh")
    if bulk is not None and bulk.n_components != k:
        raise ValueError("bulk lagrangian component count mismatch")
    if surface is not None and surface.n_components != k:
        raise ValueError("surface lagrangian component count mismatch")


def _pointwise(simplices, hat, values, rates):
    """Corner-expanded quadrature inputs (phi, rate, grad), ``m * c`` rows;
    ``rates=None`` (a static state) gives zero rate rows."""
    m, c = simplices.shape
    k = values.shape[1]
    phi_c = values[simplices]                             # (m, c, k)
    grad = np.einsum("tck,tcj->tkj", phi_c, hat)
    rate = (np.zeros((m * c, k)) if rates is None
            else np.atleast_2d(rates)[simplices].reshape(m * c, k))
    return phi_c.reshape(m * c, k), rate, np.repeat(grad, c, axis=0)


def _simplex_gradient(simplices, hat, weights, n, corner_rows=None, grad_rows=None):
    """Gradient of ``sum weights * L`` over simplices, scattered to n vertices.

    ``corner_rows`` (``m * c``, k) are evaluated ``d_phi`` rows, weighted at
    the corners; any corner partial (a rate partial, say) can take their
    place.  ``grad_rows`` (``m * c``, k, 3) are evaluated ``d_grad`` rows,
    weighted and summed over the corners of each simplex, then contracted
    once with the hat gradients ``hat``.  Both parts add into one corner
    array that is scattered once.  Either may be None.  Each is dropped once
    used, so rows passed as temporaries do not stay alive to the scatter.
    """
    m, c = weights.shape
    corner = 0.0
    if corner_rows is not None:
        corner = corner_rows.reshape(m, c, -1) * weights[:, :, None]
        del corner_rows
    if grad_rows is not None:
        per_simplex = np.einsum("tc,tcx->tx", weights, grad_rows.reshape(m, c, -1))
        del grad_rows
        corner = corner + np.einsum("tkx,tcx->tck", per_simplex.reshape(m, -1, 3), hat)
    return _scatter(simplices, n, corner)


def _bulk_pointwise(mesh, values, rates):
    return _pointwise(mesh.tets, mesh.tet_gradients, values, rates)


def bulk_action(mesh, bulk, state):
    """Volume part of the action for a state on a tet mesh."""
    _check_components(mesh, bulk, None, state)
    phi, rate, grad = _bulk_pointwise(mesh, state.values, state._rates_at())
    return float(mesh.corner_weights.ravel() @ bulk.density(phi, rate, grad))


def bulk_action_gradient(mesh, bulk, state):
    """Exact gradient of :func:`bulk_action` with respect to vertex values."""
    _check_components(mesh, bulk, None, state)
    at = _bulk_pointwise(mesh, state.values, state._rates_at())
    return _simplex_gradient(mesh.tets, mesh.tet_gradients, mesh.corner_weights,
                             mesh.n_vertices, bulk.d_phi(*at), bulk.d_grad(*at))


def _surface_weights(mesh, mean_curv=None):
    """Corner weights of the plain (``w``) and curvature (``-2 H w``) terms."""
    H = mesh.vertex_mean_curvature if mean_curv is None else mean_curv
    w = mesh.corner_areas
    return w, -2.0 * H[mesh.triangles] * w


def surface_action(mesh, surface, values, rates=None, mean_curv=None):
    """Boundary action split (plain gamma0 part, -2H gamma_hat part).

    ``values`` are per-vertex fields on the triangle mesh itself; use
    :func:`assemble_action` for fields defined on a tet mesh.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    w, wc = _surface_weights(mesh, mean_curv)
    phi, rate, grad = _pointwise(mesh.triangles, mesh.hat_gradients, values, rates)
    plain = float(w.ravel() @ surface.gamma0(phi, rate, grad))
    curv = float(wc.ravel() @ surface.gamma_hat(phi, rate, grad))
    return plain, curv


def surface_action_gradient(mesh, surface, values, rates=None, mean_curv=None):
    """Exact gradient of the boundary action on a triangle mesh."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    w, wc = _surface_weights(mesh, mean_curv)
    tri, hat, n = mesh.triangles, mesh.hat_gradients, mesh.n_vertices
    at = _pointwise(tri, hat, values, rates)
    return (_simplex_gradient(tri, hat, w, n, surface.gamma0_d_phi(*at),
                              surface.gamma0_d_grad(*at))
            + _simplex_gradient(tri, hat, wc, n, surface.gamma_hat_d_phi(*at),
                                surface.gamma_hat_d_grad(*at)))


@dataclass
class ActionBreakdown:
    """Assembled action with its bulk and boundary contributions.

    ``surface_curvature`` already carries the -2H weight; ``transport_integral``
    is the surface integral of the divergence of the optional transport
    field, which vanishes identically on a closed boundary and is asserted
    against ``transport_tolerance * scale`` before being dropped.
    """

    bulk: float
    surface_plain: float
    surface_curvature: float
    transport_integral: float = 0.0

    @property
    def total(self):
        return self.bulk + self.surface_plain + self.surface_curvature


def assemble_action(mesh, bulk, surface, state, surface_transport=None,
                    transport_tolerance=1e-10):
    """Total discrete action of a field state on a tet mesh.

    ``surface_transport``, when given, is a per-face tangential vector field
    on the boundary whose surface divergence is integrated and required to
    cancel (closed-surface transport terms contribute nothing to the action).
    """
    _check_components(mesh, bulk, surface, state)
    b = bulk_action(mesh, bulk, state)
    ids = mesh.boundary_vertex_ids
    plain, curv = surface_action(mesh.boundary, surface, state.values[ids],
                                 state._rates_at(ids))

    transport = 0.0
    if surface_transport is not None:
        V = np.asarray(surface_transport, dtype=float)
        flux = np.einsum("fj,fcj->fc", V * mesh.boundary.face_areas[:, None],
                         mesh.boundary.hat_gradients)
        transport = float(-flux.sum())
        scale = 1.0 + float(np.abs(V).max()) * mesh.boundary.total_area
        if abs(transport) > transport_tolerance * scale:
            raise AssertionError(
                f"closed-surface transport integral {transport:.3e} exceeds "
                f"tolerance {transport_tolerance * scale:.3e}")
    return ActionBreakdown(b, plain, curv, transport)


def action_gradient(mesh, bulk, surface, state):
    """Exact gradient of the total action with respect to vertex values."""
    _check_components(mesh, bulk, surface, state)
    out = bulk_action_gradient(mesh, bulk, state)
    ids = mesh.boundary_vertex_ids
    out[ids] += surface_action_gradient(mesh.boundary, surface, state.values[ids],
                                        state._rates_at(ids))
    return out


# -- residual reports ---------------------------------------------------------

def euler_lagrange_residual(mesh, bulk, state):
    """Pointwise Euler-Lagrange defect, one row per vertex.

    Interior rows divide the bulk gradient by dual volumes, recovering
    dL/dphi - div(dL/dgrad) (+ the rate bracket along a trajectory); rows at
    boundary vertices additionally contain the flux and are reported as-is.
    """
    _check_components(mesh, bulk, None, state)
    if bulk.rate_dependent and state.trajectory is None:
        raise ValueError("bulk lagrangian depends on the field rate; supply "
                         "a FieldState with a trajectory")
    res = bulk_action_gradient(mesh, bulk, state) / mesh.dual_volumes[:, None]
    if state.trajectory is not None and bulk.rate_dependent:
        mid = state.trajectory.shape[0] // 2
        momenta = []
        for s in (mid - 1, mid + 1):
            at = _bulk_pointwise(mesh, state.trajectory[s], state.snapshot_rates(s))
            p = _simplex_gradient(mesh.tets, mesh.tet_gradients, mesh.corner_weights,
                                  mesh.n_vertices, bulk.d_rate(*at))
            momenta.append(p / mesh.dual_volumes[:, None])
        # for a 3-snapshot trajectory the end rates are one-sided, which
        # places the momenta at the half-steps: a staggered first difference
        span = state.dt if state.trajectory.shape[0] == 3 else 2.0 * state.dt
        res -= (momenta[1] - momenta[0]) / span
    return res


@dataclass
class BCResidualReport:
    """Natural boundary condition defect at every boundary vertex.

    ``residual = flux_weak - rhs`` exactly, where ``flux_weak`` is the
    variational flux recovery (bulk gradient boundary rows over vertex
    areas) and ``rhs`` collects the boundary-condition terms from the
    surface gradient rows.  ``terms`` splits rhs into the plain-potential,
    weak-divergence and curvature channels, plus a diagnostic separation of
    the curvature gradient coupling (``curv_div_frozen`` + ``grad_H_term``
    differ from the merged channel by a discretization-order product rule).
    ``flux_pointwise`` is an independent dual-volume average of the bulk
    momentum dotted with the vertex normal.
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

    Each partial is evaluated once; ``grad_H_term`` uses the vertex gradient
    of the cached H, not a shape-operator fit.
    """
    _check_components(mesh, bulk, surface, state)
    if surface.rate_dependent and state.trajectory is None:
        raise ValueError(
            "surface lagrangian depends on the field rate; supply a "
            "FieldState with a trajectory")
    B = mesh.boundary
    ids = mesh.boundary_vertex_ids
    area = B.vertex_areas
    a = area[:, None]
    k = state.n_components

    bulk_at = _bulk_pointwise(mesh, state.values, state._rates_at())
    bulk_d_phi, bulk_d_grad = bulk.d_phi(*bulk_at), bulk.d_grad(*bulk_at)
    del bulk_at  # the d_grad rows outlive the inputs; keep the peak memory down
    g_bulk = _simplex_gradient(mesh.tets, mesh.tet_gradients, mesh.corner_weights,
                               mesh.n_vertices, bulk_d_phi, bulk_d_grad)
    flux_weak = g_bulk[ids] / a

    tri, hat, nb = B.triangles, B.hat_gradients, B.n_vertices
    H = B.vertex_mean_curvature
    w, wc = _surface_weights(B)
    at = _pointwise(tri, hat, state.values[ids], state._rates_at(ids))
    hat_d_grad = surface.gamma_hat_d_grad(*at)

    def assemble(weights, corner_rows=None, grad_rows=None):
        return _simplex_gradient(tri, hat, weights, nb, corner_rows, grad_rows)

    terms = {
        "gamma0_phi": -assemble(w, surface.gamma0_d_phi(*at)) / a,
        "gamma0_div": -assemble(w, grad_rows=surface.gamma0_d_grad(*at)) / a,
        "curv_phi": -assemble(wc, surface.gamma_hat_d_phi(*at)) / a,
        "curv_div": -assemble(wc, grad_rows=hat_d_grad) / a,
    }
    # diagnostic split of the curvature gradient channel
    R_frozen = assemble(w, grad_rows=hat_d_grad)
    W = _scatter(tri, nb, hat_d_grad.reshape(-1, 3, k, 3)
                 * w[:, :, None, None]) / area[:, None, None]
    terms["curv_div_frozen"] = 2.0 * H[:, None] * (R_frozen / a)
    terms["grad_H_term"] = -2.0 * np.einsum("vkj,vj->vk", W, _vertex_grad_H(B))

    rhs = terms["gamma0_phi"] + terms["gamma0_div"] + terms["curv_phi"] + terms["curv_div"]

    # d/dt of the rate momenta, from the trajectory snapshots around the middle
    has_rate = surface.gamma0_d_rate is not None or surface.gamma_hat_d_rate is not None
    if state.trajectory is not None and has_rate:
        momenta = []
        mid = state.trajectory.shape[0] // 2
        for s in (mid - 1, mid + 1):
            at_s = _pointwise(tri, hat, state.trajectory[s][ids],
                              state.snapshot_rates(s)[ids])
            p = 0.0
            if surface.gamma0_d_rate is not None:
                p = p + assemble(w, surface.gamma0_d_rate(*at_s))
            if surface.gamma_hat_d_rate is not None:
                p = p + assemble(wc, surface.gamma_hat_d_rate(*at_s))
            momenta.append(p / a)
        span = state.dt if state.trajectory.shape[0] == 3 else 2.0 * state.dt
        terms["rate_bracket"] = (momenta[1] - momenta[0]) / span
        rhs = rhs + terms["rate_bracket"]

    residual = flux_weak - rhs

    # independent pointwise flux: dual-volume-averaged momentum dotted with normals
    mom = _scatter(mesh.tets, mesh.n_vertices,
                   bulk_d_grad.reshape(-1, 4, k, 3) * mesh.corner_weights[:, :, None, None])
    mom = mom[ids] / mesh.dual_volumes[ids][:, None, None]
    flux_pointwise = np.einsum("vkj,vj->vk", mom, B.vertex_normals)

    return BCResidualReport(residual, flux_weak, rhs, terms, flux_pointwise,
                            ids, area)


# -- stationary solver ---------------------------------------------------------

@dataclass
class SolveOptions:
    tolerance: float = 1e-10
    max_iterations: int = 5000
    gauge: str = "none"
    force_newton: bool = False
    newton_max: int = 50
    armijo: float = 1e-4


@dataclass
class ConvergenceLog:
    method: str
    iterations: int
    residual_norms: list = field(default_factory=list)
    final_residual: float = np.inf
    converged: bool = False
    notes: list = field(default_factory=list)


def _gauge_basis(mesh, k, gauge):
    if gauge == "none":
        return None
    if gauge not in ("zero_mean", "rigid"):
        raise ValueError(f"unknown gauge {gauge!r}")
    if gauge == "rigid" and k != 3:
        raise ValueError("rigid gauge requires a 3-component field")
    # column c shifts component c by one at every vertex
    modes = np.tile(np.eye(k), (mesh.n_vertices, 1))
    if gauge == "rigid":
        x = mesh.vertices - mesh.vertices.mean(axis=0)
        modes = np.column_stack([modes] + [np.cross(axis, x).ravel() for axis in np.eye(3)])
    q, _ = np.linalg.qr(modes)
    return q


def _cg(apply, b, done, max_iterations):
    """Conjugate gradients for ``apply(x) = b`` from ``x = 0``.

    Stops when ``done(r)`` holds (it sees the initial and every updated
    residual), after ``max_iterations`` steps, or on ``p.Ap <= 0``.
    Returns ``(x, iterations, definite)``, ``definite`` False on the last.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    iterations = 0
    while not done(r) and iterations < max_iterations:
        Ap = apply(p)
        pAp = p @ Ap
        if pAp <= 0:
            return x, iterations, False
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr_new = r @ r
        p = r + (rr_new / rr) * p
        rr = rr_new
        iterations += 1
    return x, iterations, True


def solve_stationary(mesh, bulk, surface, initial=None, options=None):
    """Find a stationary point of the assembled action.

    Quadratic problems use matrix-free conjugate gradients on the exact
    operator (gradient differences); anything else, or ``force_newton``,
    runs damped Newton with truncated-CG steps on finite-difference
    curvature applications.  One CG routine, :func:`_cg`, serves both.
    Convergence is measured in the max norm of the (gauge-projected)
    gradient.  A pure-Neumann problem whose data is incompatible with the
    constant nullspace raises :class:`SingularProblemError`.

    Fallbacks are noted in the log and reported on the ``curvbc`` logger:
    CG leaving for Newton when the operator is not positive definite
    (warning), a Newton step taken as steepest descent because its CG meets
    ``p.Ap <= 0`` at once (info), and a line search that finds no Armijo
    decrease, which ends the solve unconverged without the step (warning).
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

    def grad_at(values):
        st = FieldState(values, initial.trajectory, initial.dt)
        return action_gradient(mesh, bulk, surface, st)

    phi0 = initial.values.copy()
    g0 = grad_at(phi0).ravel()
    scale = 1.0 + float(np.abs(g0).max())

    quadratic = bulk.quadratic and surface.quadratic and not options.force_newton

    def operator(d):
        return grad_at(phi0 + d.reshape(phi0.shape)).ravel() - g0

    if quadratic and options.gauge == "none":
        # probe the constant shifts: annihilated + loaded means incompatible data
        for c in range(k):
            shift = np.zeros_like(phi0)
            shift[:, c] = 1.0
            q = operator(shift.ravel())
            if np.abs(q).max() <= 1e-12 * scale:
                if abs(g0 @ shift.ravel()) > 1e-10 * scale * mesh.n_vertices:
                    raise SingularProblemError(
                        "constant shifts are in the nullspace but the data "
                        "does not balance; fix the model or use gauge='zero_mean'")
                basis = _gauge_basis(mesh, k, "zero_mean")

    log = ConvergenceLog(method="cg" if quadratic else "newton", iterations=0)

    if quadratic:
        def converged(r):
            log.residual_norms.append(float(np.abs(r).max()))
            return log.residual_norms[-1] <= options.tolerance

        x, its, definite = _cg(lambda p: project(operator(p)), project(-g0),
                               converged, options.max_iterations)
        if not definite:
            note = "operator lost positive definiteness; switching to newton"
            log.notes.append(note)
            _LOG.warning("solve_stationary: %s (CG iteration %d)", note, its)
            quadratic = False
        log.iterations = its
        phi = phi0 + x.reshape(phi0.shape)

    line_search_failed = False
    if not quadratic:
        log.method = "newton"
        phi = phi0.copy()
        action_of = lambda v: assemble_action(
            mesh, bulk, surface, FieldState(v, initial.trajectory, initial.dt)).total
        for it in range(options.newton_max):
            g = grad_at(phi).ravel()
            gn = float(np.abs(project(g)).max())
            log.residual_norms.append(gn)
            log.iterations = it
            if gn <= options.tolerance:
                break
            # inexact Newton step: truncated CG on finite-difference Hessian applies
            flat = phi.ravel()
            fd_scale = 1.0 + float(np.abs(flat).max())

            def hess_apply(v):
                vn = np.linalg.norm(v)
                if vn == 0:
                    return np.zeros_like(v)
                eps = 1e-7 * fd_scale / vn
                gp = grad_at((flat + eps * v).reshape(phi.shape)).ravel()
                return project((gp - g) / eps)

            b = project(-g)
            tol = max(1e-2 * np.linalg.norm(b), 1e-14)
            d, its, definite = _cg(hess_apply, b, lambda r: np.linalg.norm(r) <= tol, 200)
            if not definite and its == 0:
                d = b
                note = f"steepest descent at newton iteration {it}"
                log.notes.append(note)
                _LOG.info("solve_stationary: %s", note)
            t = 1.0
            a0 = action_of(phi)
            slope = g @ d
            while t > 1e-12:
                if action_of(phi + t * d.reshape(phi.shape)) <= a0 + options.armijo * t * slope:
                    break
                t *= 0.5
            else:
                note = f"line search failed: no Armijo decrease at newton iteration {it}"
                log.notes.append(note)
                _LOG.warning("solve_stationary: %s", note)
                line_search_failed = True
                break
            phi = phi + t * d.reshape(phi.shape)

    g_final = project(grad_at(phi).ravel())
    log.final_residual = float(np.abs(g_final).max())
    log.converged = log.final_residual <= options.tolerance and not line_search_failed
    state = FieldState(phi, initial.trajectory, initial.dt)
    return state, log

