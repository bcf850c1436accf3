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
element-then-scatter path (:func:`_simplex_gradient`): an element corner
array per simplex, added into the vertex rows by one bincount scatter.

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

from .surface_mesh import (TriangleMesh, _scatter, build_icosphere,
                           shape_operator)
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
        self.corner_weights = np.repeat(self.tet_volumes / 4.0, 4).reshape(-1, 4)
        self.dual_volumes = _scatter(tets, len(self.vertices), self.corner_weights)
        self.boundary = boundary
        self.boundary_vertex_ids = np.asarray(boundary_vertex_ids, dtype=np.int64)
        if len(self.boundary_vertex_ids) != boundary.n_vertices:
            raise ValueError("boundary_vertex_ids must match the boundary mesh")
        if len(np.unique(self.boundary_vertex_ids)) != boundary.n_vertices:
            raise ValueError("boundary_vertex_ids must be distinct")
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

    verts = [center]
    for layer in range(1, radial_layers + 1):
        r = radius * (layer / radial_layers) ** grading
        verts.append(center + r * dirs)
    vertices = np.vstack([verts[0][None, :]] + verts[1:])

    def vid(layer, i):
        return 1 + (layer - 1) * nd + i

    tets = []
    for p, q, r in faces:
        tets.append((0, vid(1, p), vid(1, q), vid(1, r)))
    for layer in range(1, radial_layers):
        for tri in faces:
            i0, i1, i2 = sorted(tri)
            b0, b1, b2 = vid(layer, i0), vid(layer, i1), vid(layer, i2)
            t0, t1, t2 = vid(layer + 1, i0), vid(layer + 1, i1), vid(layer + 1, i2)
            tets.append((b0, b1, b2, t2))
            tets.append((b0, b1, t1, t2))
            tets.append((b0, t0, t1, t2))

    boundary_ids = np.array([vid(radial_layers, i) for i in range(nd)])
    boundary = TriangleMesh(vertices[boundary_ids], faces)
    return TetMesh(vertices, np.array(tets, dtype=np.int64), boundary, boundary_ids)


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
        mid = self.trajectory.shape[0] // 2
        return (self.trajectory[mid + 1] - self.trajectory[mid - 1]) / (2.0 * self.dt)

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
    """Corner-expanded quadrature inputs (phi, rate, grad), ``m * c`` rows."""
    m, c = simplices.shape
    k = values.shape[1]
    phi_c = values[simplices]                             # (m, c, k)
    grad = np.einsum("tck,tcj->tkj", phi_c, hat)
    return (phi_c.reshape(m * c, k), rates[simplices].reshape(m * c, k),
            np.repeat(grad, c, axis=0))


def _simplex_gradient(simplices, hat, weights, n, phi, rate, grad, d_phi, d_grad):
    """Gradient of ``sum weights * L`` over simplices, scattered to n vertices.

    ``d_phi`` is weighted at the corners; ``d_grad`` rows are weighted and
    summed over the corners of each simplex, then contracted once with the
    hat gradients ``hat``.  Both parts add into one corner array that is
    scattered once.  Either partial may be None; any corner partial (a rate
    partial, say) can take the place of ``d_phi``.
    """
    m, c = weights.shape
    k = phi.shape[1]
    corner = 0.0
    if d_phi is not None:
        corner = d_phi(phi, rate, grad).reshape(m, c, k) * weights[:, :, None]
    if d_grad is not None:
        per_simplex = np.einsum("tc,tcx->tx", weights,
                                d_grad(phi, rate, grad).reshape(m, c, k * 3))
        corner = corner + np.einsum("tkx,tcx->tck", per_simplex.reshape(m, k, 3), hat)
    return _scatter(simplices, n, corner)


def _bulk_pointwise(mesh, values, rates):
    return _pointwise(mesh.tets, mesh.tet_gradients, values, rates)


def bulk_action(mesh, bulk, state):
    """Volume part of the action for a state on a tet mesh."""
    _check_components(mesh, bulk, None, state)
    phi, rate, grad = _bulk_pointwise(mesh, state.values, state.rates())
    return float(mesh.corner_weights.ravel() @ bulk.density(phi, rate, grad))


def bulk_action_gradient(mesh, bulk, state):
    """Exact gradient of :func:`bulk_action` with respect to vertex values."""
    _check_components(mesh, bulk, None, state)
    phi, rate, grad = _bulk_pointwise(mesh, state.values, state.rates())
    return _simplex_gradient(mesh.tets, mesh.tet_gradients, mesh.corner_weights,
                             mesh.n_vertices, phi, rate, grad, bulk.d_phi, bulk.d_grad)


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
    rates = np.zeros_like(values) if rates is None else np.atleast_2d(rates)
    w, wc = _surface_weights(mesh, mean_curv)
    phi, rate, grad = _pointwise(mesh.triangles, mesh.hat_gradients, values, rates)
    plain = float(w.ravel() @ surface.gamma0(phi, rate, grad))
    curv = float(wc.ravel() @ surface.gamma_hat(phi, rate, grad))
    return plain, curv


def surface_action_gradient(mesh, surface, values, rates=None, mean_curv=None):
    """Exact gradient of the boundary action on a triangle mesh."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    rates = np.zeros_like(values) if rates is None else np.atleast_2d(rates)
    w, wc = _surface_weights(mesh, mean_curv)
    tri, hat, n = mesh.triangles, mesh.hat_gradients, mesh.n_vertices
    phi, rate, grad = _pointwise(tri, hat, values, rates)
    return (_simplex_gradient(tri, hat, w, n, phi, rate, grad,
                              surface.gamma0_d_phi, surface.gamma0_d_grad)
            + _simplex_gradient(tri, hat, wc, n, phi, rate, grad,
                                surface.gamma_hat_d_phi, surface.gamma_hat_d_grad))


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
    bvals = state.values[mesh.boundary_vertex_ids]
    brates = state.rates()[mesh.boundary_vertex_ids]
    plain, curv = surface_action(mesh.boundary, surface, bvals, brates)

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
    bvals = state.values[mesh.boundary_vertex_ids]
    brates = state.rates()[mesh.boundary_vertex_ids]
    out[mesh.boundary_vertex_ids] += surface_action_gradient(
        mesh.boundary, surface, bvals, brates)
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
            phi, rate, grad = _bulk_pointwise(mesh, state.trajectory[s],
                                              state.snapshot_rates(s))
            p = _simplex_gradient(mesh.tets, mesh.tet_gradients, mesh.corner_weights,
                                  mesh.n_vertices, phi, rate, grad, bulk.d_rate, None)
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
    """Evaluate the curvature-dependent natural boundary condition defect."""
    _check_components(mesh, bulk, surface, state)
    if surface.rate_dependent and state.trajectory is None:
        raise ValueError(
            "surface lagrangian depends on the field rate; supply a "
            "FieldState with a trajectory")
    B = mesh.boundary
    ids = mesh.boundary_vertex_ids
    area = B.vertex_areas
    k = state.n_components

    g_bulk = bulk_action_gradient(mesh, bulk, state)[ids]
    flux_weak = g_bulk / area[:, None]

    tri, hat, nb = B.triangles, B.hat_gradients, B.n_vertices
    H = B.vertex_mean_curvature
    w, wc = _surface_weights(B)
    at_state = _pointwise(tri, hat, state.values[ids], state.rates()[ids])

    def assemble(weights, d_phi=None, d_grad=None, inputs=at_state):
        return _simplex_gradient(tri, hat, weights, nb, *inputs, d_phi, d_grad)

    a = area[:, None]
    terms = {
        "gamma0_phi": -assemble(w, d_phi=surface.gamma0_d_phi) / a,
        "gamma0_div": -assemble(w, d_grad=surface.gamma0_d_grad) / a,
        "curv_phi": -assemble(wc, d_phi=surface.gamma_hat_d_phi) / a,
        "curv_div": -assemble(wc, d_grad=surface.gamma_hat_d_grad) / a,
    }
    # diagnostic split of the curvature gradient channel
    R_frozen = assemble(w, d_grad=surface.gamma_hat_d_grad)
    curv = shape_operator(B)
    W = _scatter(tri, nb, surface.gamma_hat_d_grad(*at_state).reshape(-1, 3, k, 3)
                 * w[:, :, None, None]) / area[:, None, None]
    terms["curv_div_frozen"] = 2.0 * H[:, None] * (R_frozen / a)
    terms["grad_H_term"] = -2.0 * np.einsum("vkj,vj->vk", W, curv.grad_H)

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
                p = p + assemble(w, d_phi=surface.gamma0_d_rate, inputs=at_s)
            if surface.gamma_hat_d_rate is not None:
                p = p + assemble(wc, d_phi=surface.gamma_hat_d_rate, inputs=at_s)
            momenta.append(p / a)
        span = state.dt if state.trajectory.shape[0] == 3 else 2.0 * state.dt
        terms["rate_bracket"] = (momenta[1] - momenta[0]) / span
        rhs = rhs + terms["rate_bracket"]

    residual = flux_weak - rhs

    # independent pointwise flux: dual-volume-averaged momentum dotted with normals
    d_grad = bulk.d_grad(*_bulk_pointwise(mesh, state.values, state.rates()))
    mom = _scatter(mesh.tets, mesh.n_vertices,
                   d_grad.reshape(-1, 4, k, 3) * mesh.corner_weights[:, :, None, None])
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
    verbose: bool = False


@dataclass
class ConvergenceLog:
    method: str
    iterations: int
    residual_norms: list = field(default_factory=list)
    final_residual: float = np.inf
    converged: bool = False
    notes: list = field(default_factory=list)


def _gauge_basis(mesh, k, gauge):
    n = mesh.n_vertices
    if gauge == "none":
        return None
    if gauge == "zero_mean":
        modes = np.zeros((n * k, k))
        for c in range(k):
            m = np.zeros((n, k))
            m[:, c] = 1.0
            modes[:, c] = m.ravel()
    elif gauge == "rigid":
        if k != 3:
            raise ValueError("rigid gauge requires a 3-component field")
        cols = []
        for c in range(3):
            m = np.zeros((n, 3))
            m[:, c] = 1.0
            cols.append(m.ravel())
        x = mesh.vertices - mesh.vertices.mean(axis=0)
        for c in range(3):
            axis = np.zeros(3)
            axis[c] = 1.0
            cols.append(np.cross(axis, x).ravel())
        modes = np.stack(cols, axis=1)
    else:
        raise ValueError(f"unknown gauge {gauge!r}")
    q, _ = np.linalg.qr(modes)
    return q


def solve_stationary(mesh, bulk, surface, initial=None, options=None):
    """Find a stationary point of the assembled action.

    Quadratic problems use matrix-free conjugate gradients on the exact
    operator (gradient differences); anything else, or ``force_newton``,
    runs damped Newton with finite-difference curvature applications.
    Convergence is measured in the max norm of the (gauge-projected)
    gradient.  A pure-Neumann problem whose data is incompatible with the
    constant nullspace raises :class:`SingularProblemError`.

    Fallbacks are noted in the log and warned about on the ``curvbc``
    logger: CG leaving for Newton when the operator is not positive
    definite, and a line search that finds no Armijo decrease, which ends
    the solve unconverged without taking the step.
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
        b = project(-g0)
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rr = r @ r
        log.residual_norms.append(float(np.abs(r).max()))
        for it in range(options.max_iterations):
            if np.abs(r).max() <= options.tolerance:
                break
            Ap = project(operator(p))
            pAp = p @ Ap
            if pAp <= 0:
                note = "operator lost positive definiteness; switching to newton"
                log.notes.append(note)
                _LOG.warning("solve_stationary: %s (CG iteration %d)", note, it)
                quadratic = False
                break
            alpha = rr / pAp
            x += alpha * p
            r -= alpha * Ap
            rr_new = r @ r
            p = r + (rr_new / rr) * p
            rr = rr_new
            log.iterations = it + 1
            log.residual_norms.append(float(np.abs(r).max()))
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
            d = _newton_direction(phi, g, grad_at, project, options)
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


def _newton_direction(phi, g, grad_at, project, options):
    """Inexact Newton step via CG with finite-difference Hessian applies."""
    flat = phi.ravel()
    scale = 1.0 + float(np.abs(flat).max())

    def hess_apply(d):
        dn = np.linalg.norm(d)
        if dn == 0:
            return np.zeros_like(d)
        eps = 1e-7 * scale / dn
        gp = grad_at((flat + eps * d).reshape(phi.shape)).ravel()
        return project((gp - g) / eps)

    b = project(-g)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    tol = max(1e-2 * np.linalg.norm(b), 1e-14)
    for _ in range(200):
        if np.linalg.norm(r) <= tol:
            break
        Ap = hess_apply(p)
        pAp = p @ Ap
        if pAp <= 0:
            if np.allclose(x, 0):
                return b
            break
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr_new = r @ r
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x
