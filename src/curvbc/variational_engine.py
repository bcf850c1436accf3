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
from functools import cached_property
from time import perf_counter
from typing import Optional

import numpy as np

from .surface_mesh import (TriangleMesh, _bad_face, _cross, _dot, _paired, _scatter,
                           _signed_keys, _unit_icosphere, _vertex_grad_H)
# re-exported: the name is part of this module's namespace
from .surface_mesh import mean_curvature  # noqa: F401


_LOG = logging.getLogger("curvbc")

_CG_MAX_ITERATIONS = 5000
# steps of the solve loop before it gives up
_MAX_STEPS = 50
# a step of length t is accepted when it cuts the gradient norm by 1 - _DECREASE * t
_DECREASE = 1e-4
_TRANSPORT_TOLERANCE = 1e-10
# relative 2-norm tolerance of a step's CG solve on the assembled tangent
_TANGENT_TOLERANCE = 1e-10
# simplices per assembly block: keeps a block's temporaries cache-sized
_BLOCK = 8192
# relative deviation between a partial's Jacobians at zero and at a random
# point above which the partial counts as not affine
_AFFINE_TOLERANCE = 1e-8
# exponent of the ball's shell radii: below 1 it clusters the shells near the
# boundary, where flux accuracy matters, and fattens the innermost cone cells
_SHELL_GRADING = 0.7
# cells per bounding-box axis of the voxel grid that cuts the boundary into
# the patches of the tangent preconditioner's coarse aggregates
_PATCH_GRID = 3


class SingularProblemError(RuntimeError):
    """Stationarity system has a nullspace incompatible with the data."""


# -- tetrahedral meshes -----------------------------------------------------

class TetMesh:
    """Tetrahedral mesh of a solid with a closed triangulated boundary.

    Parameters
    ----------
    vertices : (n, 3) float array
    tets : (m, 4) int array
        Corner indices in ``[0, n)``; orientation is canonicalized to
        positive volume.  A vertex on no tet raises ValueError naming it.
    boundary : TriangleMesh
        Closed outward-oriented boundary surface, the tet faces used once.
    boundary_vertex_ids : (nb,) int array
        Volume vertex index, in ``[0, n)``, of each boundary-mesh vertex.
        An index out of range raises ValueError naming it.

    Attributes
    ----------
    tet_volumes : (m,) positive volumes.
    tet_gradients : (m, 4, 3) gradients of the corner hat functions.
    corner_weights : (m, 4) quarter volumes, the corner quadrature weights.
    dual_volumes : (n,) quarter-volume lumped vertex measures.
    boundary_layer : (t,) ids, in order, of the tets with a boundary vertex;
        computed on first access and kept.

    The geometry is built from a corner-major copy of the tets, ``_BLOCK``
    tets at a time, on contiguous per-component vectors
    (:func:`_tet_block_geometry`); the boundary check reads the same copy
    and shares its face keys and pairing test with :class:`TriangleMesh`.
    """

    def __init__(self, vertices, tets, boundary, boundary_vertex_ids):
        self.vertices = np.asarray(vertices, dtype=float)
        tets = np.asarray(tets, dtype=np.int64)
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise ValueError("tets must be (m, 4)")
        self.boundary_vertex_ids = np.asarray(boundary_vertex_ids, dtype=np.int64)
        n = len(self.vertices)
        for name, index in (("tets", tets), ("boundary_vertex_ids", self.boundary_vertex_ids)):
            if index.size and (index.min() < 0 or index.max() >= n):
                at = tuple(int(i) for i in np.argwhere((index < 0) | (index >= n))[0])
                raise ValueError(f"{name}{list(at)} = {index[at]} is out of range "
                                 f"for {n} vertices")
        # corner-major copy: corners[c] is the contiguous column of corner c
        corners = tets.T.copy()
        x = np.ascontiguousarray(self.vertices.T)
        m = corners.shape[1]
        self.tet_volumes = np.empty(m)
        self.tet_gradients = np.empty((m, 4, 3))
        flipped = np.empty(m, dtype=bool)
        for start in range(0, m, _BLOCK):
            b = slice(start, start + _BLOCK)
            _tet_block_geometry(x, corners[:, b], self.tet_volumes[b],
                                self.tet_gradients[b], flipped[b])
        flip = np.flatnonzero(flipped)
        corners[2, flip], corners[3, flip] = corners[3, flip], corners[2, flip]
        self.tets = tets = np.ascontiguousarray(corners.T)
        self.corner_weights = np.repeat(self.tet_volumes / 4.0, 4).reshape(-1, 4)
        self.dual_volumes = _scatter(tets, n, self.corner_weights)
        # every tet has a positive volume, so a zero dual volume marks a
        # vertex that no tet uses
        if not self.dual_volumes.all():
            raise ValueError(f"vertex {np.argmin(self.dual_volumes)} is on no tet")
        self.boundary = boundary
        if len(self.boundary_vertex_ids) != boundary.n_vertices:
            raise ValueError("boundary_vertex_ids must match the boundary mesh")
        sorted_ids = np.sort(self.boundary_vertex_ids)
        if (sorted_ids[1:] == sorted_ids[:-1]).any():
            raise ValueError("boundary_vertex_ids must be distinct")
        _check_boundary_faces(corners, n, boundary.triangles, self.boundary_vertex_ids)
        mask = np.ones(n, dtype=bool)
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

    @cached_property
    def boundary_layer(self):
        return np.flatnonzero(~self.interior_mask[self.tets].all(axis=1))


def _tet_block_geometry(x, corners, volumes, grads, flipped):
    """Fill one block's ``volumes`` (b,), hat ``grads`` (b, 4, 3) and
    ``flipped`` (b,) mask of negatively oriented tets, from the coordinate
    rows ``x`` (3, n) and the block's ``corners`` (4, b).

    With edges e_c = x_c - x_0, the adjugate rows (e2 x e3, e3 x e1, e1 x e2)
    over 6V = e1 . (e2 x e3) are the hat gradients of corners 1..3, and
    corner 0's is minus their sum.  A tet with 6V < 0 is flipped by swapping
    corners 2 and 3 and their rows (same 6V).  Every operand is a contiguous
    per-component vector of the block, and products and sums are formed in
    the order np.cross and np.einsum use on (b, 3) rows, so the results have
    their bits.
    """
    xs = np.take(x, corners, axis=1)                  # (component, corner, b)
    e = xs[:, 1:] - xs[:, :1]                         # edges of corners 1..3
    del xs
    g = np.empty((4, 3, corners.shape[1]))            # (corner, component, b)
    _cross(e[:, 1], e[:, 2], out=g[1])
    six_v = _dot(e[:, 0], g[1])
    np.abs(six_v, out=volumes)
    volumes /= 6.0
    if np.any(volumes <= 0):
        raise ValueError("degenerate tetrahedron (zero volume)")
    _cross(e[:, 2], e[:, 0], out=g[2])
    _cross(e[:, 0], e[:, 1], out=g[3])
    del e
    np.less(six_v, 0, out=flipped)
    g[2], g[3] = np.where(flipped, g[3], g[2]), np.where(flipped, g[2], g[3])
    g[1:] /= six_v
    # minus the sum as numpy's reduction over rows forms it, from +0
    np.add(g[1], g[2], out=g[0])
    g[0] += g[3]
    g[0] += 0.0
    np.negative(g[0], out=g[0])
    grads[...] = g.transpose(2, 0, 1)


# faces of a positively oriented tet (0, 1, 2, 3), wound with outward normals
_TET_FACES = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def _check_boundary_faces(corners, n, triangles, ids):
    """Raise ValueError unless the tet faces used once are the boundary triangles.

    With every boundary triangle added reversed, each face must occur exactly
    twice with opposite windings: an interior face between its two
    positively oriented tets, a boundary face between its tet and the
    outward boundary triangle: :func:`_paired` on the rows, slot-major tet
    faces of the corner-major ``corners`` (4, m), then reversed triangles.
    A mesh that fails names its smallest bad face, by a boundary triangle if
    it has one.
    """
    if n >= 2**21:
        raise ValueError("the boundary check supports fewer than 2**21 vertices")
    rows = ([tuple(corners[i] for i in face) for face in _TET_FACES]
            + [tuple(ids[triangles.T][::-1])])
    if _paired(_signed_keys(n, rows)):
        return
    bad = _bad_face(_signed_keys(n, rows))
    row, m = int(bad.max()), corners.shape[1]     # a triangle if any
    what = (f"boundary triangle {row - 4 * m}" if row >= 4 * m
            else f"face {corners[_TET_FACES[row // m], row % m].tolist()} of tet {row % m}")
    why = {1: "is used once" if row < 4 * m else "is not a tet face",
           2: "is wound inward"}.get(len(bad), f"is shared {len(bad)} times")
    raise ValueError(f"boundary mismatch: {what} {why}")


def build_ball_tetmesh(radius=1.0, surface_level=4, radial_layers=12):
    """Tetrahedralize a ball with icosphere layers joined by prism splits.

    Vertices are the origin plus ``radial_layers`` concentric icosphere
    shells; each prism between consecutive shells is cut into three tets
    with diagonals chosen by sorted vertex index so neighbouring prisms
    agree, and the innermost shell is coned to the origin.  Shell radii
    follow ``radius * (layer/radial_layers)**_SHELL_GRADING``.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if radial_layers < 1:
        raise ValueError("need at least one radial layer")
    dirs, faces = _unit_icosphere(surface_level)
    nd = len(dirs)

    r = np.array([radius * (layer / radial_layers) ** _SHELL_GRADING
                  for layer in range(1, radial_layers + 1)])
    vertices = np.vstack([np.zeros(3), (r[:, None, None] * dirs).reshape(-1, 3)])

    # shell l (1-based) holds vertices 1 + (l - 1) * nd + i; each prism's
    # corners are its sorted bottom triangle b0 b1 b2, then the top t0 t1 t2
    cone = np.column_stack([np.zeros(len(faces), dtype=np.int64), 1 + faces])
    bottom = 1 + np.sort(faces, axis=1) + (nd * np.arange(radial_layers - 1))[:, None, None]
    prism = np.concatenate([bottom, bottom + nd], axis=2)
    del bottom
    split = [[0, 1, 2, 5], [0, 1, 4, 5], [0, 3, 4, 5]]   # b0b1b2t2, b0b1t1t2, b0t0t1t2
    tets = np.vstack([cone, np.take(prism, split, axis=2).reshape(-1, 4)])
    del cone, prism   # not held through the TetMesh build

    boundary_ids = 1 + (radial_layers - 1) * nd + np.arange(nd)
    boundary = TriangleMesh(vertices[boundary_ids], faces)
    return TetMesh(vertices, tets, boundary, boundary_ids)


# -- field states ------------------------------------------------------------

def _columns(values):
    """Float vertex rows (n, k); a vertex scalar field (n,) is one column."""
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else values


@dataclass
class FieldState:
    """Vertex field values, optionally with a short trajectory around them.

    ``values`` are (n, k) and ``trajectory`` (s, n, k) with odd s >= 3, or
    (n,) and (s, n) for a scalar field, read as one column; ``values`` must
    equal the middle snapshot.  ``rates``, computed once, are the central
    differences there, and None for a static state, whose partials see zero
    rates (:meth:`snapshot_rates` are one-sided at the ends).  A pair needs a
    trajectory exactly where a rate partial it gives enters a rate bracket.
    """

    values: np.ndarray
    trajectory: Optional[np.ndarray] = None
    dt: Optional[float] = None
    rates: Optional[np.ndarray] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.values = _columns(self.values)
        if self.values.ndim != 2:
            raise ValueError("values must be (n, k)")
        if self.trajectory is not None:
            trajectory = np.asarray(self.trajectory, dtype=float)
            self.trajectory = trajectory[..., None] if trajectory.ndim == 2 else trajectory
            s = self.trajectory.shape[0]
            if self.trajectory.ndim != 3 or s < 3 or s % 2 == 0:
                raise ValueError("trajectory must be (s, n, k) or (s, n) with odd s >= 3")
            if self.dt is None or self.dt <= 0:
                raise ValueError("trajectory requires a positive dt")
            if not np.array_equal(self.trajectory[s // 2], self.values):
                raise ValueError("values must equal the middle trajectory snapshot")
            self.rates = self.snapshot_rates(s // 2)

    @classmethod
    def from_trajectory(cls, trajectory, dt):
        trajectory = np.asarray(trajectory, dtype=float)
        return cls(trajectory[trajectory.shape[0] // 2], trajectory, dt)

    @property
    def n_components(self):
        return self.values.shape[1]

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
    rate = np.zeros((m * c, k)) if rates is None else rates[simplices].reshape(m * c, k)
    return phi_c.reshape(m * c, k), rate, np.repeat(grad, c, axis=0)


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


def _simplex_pass(simplices, hat, values, rates, channels):
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
        at = _pointwise(simplices[b], hat[b], values, rates)
        for j, rows in enumerate(_channel_corners(hat, channels, b, at)):
            if corners[j] is None:
                corners[j] = np.empty((m, c, rows.shape[2]))
            corners[j][b] = rows
    return [_scatter(simplices, len(values), corner) for corner in corners]


def bulk_action(mesh, bulk, state):
    """Volume part of the action for a state on a tet mesh."""
    _check_components(mesh, bulk, None, state)
    density, = _simplex_pass(mesh.tets, mesh.tet_gradients, state.values, state.rates,
                             [(mesh.corner_weights, bulk.density, None)])
    return float(density.sum())


def bulk_action_gradient(mesh, bulk, state):
    """Exact gradient of :func:`bulk_action` with respect to vertex values."""
    _check_components(mesh, bulk, None, state)
    g, = _simplex_pass(mesh.tets, mesh.tet_gradients, state.values, state.rates,
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


def surface_action(mesh, surface, values, rates=None):
    """Boundary action split (plain gamma0 part, -2H gamma_hat part).

    ``values`` (and ``rates``) are per-vertex fields on the triangle mesh
    itself, (n, k) or (n,) for one component; use :func:`assemble_action`
    for fields defined on a tet mesh.
    """
    w, wc = _surface_weights(mesh)
    plain, curv = _simplex_pass(mesh.triangles, mesh.hat_gradients, _columns(values), rates,
                                [(w, surface.gamma0, None), (wc, surface.gamma_hat, None)])
    return float(plain.sum()), float(curv.sum())


def surface_action_gradient(mesh, surface, values, rates=None):
    """Exact gradient of the boundary action on a triangle mesh, for fields
    as :func:`surface_action` takes them."""
    w, wc = _surface_weights(mesh)
    g = _simplex_pass(mesh.triangles, mesh.hat_gradients, _columns(values), rates,
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
    on_boundary = _boundary_state(mesh, state)
    plain, curv = surface_action(mesh.boundary, surface, on_boundary.values, on_boundary.rates)

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
    on_boundary = _boundary_state(mesh, state)
    out[mesh.boundary_vertex_ids] += surface_action_gradient(
        mesh.boundary, surface, on_boundary.values, on_boundary.rates)
    return out


def _boundary_state(mesh, state):
    """``state`` on the boundary vertices of a tet mesh, trajectory and all."""
    ids = mesh.boundary_vertex_ids
    trajectory = None if state.trajectory is None else state.trajectory[:, ids]
    return FieldState(state.values[ids], trajectory, state.dt)


# -- residual reports ---------------------------------------------------------

def euler_lagrange_residual(mesh, bulk, state):
    """Pointwise Euler-Lagrange defect, one row per vertex.

    Interior rows divide the bulk gradient by dual volumes, recovering
    dL/dphi - div(dL/dgrad), minus the rate bracket d/dt dL/d(rate) exactly
    when the bulk gives ``d_rate``: such a bulk needs a state with a
    trajectory.  Rows at boundary vertices additionally contain the flux
    and are reported as-is.
    """
    _check_components(mesh, bulk, None, state)
    if bulk.d_rate is not None and state.trajectory is None:
        raise ValueError("bulk lagrangian depends on the field rate; supply "
                         "a FieldState with a trajectory")
    res = bulk_action_gradient(mesh, bulk, state) / mesh.dual_volumes[:, None]
    if bulk.d_rate is not None:
        def momentum(values, rates):
            p, = _simplex_pass(mesh.tets, mesh.tet_gradients, values, rates,
                               [(mesh.corner_weights, bulk.d_rate, None)])
            return p / mesh.dual_volumes[:, None]
        res -= _rate_bracket(state, momentum)
    return res


def _rate_bracket(state, momentum):
    """d/dt of ``momentum(values, rates)`` between the snapshots around the
    middle.  A 3-snapshot trajectory has one-sided end rates, which place the
    momenta at the half-steps: a staggered first difference."""
    mid = state.trajectory.shape[0] // 2
    before, after = (momentum(state.trajectory[s], state.snapshot_rates(s))
                     for s in (mid - 1, mid + 1))
    span = state.dt if state.trajectory.shape[0] == 3 else 2.0 * state.dt
    return (after - before) / span


def surface_bc_terms(mesh, surface, state):
    """Boundary-condition load of a surface pair on a triangle mesh alone.

    Returns ``(rhs, terms)`` for a state on the mesh vertices: ``rhs``, minus
    the boundary action gradient over vertex areas, sums the ``terms``
    channels ``gamma0_phi``, ``gamma0_div``, ``curv_phi``, ``curv_div`` and,
    exactly when the pair gives a rate partial, ``rate_bracket``: such a
    pair needs a state with a trajectory.  The diagnostic ``curv_div_frozen``
    + ``grad_H_term`` (vertex gradient of the cached H) differs from
    ``curv_div`` by a discretization-order product rule.  Each partial is
    evaluated once.  The tangential part of ``rhs`` is a weak quantity: it
    converges paired with smooth test fields, not pointwise off the sphere.
    """
    _check_components(mesh, None, surface, state)
    tri, hat, n = mesh.triangles, mesh.hat_gradients, mesh.n_vertices
    a = mesh.vertex_areas[:, None]
    w, wc = _surface_weights(mesh)
    rate_channels = [(wt, d, None) for wt, d in ((w, surface.gamma0_d_rate),
                                                 (wc, surface.gamma_hat_d_rate)) if d is not None]
    if rate_channels and state.trajectory is None:
        raise ValueError("surface lagrangian depends on the field rate; supply "
                         "a FieldState with a trajectory")
    # the four channels, then those of the diagnostic split: the frozen-weight
    # curvature gradient and the gamma_hat_d_grad rows put in the corner slot
    channels = _surface_channels(surface, w, wc)
    *g, R_frozen, W = _simplex_pass(
        tri, hat, state.values, state.rates,
        [*channels.values(), (w, None, surface.gamma_hat_d_grad),
         (w, surface.gamma_hat_d_grad, None)])
    terms = {name: -gi / a for name, gi in zip(channels, g)}
    rhs = terms["gamma0_phi"] + terms["gamma0_div"] + terms["curv_phi"] + terms["curv_div"]

    # diagnostic split of the curvature gradient channel
    W = W.reshape(n, state.n_components, 3) / a[:, :, None]
    terms["curv_div_frozen"] = 2.0 * mesh.vertex_mean_curvature[:, None] * (R_frozen / a)
    terms["grad_H_term"] = -2.0 * np.einsum("vkj,vj->vk", W, _vertex_grad_H(mesh))

    if rate_channels:
        def momentum(values, rates):
            return sum(_simplex_pass(tri, hat, values, rates, rate_channels)) / a
        terms["rate_bracket"] = _rate_bracket(state, momentum)
        rhs = rhs + terms["rate_bracket"]
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
    rhs, terms = surface_bc_terms(B, surface, _boundary_state(mesh, state))

    # both fluxes read boundary vertex rows only, which are sums over the
    # tets with a boundary vertex: the bulk pass runs on those tets alone, and
    # each boundary row receives the whole mesh's additions in the same order;
    # the momentum channel puts the d_grad rows in the corner slot
    layer = mesh.boundary_layer
    weights = mesh.corner_weights[layer]
    g_bulk, mom = _simplex_pass(
        mesh.tets[layer], mesh.tet_gradients[layer], state.values, state.rates,
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

    The probes are zero and one unit value per ``phi`` and per ``grad`` input,
    at zero rate.  Returns a (k, 4 k) array for a ``d_phi`` and a (3 k, 4 k)
    array for a ``d_grad``: rows are the flattened outputs, columns the
    ``phi`` inputs, then the ``grad`` inputs (component-major).  The same
    probes around a seeded random point of ``(phi, rate, grad)`` must give
    the same Jacobian to ``_AFFINE_TOLERANCE`` of the probed values;
    otherwise the partial is not affine and None is returned.
    """
    q = 4 * k
    unit = np.vstack([np.zeros(q), np.eye(q)])
    # stdlib random: importing numpy.random would add about 6 MB of RSS
    point = random.Random(0)
    x = np.vstack([unit, [point.gauss(0.0, 1.0) for _ in range(q)] + unit])
    rate = np.zeros((2 * (q + 1), k))
    rate[q + 1:] = [point.gauss(0.0, 1.0) for _ in range(k)]
    out = partial(x[:, :k], rate, x[:, k:].reshape(-1, k, 3)).reshape(2, q + 1, -1)
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
    (1 + max |values|)``; the rates stay.  Each move starts from a fresh copy
    of the corner values, whose bits a move and its reverse would not restore."""
    c = simplices.shape[1]
    values, rates = state.values, state.rates
    h = np.cbrt(np.finfo(float).eps) * (1.0 + float(np.abs(values).max()))
    corners = values[simplices[block]]
    # each simplex indexes its own rows of the moved corner values
    own = np.arange(corners.size // k).reshape(-1, c)
    corner_rates = None if rates is None else rates[simplices[block]].reshape(-1, k)

    def rows(b, i, move):
        moved = corners.copy()
        moved[:, b, i] += move
        at = _pointwise(own, hat[block], moved.reshape(-1, k), corner_rates)
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
    Newton may stop at a saddle or a maximum.  An ``initial`` state with a
    trajectory keeps it: the solve moves its middle snapshot and holds the
    middle rates fixed.

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

    def state_at(values):
        # the middle snapshot moves to ``values``; the middle rates, central
        # differences of its neighbours, stay those of ``initial``
        if initial.trajectory is None:
            return FieldState(values)
        trajectory = initial.trajectory.copy()
        trajectory[trajectory.shape[0] // 2] = values
        return FieldState(values, trajectory, initial.dt)

    jacobians = _probe_partials(bulk, surface)
    quadratic = all(j is not None for j in jacobians.values())
    log = ConvergenceLog(method="cg" if quadratic else "newton", iterations=0)

    def grad_at(values):
        log.gradient_calls += 1
        return action_gradient(mesh, bulk, surface, state_at(values)).ravel()

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
                                        None if quadratic else state_at(phi), jacobians)
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
    return state_at(phi), log
