"""Discrete differential geometry on closed oriented triangle meshes.

This module provides the discrete carriers for a boundary surface: lumped
(mixed-Voronoi) vertex areas, outward vertex normals, signed mean curvature,
a per-vertex shape operator, and the first-order surface calculus (gradient,
divergence, integration) that the variational assembly is built on.

Field conventions
-----------------
Plain numpy arrays carry all fields:

* vertex scalar field : ``(n_vertices,)``
* vertex vector field : ``(n_vertices, m)``
* face tangent field  : ``(n_faces, 3)``, each row tangent to its face

Sign convention
---------------
Mean curvature is signed so that a sphere with outward normals has
``H = +1/R``.  Equivalently, the discrete surface divergence of the outward
normal field is ``+2H``; flipping the orientation of every triangle negates
``H``.

The surface gradient of a piecewise-linear function is constant per face.
The surface divergence is the exact negative adjoint of the gradient with
respect to the lumped vertex / face area inner products, so the discrete
divergence theorem holds to machine precision on closed meshes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEGENERATE_AREA_REL = 1e-12
MAX_SUBDIVISION_LEVEL = 7


class MeshError(ValueError):
    """Raised when vertex/triangle data does not describe a usable mesh."""


class MeshQualityError(MeshError):
    """Raised for degenerate elements (near-zero area faces)."""


def _scatter(index, n, values):
    """Sum the rows of ``values`` into ``n`` vertex rows by vertex ``index``.

    ``values`` has shape ``index.shape + tail``; the result is ``(n,) + tail``.
    One ``np.bincount`` per trailing component gives what ``np.add.at`` gives,
    with the same summation order, at a fraction of its cost.
    """
    idx = index.ravel()
    tail = values.shape[index.ndim:]
    flat = values.reshape(len(idx), -1)
    out = np.empty((n, flat.shape[1]))
    for j in range(flat.shape[1]):
        out[:, j] = np.bincount(idx, flat[:, j], minlength=n)
    return out.reshape((n,) + tail)


class TriangleMesh:
    """Closed, consistently oriented triangle mesh with precomputed geometry.

    Parameters
    ----------
    vertices : array_like of shape (n, 3)
        Vertex positions.
    triangles : array_like of shape (m, 3)
        Vertex indices of each face. Winding must be consistent; the face
        normals it induces are taken as the outward direction.
    validate : bool
        If True (default), enforce the closed-manifold, orientation and
        face-quality invariants. ``validate=False`` is an escape hatch for
        open patches used in low-level operator tests.

    Attributes
    ----------
    face_areas : (m,) float
    face_normals : (m, 3) float, unit
    corner_areas : (m, 3) float
        Mixed-Voronoi area contribution of each face corner; rows sum to the
        face area exactly.
    vertex_areas : (n,) float
        Lumped vertex areas; their sum equals the total area exactly.
    vertex_normals : (n, 3) float, unit
        Average of incident face normals with inverse squared-edge-length
        weights (exact for vertices on a common sphere).
    vertex_mean_curvature : (n,) float, read-only
        :func:`mean_curvature`, computed on first access and kept.
    """

    def __init__(self, vertices, triangles, validate=True):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must have shape (n, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must have shape (m, 3)")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise MeshError("triangle indices out of range")
        if np.any(self.triangles[:, [0, 1, 2]] == self.triangles[:, [1, 2, 0]]):
            raise MeshError("triangle with repeated vertex")

        self._compute_face_geometry()
        if validate:
            _check_face_quality(self)
            self._check_closed_oriented()
        self._compute_corner_areas()
        self._compute_vertex_normals()
        self._compute_hat_gradients()

    # -- construction helpers -------------------------------------------

    def _compute_face_geometry(self):
        tri = self.vertices[self.triangles]           # (m, 3, 3)
        # e[c] is the edge opposite corner c
        e0 = tri[:, 2] - tri[:, 1]
        e1 = tri[:, 0] - tri[:, 2]
        e2 = tri[:, 1] - tri[:, 0]
        self.edge_vectors = np.stack([e0, e1, e2], axis=1)
        cross = np.cross(e2, -e1)                     # (x1-x0) x (x2-x0)
        norm = np.linalg.norm(cross, axis=1)
        self.face_areas = 0.5 * norm
        with np.errstate(invalid="ignore", divide="ignore"):
            self.face_normals = cross / np.where(norm > 0.0, norm, 1.0)[:, None]

    def _check_closed_oriented(self):
        n = len(self.vertices)
        tri = self.triangles
        heads = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2]])
        tails = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]])
        directed = heads.astype(np.int64) * n + tails
        uniq, counts = np.unique(directed, return_counts=True)
        if np.any(counts > 1):
            bad = uniq[np.argmax(counts > 1)]
            raise MeshError(
                f"inconsistent orientation: directed edge ({bad // n}, {bad % n}) "
                "appears more than once"
            )
        lo = np.minimum(heads, tails).astype(np.int64)
        hi = np.maximum(heads, tails).astype(np.int64)
        uniq, counts = np.unique(lo * n + hi, return_counts=True)
        if np.any(counts != 2):
            bad = uniq[np.argmax(counts != 2)]
            raise MeshError(
                f"not a closed 2-manifold: edge ({bad // n}, {bad % n}) is on "
                f"{counts[np.argmax(counts != 2)]} face(s), expected 2"
            )

    def _compute_corner_areas(self):
        e = self.edge_vectors
        lsq = np.einsum("fcj,fcj->fc", e, e)          # squared edge lengths
        # cot of the interior angle at corner c (edges leaving c are -e[c+1], e[c+2])
        cots = np.empty_like(lsq)
        for c in range(3):
            u = -e[:, (c + 1) % 3]
            v = e[:, (c + 2) % 3]
            cross = np.linalg.norm(np.cross(u, v), axis=1)
            cots[:, c] = np.einsum("fj,fj->f", u, v) / np.where(cross > 0, cross, 1.0)
        self.corner_cots = cots

        voronoi = np.empty_like(lsq)
        for c in range(3):
            c1, c2 = (c + 1) % 3, (c + 2) % 3
            voronoi[:, c] = (lsq[:, c1] * cots[:, c1] + lsq[:, c2] * cots[:, c2]) / 8.0
        obtuse = cots < 0.0
        any_obtuse = obtuse.any(axis=1)
        areas = voronoi
        if any_obtuse.any():
            fa = self.face_areas[:, None]
            areas = np.where(
                any_obtuse[:, None], np.where(obtuse, fa / 2.0, fa / 4.0), voronoi
            )
        self.corner_areas = areas
        self.vertex_areas = _scatter(self.triangles, len(self.vertices), areas)

    def _compute_vertex_normals(self):
        # cross(u, v) / (|u|^2 |v|^2) per incident corner: exact for vertices
        # on a sphere, second order on smooth meshes
        e = self.edge_vectors
        contrib = np.empty((3, len(e), 3))             # (corner, face, xyz)
        for c in range(3):
            u = -e[:, (c + 1) % 3]                     # edge c -> c+2
            v = e[:, (c + 2) % 3]                      # edge c -> c+1
            usq = np.einsum("fj,fj->f", u, u)
            vsq = np.einsum("fj,fj->f", v, v)
            denom = np.where(usq * vsq > 0, usq * vsq, 1.0)
            contrib[c] = np.cross(v, u) / denom[:, None]
        vn = _scatter(self.triangles.T, len(self.vertices), contrib)
        norm = np.linalg.norm(vn, axis=1)
        self.vertex_normals = vn / np.where(norm > 0, norm, 1.0)[:, None]

    def _compute_hat_gradients(self):
        # gradient of the hat function of corner c, constant on the face:
        # (n x e_c) / (2A) with e_c the opposite edge
        cross = np.cross(self.face_normals[:, None, :], self.edge_vectors)
        self.hat_gradients = cross / (2.0 * self.face_areas)[:, None, None]

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @cached_property
    def vertex_mean_curvature(self):
        H = mean_curvature(self)
        H.flags.writeable = False
        return H

    @property
    def n_faces(self):
        return len(self.triangles)

    @property
    def total_area(self):
        return float(self.face_areas.sum())

    def flipped(self):
        """Return a copy with every triangle's winding reversed."""
        return TriangleMesh(self.vertices.copy(), self.triangles[:, ::-1].copy())

    def enclosed_volume(self):
        """Signed volume enclosed by the surface (positive for outward winding)."""
        tri = self.vertices[self.triangles]
        return float(np.einsum("fj,fj->f", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0)

    def vertex_adjacency(self):
        """List of neighbor-vertex index arrays, one per vertex."""
        n = self.n_vertices
        heads = np.concatenate([self.triangles[:, c] for c in range(3)])
        tails = np.concatenate([self.triangles[:, (c + 1) % 3] for c in range(3)])
        order = np.argsort(heads, kind="stable")
        heads, tails = heads[order], tails[order]
        starts = np.searchsorted(heads, np.arange(n + 1))
        return [np.unique(tails[starts[i]:starts[i + 1]]) for i in range(n)]

    def boundary_vertex_mask(self):
        """Boolean mask of vertices touching an edge with only one face.

        All False on a closed mesh; used to restrict operator checks to the
        interior of ``validate=False`` patches.
        """
        n = self.n_vertices
        heads = np.concatenate([self.triangles[:, c] for c in range(3)])
        tails = np.concatenate([self.triangles[:, (c + 1) % 3] for c in range(3)])
        lo = np.minimum(heads, tails).astype(np.int64)
        hi = np.maximum(heads, tails).astype(np.int64)
        uniq, counts = np.unique(lo * n + hi, return_counts=True)
        open_edges = uniq[counts == 1]
        mask = np.zeros(n, dtype=bool)
        mask[open_edges // n] = True
        mask[open_edges % n] = True
        return mask


@dataclass
class CurvatureData:
    """Per-vertex curvature bundle.

    ``mean`` is the signed mean curvature H.  ``shape_op`` holds symmetric
    2x2 shape operators in the orthonormal tangent ``frames`` (trace equals
    2H exactly after the fit correction).  ``grad_H`` is the tangential
    surface gradient of H as Cartesian vectors.  ``flagged`` lists vertices
    whose 1-ring fit was rank deficient (isotropic H*I fallback used).
    """

    mean: np.ndarray
    shape_op: np.ndarray | None = None
    frames: np.ndarray | None = None
    grad_H: np.ndarray | None = None
    flagged: list = field(default_factory=list)

    def principal_curvatures(self):
        """Eigenvalues of the shape operator, shape (n, 2), ascending."""
        if self.shape_op is None:
            raise ValueError("shape operator not computed")
        return np.linalg.eigvalsh(self.shape_op)


def _check_face_quality(mesh):
    """Reject an empty mesh or a face far below the mean face area."""
    if not len(mesh.face_areas):
        raise MeshError("mesh has no faces")
    mean_area = float(mesh.face_areas.mean())
    bad = np.where(mesh.face_areas < DEGENERATE_AREA_REL * mean_area)[0]
    if len(bad):
        raise MeshQualityError(
            f"degenerate face {bad[0]} (area {mesh.face_areas[bad[0]]:.3e}, "
            f"mean {mean_area:.3e})"
        )


def mean_curvature(mesh):
    """Signed mean curvature at every vertex (cotangent formula).

    Uses the cotangent Laplacian of the positions with mixed-Voronoi lumped
    areas, projected on the outward vertex normal so that a sphere with
    outward orientation yields H = +1/R.

    Returns
    -------
    (n_vertices,) float array
        The H component of :class:`CurvatureData`.
    """
    _check_face_quality(mesh)
    tri = mesh.triangles
    x = mesh.vertices
    index = np.empty((6, len(tri)), dtype=np.int64)
    contrib = np.empty((6, len(tri), 3))
    for c in range(3):
        i = tri[:, (c + 1) % 3]
        j = tri[:, (c + 2) % 3]
        w = 0.5 * mesh.corner_cots[:, c]
        index[2 * c], index[2 * c + 1] = i, j
        contrib[2 * c] = w[:, None] * (x[j] - x[i])
        contrib[2 * c + 1] = -contrib[2 * c]
    lap = _scatter(index, mesh.n_vertices, contrib)
    return -np.einsum("vj,vj->v", lap, mesh.vertex_normals) / (2.0 * mesh.vertex_areas)


def _tangent_frames(normals):
    """Orthonormal (e1, e2) completing each unit normal, shape (n, 2, 3)."""
    n = normals
    # pick the coordinate axis least aligned with n, Gram-Schmidt it
    a = np.zeros_like(n)
    idx = np.argmin(np.abs(n), axis=1)
    a[np.arange(len(n)), idx] = 1.0
    e1 = a - np.einsum("vj,vj->v", a, n)[:, None] * n
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(n, e1)
    return np.stack([e1, e2], axis=1)


def shape_operator(mesh):
    """Per-vertex shape operator, mean curvature and curvature gradient.

    The symmetric 2x2 operator is fitted from the 1-ring variation of the
    vertex normals (least squares over projected edge/normal differences)
    and then shifted so its trace equals 2H exactly, with H the mesh's
    cached :func:`mean_curvature`.  Rank-deficient fits fall back to H*I
    and the vertex is flagged.  grad_H is the per-face surface gradient of
    the H field averaged back to vertices and projected tangentially.
    """
    H = mesh.vertex_mean_curvature
    frames = _tangent_frames(mesh.vertex_normals)
    adjacency = mesh.vertex_adjacency()
    n = mesh.n_vertices
    S = np.zeros((n, 2, 2))
    flagged = []
    x = mesh.vertices
    vn = mesh.vertex_normals
    for i in range(n):
        nbrs = adjacency[i]
        E = frames[i]                                   # (2, 3)
        du = (x[nbrs] - x[i]) @ E.T                     # (deg, 2)
        dn = (vn[nbrs] - vn[i]) @ E.T
        deg = len(nbrs)
        A = np.zeros((2 * deg, 3))
        A[0::2, 0] = du[:, 0]
        A[0::2, 1] = du[:, 1]
        A[1::2, 1] = du[:, 0]
        A[1::2, 2] = du[:, 1]
        b = dn.reshape(-1)
        sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if rank < 3:
            flagged.append(i)
            S[i] = H[i] * np.eye(2)
        else:
            S[i] = [[sol[0], sol[1]], [sol[1], sol[2]]]
            S[i] += 0.5 * (2.0 * H[i] - np.trace(S[i])) * np.eye(2)

    return CurvatureData(mean=H, shape_op=S, frames=frames, grad_H=_vertex_grad_H(mesh),
                         flagged=flagged)


def _vertex_grad_H(mesh):
    """Tangential vertex gradient of the cached H, shape (n, 3).

    Per-face surface gradients, averaged back with corner-area weights.
    """
    vn = mesh.vertex_normals
    gH_faces = surface_gradient(mesh, mesh.vertex_mean_curvature)
    gH = _scatter(mesh.triangles, mesh.n_vertices,
                  mesh.corner_areas[:, :, None] * gH_faces[:, None, :])
    gH /= mesh.vertex_areas[:, None]
    gH -= np.einsum("vj,vj->v", gH, vn)[:, None] * vn
    return gH


def surface_gradient(mesh, values):
    """Per-face gradient of the piecewise-linear interpolant of vertex values.

    Parameters
    ----------
    values : (n_vertices,) array

    Returns
    -------
    (n_faces, 3) array, tangent to each face.
    """
    values = np.asarray(values, dtype=float)
    f = values[mesh.triangles]                          # (m, 3)
    return np.einsum("fc,fcj->fj", f, mesh.hat_gradients)


def surface_divergence(mesh, face_field):
    """Vertex divergence of a face tangent field (exact adjoint of the gradient).

    Defined by ``sum_v a_v f_v div(V)_v = -sum_F A_F grad(f)_F . V_F`` for all
    vertex fields f, which makes the discrete divergence theorem exact.
    Any normal component of the input rows is annihilated face-wise.
    """
    V = np.asarray(face_field, dtype=float)
    contrib = -np.einsum("fj,fcj->fc", V * mesh.face_areas[:, None], mesh.hat_gradients)
    return _scatter(mesh.triangles, mesh.n_vertices, contrib) / mesh.vertex_areas


def integrate_surface(mesh, values):
    """Lumped surface integral: sum of vertex areas times vertex values."""
    values = np.asarray(values, dtype=float)
    return float(np.dot(mesh.vertex_areas, values))


def curvature_identity_residual(mesh):
    """Max vertex deviation between the divergence of the normal field and 2H.

    The vertex normals are interpolated linearly over each face and
    differentiated in-plane, ``div_F = sum_c n_c . grad(lambda_c)``, which is
    the tangential divergence of the interpolated field. Face values are
    averaged back to vertices with corner-area weights and compared against
    twice the cotangent mean curvature. Both converge to 2H on a smooth
    surface (outward normals), so the residual measures mesh consistency.
    Vertices on open boundaries are excluded, so patches built with
    ``validate=False`` report their interior residual.
    """
    H = mesh.vertex_mean_curvature
    corner_normals = mesh.vertex_normals[mesh.triangles]
    div_f = np.einsum("fcj,fcj->f", corner_normals, mesh.hat_gradients)
    div_v = _scatter(mesh.triangles, mesh.n_vertices, mesh.corner_areas * div_f[:, None])
    div_v /= mesh.vertex_areas
    keep = ~mesh.boundary_vertex_mask()
    return float(np.max(np.abs(div_v[keep] - 2.0 * H[keep])))


# -- primitive builders ---------------------------------------------------

def build_icosphere(radius, level):
    """Icosahedron subdivided ``level`` times, vertices projected to ``radius``.

    Vertex/face counts are 10*4^level + 2 and 20*4^level.  Faces wind so
    normals point outward.

    Raises
    ------
    ValueError
        If radius <= 0 or level is outside [0, 7].
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if not (0 <= int(level) <= MAX_SUBDIVISION_LEVEL) or int(level) != level:
        raise ValueError(f"subdivision level must be an integer in [0, {MAX_SUBDIVISION_LEVEL}]")
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
            (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
            (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
        ],
        dtype=float,
    )
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    for _ in range(int(level)):
        verts, faces = _subdivide_once(verts, faces)
    return TriangleMesh(verts * radius, faces)


def _subdivide_once(verts, faces):
    """Split every face into four at its edge midpoints, projected to the unit sphere.

    Midpoints are numbered after the old vertices in the order their edges
    are first met, scanning faces in order and edges ab, bc, ca in each.
    """
    edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = edges.min(axis=1) * len(verts) + edges.max(axis=1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ends = edges[first[order]]
    p = verts[ends[:, 0]] + verts[ends[:, 1]]
    p /= np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]   # sums as np.linalg.norm(row) does
    corners = np.hstack([faces, len(verts) + rank[inverse].reshape(-1, 3)])  # a b c ab bc ca
    split = [[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]]
    return np.vstack([verts, p]), corners[:, split].reshape(-1, 3)
