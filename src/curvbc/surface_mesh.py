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

from dataclasses import dataclass

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
    flat = values.reshape(index.size, -1)
    return _scatter_columns(index, n, flat.T).reshape((n,) + values.shape[index.ndim:])


def _scatter_columns(index, n, columns):
    """:func:`_scatter` of values given component-major: each of the
    ``columns``, an iterable, has ``index``'s shape and holds one component.
    Returns ``(n, k)`` for k columns.  A contiguous column is summed with no
    copy, and each column may be dropped once it is summed."""
    idx = index.ravel()
    return np.column_stack([np.bincount(idx, column.ravel(), minlength=n)
                            for column in columns])


def _cross(a, b, out=None):
    """``np.cross`` of vectors stored component-major, ``a[j]`` holding
    component j: ``out[i] = a[j] b[k] - a[k] b[j]`` for cyclic (i, j, k).

    Each component is formed as np.cross forms it, so the bits are the same,
    but no input is copied and every operand is a contiguous vector.
    """
    out = np.empty(np.shape(a)) if out is None else out
    tmp = np.empty_like(out[0])
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[k], out=out[i])
        np.multiply(a[k], b[j], out=tmp)
        out[i] -= tmp
    return out


def _dot(a, b, out=None):
    """Dot product of vectors stored component-major, summed as
    ``np.einsum("mj,mj->m")`` sums the interleaved vectors: ``((0 + a0 b0)
    + a2 b2) + a1 b1``.  Adding the +0 last gives the same bits: it only
    turns a zero sum of -0 into +0."""
    out = np.multiply(a[0], b[0], out=out)
    out += a[2] * b[2]
    out += a[1] * b[1]
    out += 0.0
    return out


def _signed_keys(n, rows):
    """uint64 keys ``2 f + odd`` of ``rows``, blocks of 2 or 3 vertex vectors
    (directed edges or wound triangles): ``f`` holds a row's vertices sorted,
    in base ``n``, and ``odd`` its permutation parity, so two rows wind a face
    oppositely exactly when their keys are ``2 f`` and ``2 f + 1``.  Filled in
    wrapping int64, the keys are exact as uint64: triangles need n < 2**21."""
    key = np.empty(sum(len(block[0]) for block in rows), dtype=np.int64)
    at = 0
    for block in rows:
        out = key[at:at + len(block[0])]
        at += len(out)
        a, b = block[:2]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        odd = a > b
        if len(block) == 3:
            # the three-comparator network puts the middle vertex in out
            c = block[2]
            mid = np.minimum(hi, c)
            np.maximum(hi, c, out=hi)
            np.maximum(lo, mid, out=out)
            np.minimum(lo, mid, out=lo)
            del mid
            lo *= n
            lo += out
            odd ^= (b > c) ^ (a > c)
        np.multiply(lo, n, out=out)
        out += hi
        out *= 2
        out += odd
        del lo, hi, odd   # before the next block makes its own
    return key.view(np.uint64)


def _paired(key):
    """Whether every face of the :func:`_signed_keys` ``key`` (sorted and
    overwritten) is on exactly two rows of opposite winding: sorted pairs
    ``(2 f, 2 f + 1)``, whose xor is 1, with f increasing between pairs."""
    if len(key) % 2:
        return False
    key.sort()
    first, second = key[0::2], key[1::2]
    second ^= first
    return bool((second == 1).all() and (first[1:] > first[:-1]).all())


def _bad_face(key):
    """Row indices of the smallest face of ``key``, which :func:`_paired`
    rejects, that is not held by exactly two rows of opposite winding."""
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] >> 1 != key[:-1] >> 1])
    sizes = np.diff(np.r_[starts, len(key)])
    bad = (sizes != 2) | (key[starts] == key[np.minimum(starts + 1, len(key) - 1)])
    g = int(np.argmax(bad))
    return order[starts[g]:starts[g] + sizes[g]]


def _check_finite(vertices, error):
    """Raise ``error`` naming the first vertex row of ``vertices`` (n, 3)
    with a coordinate that is not finite."""
    if not np.isfinite(vertices).all():
        i = int(np.argmin(np.isfinite(vertices).all(axis=1)))
        raise error(f"vertex {i} is not finite: {vertices[i].tolist()}")


def _check_radius(radius):
    """Raise ValueError unless ``radius`` is finite and positive."""
    if not np.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    if radius <= 0.0:
        raise ValueError("radius must be positive")


class TriangleMesh:
    """Closed, consistently oriented triangle mesh with precomputed geometry.

    Parameters
    ----------
    vertices : array_like of shape (n, 3)
        Vertex positions; a vertex with a coordinate that is not finite
        raises MeshError naming the first.
    triangles : array_like of shape (m, 3)
        Vertex indices of each face. Winding must be consistent; the face
        normals it induces are taken as the outward direction.
    validate : bool
        If True (default), enforce the closed-manifold, orientation and
        face-quality invariants (the closed check names the smallest bad
        edge), and that every vertex is on a face.  ``validate=False`` is an
        escape hatch for open patches used in low-level operator tests.

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
        :func:`mean_curvature`, computed at most once per mesh (on the first
        call or access) and kept; the function returns a writable copy of it.
        The mesh is treated as immutable.

    The fields are computed on contiguous per-component (m,) vectors of the
    edges and face normals, with the bits of np.cross, np.einsum and
    np.linalg.norm on (m, 3) rows, and interleaved once when stored.
    """

    def __init__(self, vertices, triangles, validate=True):
        self._mean_curvature = None
        self._closed = False
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must have shape (n, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must have shape (m, 3)")
        _check_finite(self.vertices, MeshError)
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise MeshError("triangle indices out of range")
        a, b, c = self.triangles.T
        if np.any((a == b) | (b == c) | (c == a)):
            raise MeshError("triangle with repeated vertex")

        edges, normals = self._compute_face_geometry()
        if validate:
            _check_face_quality(self)
            self._check_closed_oriented()
            used = np.bincount(self.triangles.ravel(), minlength=len(self.vertices))
            if not used.all():
                raise MeshError(f"vertex {np.argmin(used)} is on no face")
            self._closed = True
        lsq = _dot(edges, edges)                      # (3, m) squared edge lengths
        self._compute_vertex_normals(normals, lsq)
        self._compute_corner_areas(edges, lsq)
        del lsq
        self._compute_hat_gradients(normals, edges)
        del edges
        self.face_normals = np.ascontiguousarray(normals.T)

    # -- construction helpers -------------------------------------------
    #
    # ``edges[j, c]`` is component j of the edge opposite corner c,
    # ``x[c+2] - x[c+1]``, and ``normals[j]`` component j of the face
    # normals: (3, 3, m) and (3, m), so every operand is a contiguous vector.

    def _compute_face_geometry(self):
        x = np.take(np.ascontiguousarray(self.vertices.T), self.triangles.T, axis=1)
        edges = np.empty_like(x)
        for c in range(3):
            np.subtract(x[:, (c + 2) % 3], x[:, (c + 1) % 3], out=edges[:, c])
        del x
        # (x1 - x0) x (x2 - x0) = e1 x e2 = 2A n; its norm sums as
        # np.linalg.norm sums a row
        normals = _cross(edges[:, 1], edges[:, 2])
        norm = np.sqrt((normals[0] * normals[0] + normals[1] * normals[1])
                       + normals[2] * normals[2])
        self.face_areas = 0.5 * norm
        with np.errstate(invalid="ignore", divide="ignore"):
            normals /= np.where(norm > 0.0, norm, 1.0)
        return edges, normals

    def _edge_keys(self):
        """:func:`_signed_keys` of the directed edges of the faces."""
        t = np.ascontiguousarray(self.triangles.T)
        return _signed_keys(len(self.vertices), [(t[c], t[(c + 1) % 3]) for c in range(3)])

    def _check_closed_oriented(self):
        """Raise MeshError unless every edge is on exactly two faces, which
        traverse it in opposite directions.  A mesh that fails names its
        smallest bad edge: as a directed edge traversed twice if it is on two
        faces, else with its face count."""
        if _paired(self._edge_keys()):
            return
        key = self._edge_keys()
        rows = _bad_face(key)
        face, odd = divmod(int(key[rows[0]]), 2)
        edge = divmod(face, len(self.vertices))
        if len(rows) == 2:
            raise MeshError(f"inconsistent orientation: directed edge "
                            f"{edge[::-1] if odd else edge} appears more than once")
        raise MeshError(f"not a closed 2-manifold: edge {edge} is on {len(rows)} face(s), "
                        "expected 2")

    def _compute_corner_areas(self, edges, lsq):
        # cot of the interior angle at corner c: u . v / |u x v| for the edges
        # u = -e[c+1], v = e[c+2] leaving c, where |u x v| = 2A at every corner
        cots = np.empty_like(lsq)
        for c in range(3):
            _dot(edges[:, (c + 1) % 3], edges[:, (c + 2) % 3], out=cots[c])
        np.negative(cots, out=cots)
        twice_area = 2.0 * self.face_areas
        cots /= np.where(twice_area > 0, twice_area, 1.0)
        self.corner_cots = np.ascontiguousarray(cots.T)
        # Voronoi areas, and on a face with an obtuse corner the mixed areas
        weighted = lsq * cots
        areas = np.empty_like(weighted)
        for c in range(3):
            np.add(weighted[(c + 1) % 3], weighted[(c + 2) % 3], out=areas[c])
        del weighted
        areas /= 8.0
        obtuse = cots < 0.0
        any_obtuse = obtuse.any(axis=0)
        if any_obtuse.any():
            fa = self.face_areas
            np.copyto(areas, np.where(obtuse, fa / 2.0, fa / 4.0), where=any_obtuse)
        self.corner_areas = np.ascontiguousarray(areas.T)
        self.vertex_areas = _scatter(self.triangles, len(self.vertices), self.corner_areas)

    def _compute_vertex_normals(self, normals, lsq):
        # cross(u, v) / (|u|^2 |v|^2) per incident corner: exact for vertices
        # on a sphere, second order on smooth meshes; (x_{c+1} - x_c) x
        # (x_{c+2} - x_c) is the face cross product 2A n at every corner c;
        # one component's (corner, face) weights at a time
        denom = lsq[[1, 2, 0]] * lsq[[2, 0, 1]]
        denom = np.where(denom > 0, denom, 1.0)
        cross = normals * (2.0 * self.face_areas)
        vn = _scatter_columns(self.triangles.T, len(self.vertices),
                              (component / denom for component in cross))
        norm = np.linalg.norm(vn, axis=1)
        self.vertex_normals = vn / np.where(norm > 0, norm, 1.0)[:, None]

    def _compute_hat_gradients(self, normals, edges):
        # gradient of the hat function of corner c, constant on the face:
        # (n x e_c) / (2A) with e_c the opposite edge.  It is written over
        # e_c, the last use of edges, so no second (3, 3, m) array is made
        twice_area = 2.0 * self.face_areas
        grad = np.empty_like(normals)
        for c in range(3):
            _cross(normals, edges[:, c], out=grad)
            np.divide(grad, twice_area, out=edges[:, c])
        del grad
        self.hat_gradients = np.ascontiguousarray(edges.transpose(2, 1, 0))

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def vertex_mean_curvature(self):
        if self._mean_curvature is None:
            mean_curvature(self)
        return self._mean_curvature

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

    def boundary_vertex_mask(self):
        """Boolean mask of vertices touching an edge with only one face.

        All False on a closed mesh; used to restrict operator checks to the
        interior of ``validate=False`` patches.  A mesh validated at
        construction has every edge on two faces, so its edges are not counted.
        """
        n = self.n_vertices
        if self._closed:
            return np.zeros(n, dtype=bool)
        # an open edge is a face held by one row
        face = self._edge_keys() >> 1
        face.sort()
        once = np.ones(len(face), dtype=bool)
        once[1:] = face[1:] != face[:-1]
        once[:-1] &= once[1:]
        open_edges = face[once]
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
    surface gradient of H as Cartesian vectors.  ``flagged`` lists the
    vertices whose projected 1-ring edges are collinear or vanish to
    roundoff, their Gram determinant at most ``16 eps`` times their squared
    trace (:func:`shape_operator`); these get the isotropic H*I.
    """

    mean: np.ndarray
    shape_op: np.ndarray
    frames: np.ndarray
    grad_H: np.ndarray
    flagged: list

    def principal_curvatures(self):
        """Eigenvalues of the shape operator, shape (n, 2), ascending."""
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

    H is computed at most once per mesh: the first call (or the first read
    of ``mesh.vertex_mean_curvature``, which comes here) keeps it read-only
    as ``mesh.vertex_mean_curvature``, and every call returns a writable copy.

    Returns
    -------
    (n_vertices,) float array
        The H component of :class:`CurvatureData`.
    """
    if mesh._mean_curvature is None:
        _check_face_quality(mesh)
        n, m = mesh.n_vertices, mesh.n_faces
        # rows 2c and 2c + 1: the ends i = corner c+1 and j = corner c+2 of
        # the edge opposite corner c, which adds w (x_j - x_i) to i and its
        # negative to j, w half the corner's cotangent; one coordinate at a
        # time, on contiguous (m,) rows, summed by one bincount in row order
        index = mesh.triangles.T[[1, 2, 2, 0, 0, 1]]
        w = 0.5 * mesh.corner_cots.T
        lap = np.empty((3, n))
        contrib = np.empty((6, m))
        for d, xd in enumerate(np.ascontiguousarray(mesh.vertices.T)):
            for c in range(3):
                np.subtract(xd[index[2 * c + 1]], xd[index[2 * c]], out=contrib[2 * c])
                contrib[2 * c] *= w[c]
                np.negative(contrib[2 * c], out=contrib[2 * c + 1])
            lap[d] = np.bincount(index.ravel(), contrib.ravel(), minlength=n)
        H = -_dot(lap, np.ascontiguousarray(mesh.vertex_normals.T)) / (2.0 * mesh.vertex_areas)
        H.flags.writeable = False
        mesh._mean_curvature = H
    return mesh._mean_curvature.copy()


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

    The symmetric 2x2 operator ``[[a, b], [b, c]]`` is the least-squares fit
    of ``S u = dn`` over the directed 1-ring edges of each vertex, with
    ``u = E (x_t - x_h)`` and ``dn = E (n_t - n_h)`` projected on the head's
    tangent frame ``E``.  Its 3 x 3 normal equations have the matrix
    ``M = [[S00, S01, 0], [S01, S00 + S11, S01], [0, S01, S11]]`` of the
    1-ring sums ``S00 = sum u0^2``, ``S01 = sum u0 u1``, ``S11 = sum u1^2``,
    so ``det M = T D`` with ``T = S00 + S11`` and ``D = S00 S11 - S01^2``,
    the Gram determinant of the projected edges; the fit is
    ``adj(M) r / det M``, from the right-hand sums ``r``.  The fit is then
    shifted so its trace equals 2H exactly, with H the mesh's cached
    :func:`mean_curvature`.

    A vertex is flagged, and given H*I, when ``D <= 16 eps T^2``: its
    projected edges are collinear (or vanish) to roundoff.  For exactly
    collinear edges ``D`` is 0, but the rounded sums and products leave up
    to about ``(k + 1) eps T^2`` on a 1-ring of ``k`` edges (as ``S00 S11
    <= T^2 / 4``), so the factor 16 covers every degree up to 15.  The
    normal equations square the fit's condition number: a fitted vertex
    carries a relative error of up to about ``eps T^2 / D``.  grad_H is the
    per-face surface gradient of the H field averaged back to vertices and
    projected tangentially.
    """
    H = mesh.vertex_mean_curvature
    frames = _tangent_frames(mesh.vertex_normals)
    n = mesh.n_vertices
    # unique directed 1-ring edges (a validate=False patch may repeat a
    # face).  A sort and a neighbour compare, not np.unique, whose hash path
    # (numpy 2.4) took 12.4 ms against 0.6 ms on 61,440 keys
    tri = mesh.triangles
    key = tri.ravel() * n + tri[:, [1, 2, 0]].ravel()
    key.sort()
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    key = key[first]
    heads, tails = key // n, key % n
    E = frames[heads]
    x, vn = mesh.vertices, mesh.vertex_normals
    u0, u1 = np.einsum("ekj,ej->ke", E, x[tails] - x[heads])
    d0, d1 = np.einsum("ekj,ej->ke", E, vn[tails] - vn[heads])
    del E
    S00, S01, S11, r0, r1, r2 = _scatter_columns(
        heads, n, (u0 * u0, u0 * u1, u1 * u1, u0 * d0, u1 * d0 + u0 * d1, u1 * d1)).T
    T = S00 + S11
    D = S00 * S11 - S01 * S01
    fitted = D > 16.0 * np.finfo(float).eps * T * T
    det = np.where(fitted, T * D, 1.0)
    a = ((D + S11 * S11) * r0 - S01 * S11 * r1 + S01 * S01 * r2) / det
    b = (S00 * S11 * r1 - S01 * (S11 * r0 + S00 * r2)) / det
    c = (S01 * S01 * r0 - S00 * S01 * r1 + (D + S00 * S00) * r2) / det
    S = np.stack([a, b, c], axis=1)[:, [[0, 1], [1, 2]]]
    S += (H - 0.5 * (a + c))[:, None, None] * np.eye(2)
    S[~fitted] = H[~fitted, None, None] * np.eye(2)
    return CurvatureData(mean=H, shape_op=S, frames=frames, grad_H=_vertex_grad_H(mesh),
                         flagged=np.flatnonzero(~fitted).tolist())


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
    normals point outward.  Each subdivision keeps the vertices it splits
    and numbers the new edge midpoints after them, in the order their edges
    are first met, scanning the faces in order and each face's edges ab,
    bc, ca; face ``(a, b, c)`` becomes ``(a, ab, ca)``, ``(b, bc, ab)``,
    ``(c, ca, bc)``, ``(ab, bc, ca)``, in that order.

    Raises
    ------
    ValueError
        If radius is not finite, radius <= 0 or level is outside [0, 7].
    """
    _check_radius(radius)
    verts, faces = _unit_icosphere(level)
    return TriangleMesh(verts * radius, faces)


def _unit_icosphere(level):
    """Vertices and outward-wound faces of the unit icosphere of ``level``,
    as arrays: no :class:`TriangleMesh` geometry is computed.  Raises
    ValueError if level is outside [0, 7]."""
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
    return verts, faces


def _subdivide_once(verts, faces):
    """Split every face into four at its edge midpoints, projected to the unit sphere.

    Midpoints are numbered after the old vertices in the order their edges
    are first met, scanning faces in order and edges ab, bc, ca in each.
    Edge slot ``3 f + e`` of face f runs from ``a[3 f + e]`` to
    ``b[3 f + e]``.  One argsort of the undirected edge keys groups each
    edge's slots; a group's smallest slot is where its edge is first met,
    and a running count of those first slots numbers the midpoints.
    """
    a = faces.reshape(-1)
    b = faces[:, [1, 2, 0]].reshape(-1)
    key = np.minimum(a, b) * len(verts) + np.maximum(a, b)
    perm = np.argsort(key)
    key = key[perm]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    first = np.minimum.reduceat(perm, starts)
    is_first = np.zeros(len(key), dtype=bool)
    is_first[first] = True
    number = np.cumsum(is_first)              # 1 + midpoint number at a first slot
    mid = np.empty_like(perm)
    mid[perm] = np.repeat(number[first] + (len(verts) - 1), np.diff(np.r_[starts, len(key)]))
    p = verts[a[is_first]] + verts[b[is_first]]
    p /= np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]   # sums as np.linalg.norm(row) does
    corners = np.hstack([faces, mid.reshape(-1, 3)])    # a b c ab bc ca
    split = [[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]]
    return np.vstack([verts, p]), corners[:, split].reshape(-1, 3)
