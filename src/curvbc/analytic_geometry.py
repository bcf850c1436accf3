"""Closed-form reference geometry: charts, curvature jets, sampled meshes.

Spheres, capped cylinders and tori are provided as analytic surfaces.  A
jet bundles everything the boundary-condition formulas consume at a chart
point: tangent basis, outward normal, first/second fundamental forms,
mixed shape operator, Christoffel symbols, mean curvature and its chart
gradient.  All quantities are hand-written closed forms; finite differences
are used only as cross-checks in the tests.

The second fundamental form follows the droplet convention
``b_AB = d_A(n_out) . d_B(x)`` so a sphere has ``b = g/R`` and ``H = +1/R``.
With the inward normal as the third frame vector, the same numbers agree
with the classical adapted-frame expansions, whose frame
``adapted_coefficient_divergence`` uses.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .surface_mesh import TriangleMesh


@dataclass(frozen=True)
class AnalyticSurface:
    """One of the supported closed-form surfaces.

    kind is "sphere" (radius), "cylinder" (radius, length; caps added when
    sampling) or "torus" (r_major, r_minor with r_major > r_minor > 0).
    Every parameter must be finite.
    """

    kind: str
    params: tuple

    @staticmethod
    def sphere(radius):
        radius, = _finite_params("sphere", radius)
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        return AnalyticSurface("sphere", (radius,))

    @staticmethod
    def cylinder(radius, length):
        params = radius, length = _finite_params("cylinder", radius, length)
        if radius <= 0 or length <= 0:
            raise ValueError("cylinder radius and length must be positive")
        return AnalyticSurface("cylinder", params)

    @staticmethod
    def torus(r_major, r_minor):
        params = r_major, r_minor = _finite_params("torus", r_major, r_minor)
        if not (r_major > r_minor > 0):
            raise ValueError("torus requires r_major > r_minor > 0")
        return AnalyticSurface("torus", params)


def _finite_params(kind, *values):
    """``values`` as a tuple of floats, refused unless every one is finite."""
    values = tuple(float(v) for v in values)
    if not np.isfinite(values).all():
        raise ValueError(f"{kind} parameters must be finite, got {values}")
    return values


@dataclass
class GeometryJet:
    """Chart-point geometry bundle.

    Indices: A, B label chart coordinates (u, v); ``christoffel[C, A, B]``
    is Gamma^C_AB, ``shape_mixed[A, C]`` is b_A^C, ``d_H`` holds the chart
    partials of the mean curvature.  A stacked jet carries a leading axis
    over chart points on every field (``mean_curvature`` is then an array).
    """

    position: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    normal: np.ndarray
    metric: np.ndarray
    metric_inv: np.ndarray
    second_form: np.ndarray
    shape_mixed: np.ndarray
    christoffel: np.ndarray
    mean_curvature: float
    d_H: np.ndarray

    @property
    def tangents(self):
        return np.stack([self.g1, self.g2], axis=-2)


def evaluate_jet(surface, u, v):
    """Closed-form :class:`GeometryJet` of ``surface`` at chart point (u, v).

    Raises ValueError when (u, v) is outside the chart domain (sphere polar
    angle must lie strictly in (0, pi); cylinder height in [0, length]).
    """
    return _jets(surface, np.array([float(u)]), np.array([float(v)]))[0]


def _stacked_jet(surface, u, v):
    """One GeometryJet whose fields carry a leading axis over the chart points
    ``(u[i], v[i])``, one array pass per field."""
    if surface.kind == "sphere":
        parts = _sphere_jet(surface.params[0], u, v)
    elif surface.kind == "cylinder":
        parts = _cylinder_jet(*surface.params, u, v)
    elif surface.kind == "torus":
        parts = _torus_jet(*surface.params, u, v)
    else:
        raise ValueError(f"unknown surface kind {surface.kind!r}")
    return GeometryJet(*parts)


def _jets(surface, u, v):
    """GeometryJets at the chart points ``(u[i], v[i])``, one per point."""
    stacked = _stacked_jet(surface, u, v)
    *arrays, H, d_H = (getattr(stacked, f.name) for f in fields(GeometryJet))
    return [GeometryJet(*row, h, dh) for *row, h, dh in zip(*arrays, H.tolist(), d_H)]


def _finish_jet(position, g1, g2, normal, metric, second_form, christoffel, H, d_H):
    """Jet fields stacked over chart points, in :class:`GeometryJet` order."""
    metric_inv = np.linalg.inv(metric)
    shape_mixed = second_form @ metric_inv          # b_A^C = b_AB g^{BC}
    return (position, g1, g2, normal, metric, metric_inv, second_form,
            shape_mixed, christoffel, H, d_H)


def _vectors(*components):
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def _diagonals(a, b):
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape + (2, 2))
    out[..., 0, 0], out[..., 1, 1] = a, b
    return out


def _sphere_jet(R, theta, phi):
    if not np.all((0.0 < theta) & (theta < np.pi)):
        raise ValueError("sphere chart requires polar angle in (0, pi)")
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    x = R * _vectors(st * cp, st * sp, ct)
    g1 = R * _vectors(ct * cp, ct * sp, -st)
    g2 = R * _vectors(-st * sp, st * cp, 0.0)
    n = x / R
    metric = _diagonals(np.full(theta.shape, R**2), (R * st) ** 2)
    b = metric / R
    gamma = np.zeros(theta.shape + (2, 2, 2))
    gamma[:, 0, 1, 1] = -st * ct            # Gamma^theta_phiphi
    gamma[:, 1, 0, 1] = gamma[:, 1, 1, 0] = ct / st
    H = np.full(theta.shape, 1.0 / R)
    return _finish_jet(x, g1, g2, n, metric, b, gamma, H, np.zeros(theta.shape + (2,)))


def _cylinder_jet(R, L, u, v):
    if not np.all((0.0 <= v) & (v <= L)):
        raise ValueError("cylinder chart requires height in [0, length]")
    su, cu = np.sin(u), np.cos(u)
    x = _vectors(R * cu, R * su, v)
    g1 = _vectors(-R * su, R * cu, 0.0)
    g2 = _vectors(np.zeros_like(u), 0.0, 1.0)
    n = _vectors(cu, su, 0.0)
    metric = _diagonals(np.full(u.shape, R**2), 1.0)
    b = _diagonals(np.full(u.shape, R), 0.0)
    gamma = np.zeros(u.shape + (2, 2, 2))
    H = np.full(u.shape, 0.5 / R)
    return _finish_jet(x, g1, g2, n, metric, b, gamma, H, np.zeros(u.shape + (2,)))


def _torus_jet(A, r, u, v):
    su, cu = np.sin(u), np.cos(u)
    sv, cv = np.sin(v), np.cos(v)
    rho = A + r * cv
    x = _vectors(rho * cu, rho * su, r * sv)
    g1 = _vectors(-rho * su, rho * cu, 0.0)
    g2 = _vectors(-r * sv * cu, -r * sv * su, r * cv)
    n = _vectors(cv * cu, cv * su, sv)
    metric = _diagonals(rho**2, r**2)
    b = _diagonals(rho * cv, r)
    gamma = np.zeros(u.shape + (2, 2, 2))
    gamma[:, 0, 0, 1] = gamma[:, 0, 1, 0] = -r * sv / rho
    gamma[:, 1, 0, 0] = rho * sv / r
    H = 0.5 * (cv / rho + 1.0 / r)
    d_H = _vectors(0.0, -A * sv / (2.0 * rho**2))
    return _finish_jet(x, g1, g2, n, metric, b, gamma, H, d_H)


# -- sampled meshes --------------------------------------------------------

def sample_mesh(surface, resolution):
    """Triangulate ``surface`` into a closed mesh with per-vertex jets.

    Returns ``(mesh, jets)`` where ``jets[i]`` is the GeometryJet at vertex
    i's exact chart parameters, or None at chart-singular vertices (sphere
    poles, cylinder caps and cap rims).  Orientation is outward.
    """
    if surface.kind == "sphere":
        return _sample_sphere(surface, *resolution)
    if surface.kind == "cylinder":
        return _sample_cylinder(surface, *resolution)
    if surface.kind == "torus":
        return _sample_torus(surface, *resolution)
    raise ValueError(f"unknown surface kind {surface.kind!r}")


def _ring_faces(i, n_cols, first=0):
    """Corners a b c d of every quad from grid row ``i`` to ``i + 1`` (wrapping
    columns), shape (len(i), n_cols, 4); row ``i`` starts at ``first + i * n_cols``."""
    j = np.arange(n_cols)
    row = first + np.asarray(i)[:, None] * n_cols
    a, b = row + j, row + (j + 1) % n_cols
    return np.stack([a, b, a + n_cols, b + n_cols], axis=-1)


def _sample_sphere(surface, n_theta, n_phi):
    if n_theta < 3 or n_phi < 3:
        raise ValueError("sphere resolution must be at least (3, 3)")
    R = surface.params[0]
    theta = np.repeat(np.pi * np.arange(1, n_theta) / n_theta, n_phi)
    phi = np.tile(2.0 * np.pi * np.arange(n_phi) / n_phi, n_theta - 1)
    st = np.sin(theta)
    ring = R * _vectors(st * np.cos(phi), st * np.sin(phi), np.cos(theta))
    verts = np.vstack([[0.0, 0.0, R], ring, [0.0, 0.0, -R]])
    south = len(verts) - 1

    q = _ring_faces(np.arange(n_theta - 2), n_phi, first=1)
    first, last = q[0], q[-1]
    faces = np.vstack([
        np.column_stack([np.zeros(n_phi, dtype=np.int64), first[:, 0], first[:, 1]]),
        q[..., [0, 2, 3, 0, 3, 1]].reshape(-1, 3),                     # (a c d), (a d b)
        np.column_stack([np.full(n_phi, south), last[:, 3], last[:, 2]]),
    ])
    mesh = TriangleMesh(verts, faces)
    return mesh, [None] + _jets(surface, theta, phi) + [None]


def _sample_cylinder(surface, n_u, n_v):
    if n_u < 3 or n_v < 2:
        raise ValueError("cylinder resolution must be at least (3, 2)")
    R, L = surface.params
    h = np.repeat(L * np.arange(n_v + 1) / n_v, n_u)
    u = np.tile(2.0 * np.pi * np.arange(n_u) / n_u, n_v + 1)
    verts = np.vstack([_vectors(R * np.cos(u), R * np.sin(u), h),
                       [0.0, 0.0, 0.0], [0.0, 0.0, L]])
    bottom_c, top_c = len(verts) - 2, len(verts) - 1

    q = _ring_faces(np.arange(n_v), n_u)
    first, last = q[0], q[-1]
    caps = np.stack([
        np.column_stack([np.full(n_u, bottom_c), first[:, 1], first[:, 0]]),
        np.column_stack([np.full(n_u, top_c), last[:, 2], last[:, 3]]),
    ], axis=1)                                                           # interleaved
    faces = np.vstack([q[..., [0, 1, 3, 0, 3, 2]].reshape(-1, 3),     # (a b d), (a d c)
                       caps.reshape(-1, 3)])
    mesh = TriangleMesh(verts, faces)
    side = slice(n_u, n_v * n_u)                                         # rims excluded
    jets = [None] * n_u + _jets(surface, u[side], h[side]) + [None] * (n_u + 2)
    return mesh, jets


def _sample_torus(surface, n_u, n_v):
    if n_u < 3 or n_v < 3:
        raise ValueError("torus resolution must be at least (3, 3)")
    A, r = surface.params
    u = np.repeat(2.0 * np.pi * np.arange(n_u) / n_u, n_v)
    v = np.tile(2.0 * np.pi * np.arange(n_v) / n_v, n_u)
    rho = A + r * np.cos(v)
    verts = _vectors(rho * np.cos(u), rho * np.sin(u), r * np.sin(v))

    # quads (i, j) (i, j+1) (i+1, j) (i+1, j+1) with u index i; both wrap
    q = _ring_faces(np.arange(n_u), n_v) % (n_u * n_v)
    faces = q[..., [0, 2, 3, 0, 3, 1]].reshape(-1, 3)                 # (a c d), (a d b)
    mesh = TriangleMesh(verts, faces)
    return mesh, _jets(surface, u, v)


# -- adapted-frame coefficient calculus ------------------------------------

def adapted_coefficient_divergence(jet, coeffs):
    """Exact surface covariant divergence of a coefficient field, per Cartesian slot.

    ``coeffs[..., A, m]`` holds the constant adapted components of a
    two-index object c^{A m}: m = 0, 1 are contravariant tangential slots and
    m = 2 is the component along the inward normal.  Leading axes ``...``
    run over the points of a stacked jet.

    Returns the Cartesian 3-vector ``div_A c^{A .}``, expanding the frame
    rotation with the Gauss-Weingarten relations of the jet.
    """
    c = np.asarray(coeffs, dtype=float)
    nu = -jet.normal
    tangents = jet.tangents                                   # (..., 2, 3): g_1, g_2
    frame = np.concatenate([tangents, nu[..., None, :]], axis=-2)
    trace_gamma = np.einsum("...aba->...b", jet.christoffel)  # Gamma^A_BA as a function of B
    # d_A W^A with W^A = c[A,C] g_C + c[A,2] nu: d_A g_C = Gamma^D_AC g_D
    # + b_AC nu and d_A nu = -b_A^D g_D; then the trace term Gamma^A_AB W^B
    return (np.einsum("...ac,...dac,...dj->...j", c[..., :2], jet.christoffel, tangents)
            + np.einsum("...ac,...ac->...", c[..., :2], jet.second_form)[..., None] * nu
            - np.einsum("...a,...ad,...dj->...j", c[..., 2], jet.shape_mixed, tangents)
            + np.einsum("...b,...bm,...mj->...j", trace_gamma, c, frame))


@dataclass
class ExpansionTerms:
    """Every named term of the adapted-frame boundary expansions.

    Tangential entries are (..., 2) arrays indexed by the free contravariant
    slot; normal entries are scalars at one jet and (...) arrays at a stacked
    jet.  ``*_printed`` sums follow the signs
    as printed in the source expansions; ``*_corrected`` sums follow the
    frame-free ground truth (the normal-row kappa connection and curvature
    couplings enter with opposite sign).  The two tangential sums agree.
    """

    chi_partial_t: np.ndarray
    chi_conn_trace_t: np.ndarray
    chi_conn_rot_t: np.ndarray
    chi_curv_t: np.ndarray
    chi_partial_n: float
    chi_conn_n: float
    chi_curv_n: float
    kappa_partial_t: np.ndarray
    kappa_conn_trace_t: np.ndarray
    kappa_conn_rot_t: np.ndarray
    kappa_curv_t: np.ndarray
    kappa_partial_n: float
    kappa_conn_n: float
    kappa_curv_n: float
    kappa_dH_t: np.ndarray
    kappa_dH_n: float
    dgamma_bar: np.ndarray
    dgamma_hat: np.ndarray
    mean_curvature: float
    rhs_tangential_printed: np.ndarray
    rhs_normal_printed: float
    rhs_tangential_corrected: np.ndarray
    rhs_normal_corrected: float


def expansion_terms(
    jet,
    chi=None,
    kappa=None,
    dgamma_bar=None,
    dgamma_hat=None,
    chi_partials=None,
    kappa_partials=None,
):
    """Evaluate each adapted-frame boundary-expansion term at a jet.

    ``chi`` and ``kappa`` are (..., 2, 3) adapted coefficient arrays in the
    same layout as :func:`adapted_coefficient_divergence` (third column along
    the inward normal).  ``dgamma_bar``/``dgamma_hat`` are (..., 3) adapted
    gradients of the surface potentials; ``*_partials`` optionally supply the
    chart partials of the coefficient components (homogeneous case: zero).
    Leading axes ``...`` run over the points of a stacked jet; every term
    then carries them too.
    """
    chi = np.zeros((2, 3)) if chi is None else np.asarray(chi, dtype=float)
    kappa = np.zeros((2, 3)) if kappa is None else np.asarray(kappa, dtype=float)
    dgb = np.zeros(3) if dgamma_bar is None else np.asarray(dgamma_bar, dtype=float)
    dgh = np.zeros(3) if dgamma_hat is None else np.asarray(dgamma_hat, dtype=float)
    dchi = np.zeros((2, 3)) if chi_partials is None else np.asarray(chi_partials, dtype=float)
    dkap = np.zeros((2, 3)) if kappa_partials is None else np.asarray(kappa_partials, dtype=float)

    gamma = jet.christoffel
    trace_gamma = np.einsum("...aba->...b", gamma)       # Gamma^A_BA indexed by B
    b = jet.second_form
    b_mix = jet.shape_mixed
    H = np.asarray(jet.mean_curvature)
    dH = jet.d_H

    def blocks(c, dc):
        partial_t = dc[..., :2].sum(axis=-2)
        conn_trace = np.einsum("...b,...bc->...c", trace_gamma, c[..., :2])  # Gamma^A_BA c^{BC}
        conn_rot = np.einsum("...cab,...ab->...c", gamma, c[..., :2])         # c^{AB} Gamma^C_AB
        curv_t = np.einsum("...a,...ac->...c", c[..., 2], b_mix)             # c^{A3} b_A^C
        partial_n = dc[..., 2].sum(axis=-1)
        conn_n = np.einsum("...b,...b->...", trace_gamma, c[..., 2])
        curv_n = np.einsum("...ab,...ab->...", c[..., :2], b)
        return partial_t, conn_trace, conn_rot, curv_t, partial_n, conn_n, curv_n

    cpt, cct, ccr, ccu, cpn, ccn, ccun = blocks(chi, dchi)
    kpt, kct, kcr, kcu, kpn, kcn, kcun = blocks(kappa, dkap)
    kdh_t = 2.0 * np.einsum("...ac,...a->...c", kappa[..., :2], dH)   # 2 kappa^{AC} d_A H
    kdh_n = 2.0 * np.einsum("...a,...a->...", kappa[..., 2], dH)

    rhs_t = (
        cpt + cct + ccr - ccu
        - dgb[..., :2]
        + 2.0 * H[..., None] * (dgh[..., :2] - kpt - kct - kcr + kcu)
        - kdh_t
    )
    rhs_n_printed = (
        cpn + ccn + ccun
        - dgb[..., 2]
        + 2.0 * H * (dgh[..., 2] - kpn + kcn + kcun)
        - kdh_n
    )
    rhs_n_corrected = (
        cpn + ccn + ccun
        - dgb[..., 2]
        + 2.0 * H * (dgh[..., 2] - kpn - kcn - kcun)
        - kdh_n
    )
    return ExpansionTerms(
        chi_partial_t=cpt,
        chi_conn_trace_t=cct,
        chi_conn_rot_t=ccr,
        chi_curv_t=ccu,
        chi_partial_n=cpn,
        chi_conn_n=ccn,
        chi_curv_n=ccun,
        kappa_partial_t=kpt,
        kappa_conn_trace_t=kct,
        kappa_conn_rot_t=kcr,
        kappa_curv_t=kcu,
        kappa_partial_n=kpn,
        kappa_conn_n=kcn,
        kappa_curv_n=kcun,
        kappa_dH_t=kdh_t,
        kappa_dH_n=kdh_n,
        dgamma_bar=dgb,
        dgamma_hat=dgh,
        mean_curvature=jet.mean_curvature,
        rhs_tangential_printed=rhs_t,
        rhs_normal_printed=rhs_n_printed,
        rhs_tangential_corrected=rhs_t.copy(),
        rhs_normal_corrected=rhs_n_corrected,
    )
