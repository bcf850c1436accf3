"""Reduction chain from the general curvature boundary condition to droplet laws.

This module evaluates the boundary-condition right-hand side along four
increasingly specialized routes and cross-checks them:

1. the general route, a full chain rule through a restricted surface pair
   (plain/curvature potentials, drift channels, gradient couplings) at
   boundary points;
2. the reduced route, keeping only the potential gradients, the coefficient
   divergences and the curvature-gradient coupling;
3. the uniform-tension droplet route (normal value ``2 sigma H - 4 tau H^2``,
   tangential value ``-2 tau grad H``), whose normal value rearranges into
   the size-corrected capillary pressure ``2 sigma H (1 - delta H)`` with
   ``delta = 2 tau / sigma``;
4. the combined route obtained by tying the curvature pair to the plain
   pair with the fixed length ``delta``.

Point data is batched: every array of :class:`BoundaryPoint` and
:class:`RestrictedPointCoeffs` may carry leading axes ``...`` over a stack
of chart points, the formulas contract with ellipsis ``einsum`` calls, and
potentials receive the stacked ``phi`` rows, so one call evaluates a whole
stack.  A single point is the stack without leading axes; it keeps its
shapes and its scalar types.

``verify_reductions`` runs all the cross-equivalences on analytic sphere
and torus jets (tight tolerances) and on discrete meshes (refinement
tolerances) and returns a row-per-check report.  Each analytic row draws
all of its (jet x trial) states at once and makes one call per formula.

Frame conventions: Cartesian right-hand sides are produced with the
outward boundary normal as the flux normal.  Component projections in the
classical adapted-frame expansions use the inward frame normal; the
droplet pressure is the inward-projected normal value, so a sphere under
tension carries a positive pressure jump.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .analytic_geometry import (AnalyticSurface, GeometryJet, _stacked_jet,
                                adapted_coefficient_divergence, expansion_terms)
from .lagrangian_library import (IsotropicSurfaceParams, RestrictedSurface,
                                 make_isotropic_surface)
from .surface_mesh import build_icosphere


# -- point data ---------------------------------------------------------------

@dataclass
class BoundaryPoint:
    """Field and geometry data the boundary-condition formulas consume.

    ``dphi[..., A, c]`` holds chart partials of the field, ``grad_H`` the
    chart partials of the mean curvature (covariant index), ``normal`` the
    outward unit normal.  Leading axes ``...`` run over a stack of chart
    points; a single point has none.
    """

    phi: np.ndarray
    dphi: np.ndarray
    mean_curvature: float
    grad_H: np.ndarray
    metric_inv: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    normal: np.ndarray

    @classmethod
    def from_jet(cls, jet, phi, dphi):
        phi = np.asarray(phi, dtype=float)
        dphi = np.asarray(dphi, dtype=float)
        return cls(phi, dphi, jet.mean_curvature, jet.d_H, jet.metric_inv,
                   jet.g1, jet.g2, jet.normal)

    @property
    def tangents(self):
        return np.stack([self.g1, self.g2], axis=-2)

    def raise_index(self, covec):
        return np.einsum("...ab,...b->...a", self.metric_inv, np.asarray(covec, dtype=float))

    def tangential_components(self, cart):
        """Contravariant tangential components of a Cartesian vector."""
        return np.einsum("...ab,...bj,...j->...a", self.metric_inv, self.tangents,
                         np.asarray(cart, dtype=float))


# potentials take (m, k) rows: a stack of points is passed as its rows
def _pot_grad(pot, phi):
    if pot is None:
        return np.zeros_like(phi)
    return pot.grad(phi.reshape(-1, phi.shape[-1])).reshape(phi.shape)


def _pot_hess(pot, phi):
    shape = phi.shape + phi.shape[-1:]
    if pot is None:
        return np.zeros(shape)
    return pot.hess(phi.reshape(-1, phi.shape[-1])).reshape(shape)


@dataclass
class RestrictedPointCoeffs:
    """Restricted surface pair at one boundary point, chart-indexed.

    ``chi[..., A, c]`` and ``kappa[..., A, c]`` couple to the field gradient
    (chart index A up, Cartesian component c); ``chi_tilde``/``kappa_hat``
    are the contravariant drift channels multiplying gradients of the scalar
    potentials ``gamma0``/``gamma1``.  The ``div_*`` entries supply the
    surface covariant divergences of the coefficient fields; the default
    zeros state that the fields are covariantly constant.  Leading axes
    ``...`` give one entry per point of a stacked :class:`BoundaryPoint`;
    the potentials then take the stacked ``phi`` rows.
    """

    n_components: int
    gamma_bar: Optional[object] = None
    gamma_hat: Optional[object] = None
    chi: Optional[np.ndarray] = None
    kappa: Optional[np.ndarray] = None
    chi_tilde: Optional[np.ndarray] = None
    gamma0: Optional[object] = None
    kappa_hat: Optional[np.ndarray] = None
    gamma1: Optional[object] = None
    div_chi: Optional[np.ndarray] = None
    div_kappa: Optional[np.ndarray] = None
    div_chi_tilde: float = 0.0
    div_kappa_hat: float = 0.0

    def __post_init__(self):
        k = self.n_components
        self.chi = np.zeros((2, k)) if self.chi is None else np.asarray(self.chi, dtype=float)
        self.kappa = np.zeros((2, k)) if self.kappa is None else np.asarray(self.kappa, dtype=float)
        self.div_chi = np.zeros(k) if self.div_chi is None else np.asarray(self.div_chi, dtype=float)
        self.div_kappa = np.zeros(k) if self.div_kappa is None else np.asarray(self.div_kappa, dtype=float)
        if self.chi_tilde is not None:
            self.chi_tilde = np.asarray(self.chi_tilde, dtype=float)
        if self.kappa_hat is not None:
            self.kappa_hat = np.asarray(self.kappa_hat, dtype=float)


class _ScaledPotential:
    """Fixed multiple of another potential (one factor per point, or one for all)."""

    def __init__(self, base, factor):
        self.base = base
        self.factor = np.asarray(factor, dtype=float)

    def value(self, phi):
        return self.factor * self.base.value(phi)

    def grad(self, phi):
        return self.factor[..., None] * self.base.grad(phi)

    def hess(self, phi):
        return self.factor[..., None, None] * self.base.hess(phi)


def tie_curvature_channel(coeffs, delta):
    """Return a copy whose curvature pair is delta/2 times the plain pair.

    ``delta`` is one length, or one per point of stacked coefficients.
    """
    half = 0.5 * np.asarray(delta, dtype=float)

    def scaled(arr, axes):                 # half times ``arr`` with ``axes`` trailing axes
        return None if arr is None else half[(...,) + (None,) * axes] * arr

    return RestrictedPointCoeffs(
        n_components=coeffs.n_components,
        gamma_bar=coeffs.gamma_bar,
        gamma_hat=None if coeffs.gamma_bar is None
        else _ScaledPotential(coeffs.gamma_bar, half),
        chi=coeffs.chi,
        kappa=scaled(coeffs.chi, 2),
        chi_tilde=coeffs.chi_tilde,
        gamma0=coeffs.gamma0,
        kappa_hat=scaled(coeffs.chi_tilde, 1),
        gamma1=coeffs.gamma0,
        div_chi=coeffs.div_chi,
        div_kappa=scaled(coeffs.div_chi, 1),
        div_chi_tilde=coeffs.div_chi_tilde,
        div_kappa_hat=scaled(coeffs.div_chi_tilde, 0),
    )


def coeffs_from_surface(surf, point):
    """Chart-indexed point coefficients of a :class:`RestrictedSurface`.

    Constant Cartesian coefficient vectors project onto the chart with the
    exact covariant divergence -2 H (c . n) of a tangentially projected
    constant field.  Rejects any other surface pair.  A stacked ``point``
    gives stacked coefficients.
    """
    if not isinstance(surf, RestrictedSurface):
        name = getattr(surf, "name", type(surf).__name__)
        raise ValueError(f"surface Lagrangian {name!r} is not in restricted form")
    H = np.asarray(point.mean_curvature)
    tang = point.tangents

    def channel(arr):
        if arr is None:
            return None, None
        rows = np.atleast_2d(arr)                          # a drift vector is one row
        chart = np.einsum("...ab,...bj,cj->...ac", point.metric_inv, tang, rows)
        div = -2.0 * H[..., None] * np.einsum("cj,...j->...c", rows, point.normal)
        if arr.ndim == 1:                                  # drift vector
            return chart[..., 0], div[..., 0][()]
        return chart, div

    chi, div_chi = channel(surf.chi)
    kappa, div_kappa = channel(surf.kappa)
    chi_tilde, div_ct = channel(surf.chi_tilde)
    kappa_hat, div_kh = channel(surf.kappa_hat)
    return RestrictedPointCoeffs(
        surf.n_components,
        gamma_bar=surf.gamma_bar,
        gamma_hat=surf.gamma_hat_potential,
        chi=chi, kappa=kappa,
        chi_tilde=chi_tilde, gamma0=surf.gamma0_potential,
        kappa_hat=kappa_hat, gamma1=surf.gamma1_potential,
        div_chi=div_chi, div_kappa=div_kappa,
        div_chi_tilde=0.0 if div_ct is None else div_ct,
        div_kappa_hat=0.0 if div_kh is None else div_kh,
    )


# -- boundary-condition evaluations -------------------------------------------

def _channel_pieces(point, drift, drift_pot, coupling, div_coupling, div_drift):
    """Momentum, its divergence, and the potential-derivative row of one channel."""
    momentum = np.asarray(coupling, dtype=float)              # (..., 2, k)
    div = np.asarray(div_coupling, dtype=float)               # (..., k)
    carried = np.zeros_like(point.phi)
    if drift is not None:
        g = _pot_grad(drift_pot, point.phi)
        hess = _pot_hess(drift_pot, point.phi)
        momentum = momentum + drift[..., :, None] * g[..., None, :]
        # product rule: div(drift * g(phi)) = div(drift) g + drift^A d_A g
        carried = np.einsum("...a,...ac,...cd->...d", drift, point.dphi, hess)
        div = div + np.asarray(div_drift)[..., None] * g + carried
    return momentum, div, carried


def general_bc_rhs(point, coeffs):
    """Right-hand side of the unreduced curvature boundary condition.

    Full chain rule through the restricted pair at one point (or a stack of
    points), Cartesian components with the outward flux normal.
    """
    phi = point.phi
    H = np.asarray(point.mean_curvature)[..., None]

    _, div_pi0, extra0 = _channel_pieces(
        point, coeffs.chi_tilde, coeffs.gamma0, coeffs.chi,
        coeffs.div_chi, coeffs.div_chi_tilde)
    d_gamma0_phi = _pot_grad(coeffs.gamma_bar, phi) + extra0

    pihat, div_pihat, extrah = _channel_pieces(
        point, coeffs.kappa_hat, coeffs.gamma1, coeffs.kappa,
        coeffs.div_kappa, coeffs.div_kappa_hat)
    d_gammahat_phi = _pot_grad(coeffs.gamma_hat, phi) + extrah

    return (div_pi0 - d_gamma0_phi
            + 2.0 * H * (d_gammahat_phi - div_pihat)
            - 2.0 * np.einsum("...ak,...a->...k", pihat, point.grad_H))


def reduced_bc_rhs(point, coeffs):
    """Right-hand side of the reduced boundary condition.

    Keeps the potential gradients, the coefficient divergences and the
    curvature-gradient coupling; the drift channels are dropped, which is
    exact when they are covariantly constant and the curvature is uniform
    (the general route keeps their full contribution).
    """
    phi = point.phi
    H = np.asarray(point.mean_curvature)[..., None]
    return (-_pot_grad(coeffs.gamma_bar, phi)
            + coeffs.div_chi
            + 2.0 * H * (_pot_grad(coeffs.gamma_hat, phi) - coeffs.div_kappa)
            - 2.0 * np.einsum("...ak,...a->...k", coeffs.kappa, point.grad_H))


def extended_bc_rhs(point, coeffs, delta):
    """Size-corrected boundary condition from tying the pairs with ``delta``.

    Evaluates ``(1 - delta H) [div(momentum) - d(plain)/d(phi)]
    - delta momentum^A d_A H`` using only the plain channel of ``coeffs``.
    Equals :func:`general_bc_rhs` with the curvature pair set to half
    ``delta`` times the plain pair (see :func:`tie_curvature_channel`).
    """
    phi = point.phi
    H = np.asarray(point.mean_curvature)[..., None]
    delta = np.asarray(delta, dtype=float)[..., None]
    pi0, div_pi0, extra0 = _channel_pieces(
        point, coeffs.chi_tilde, coeffs.gamma0, coeffs.chi,
        coeffs.div_chi, coeffs.div_chi_tilde)
    d_gamma0_phi = _pot_grad(coeffs.gamma_bar, phi) + extra0
    bracket = div_pi0 - d_gamma0_phi
    return ((1.0 - delta * H) * bracket
            - delta * np.einsum("...ak,...a->...k", pi0, point.grad_H))


# -- droplet laws --------------------------------------------------------------

def isotropic_bc_values(params, H, grad_H=None, metric_inv=None):
    """Droplet boundary values: (tangential 2-vector, normal scalar).

    Normal value is ``2 sigma H - 4 tau H^2`` (pressure side, inward
    projection); tangential value is ``-2 tau`` times the raised curvature
    gradient, evaluated in an orthonormal tangent frame unless a metric
    inverse is supplied (the metric-derivative terms of the chart form are
    coordinate artifacts and vanish in orthonormal frames).  Both values are
    per point: ``H`` may be a stack of points, and so may the params.
    """
    H = np.asarray(H, dtype=float)
    normal = (2.0 * params.sigma * H - 4.0 * params.tau * H**2)[()]
    if grad_H is None:
        tangential = np.zeros(H.shape + (2,))
    else:
        grad_H = np.asarray(grad_H, dtype=float)
        ginv = np.eye(2) if metric_inv is None else np.asarray(metric_inv, dtype=float)
        tau = np.asarray(params.tau, dtype=float)[..., None]
        tangential = -2.0 * tau * np.einsum("...ab,...b->...a", ginv, grad_H)
    return tangential, normal


def tolman_pressure(params, H):
    """Size-corrected capillary pressure 2 sigma H (1 - delta H)."""
    H = np.asarray(H, dtype=float)
    return 2.0 * params.sigma * H * (1.0 - params.delta * H)


@dataclass
class TolmanCurve:
    """Pressure-vs-radius table for a uniform-tension droplet.

    Columns: R, H = 1/R, dp_tolman, dp_young_laplace = 2 sigma H, and the
    relative size effect delta_H = delta * H.  Row identity
    ``dp_tolman = dp_young_laplace * (1 - delta_H)`` holds to 1e-12.
    """

    params: IsotropicSurfaceParams
    radii: np.ndarray
    mean_curvatures: np.ndarray = field(init=False)
    dp_tolman: np.ndarray = field(init=False)
    dp_young_laplace: np.ndarray = field(init=False)
    delta_H: np.ndarray = field(init=False)

    CSV_HEADER = "R,H,dp_tolman,dp_young_laplace,delta_H"

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        if not (np.isfinite(self.radii) & (self.radii > 0)).all():
            raise ValueError("radii must be finite and positive")
        H = 1.0 / self.radii
        self.mean_curvatures = H
        self.dp_young_laplace = 2.0 * self.params.sigma * H
        self.delta_H = self.params.delta * H
        self.dp_tolman = tolman_pressure(self.params, H)
        # row identities: factored form and the normal boundary value agree
        ident = self.dp_young_laplace * (1.0 - self.delta_H)
        scale = 1.0 + np.abs(self.dp_tolman).max()
        if np.abs(ident - self.dp_tolman).max() > 1e-12 * scale:
            raise AssertionError("pressure factorization identity violated")
        normals = isotropic_bc_values(self.params, H)[1]
        if np.abs(normals - self.dp_tolman).max() > 1e-12 * scale:
            raise AssertionError("normal boundary value identity violated")

    def rows(self):
        return np.column_stack([self.radii, self.mean_curvatures,
                                self.dp_tolman, self.dp_young_laplace,
                                self.delta_H])

    def write_csv(self, path, comments=()):
        with open(path, "w", encoding="utf-8") as fh:
            for line in comments:
                fh.write(f"# {line}\n")
            fh.write(self.CSV_HEADER + "\n")
            for row in self.rows():
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def tolman_curve(params, radii):
    radii = np.sort(np.asarray(radii, dtype=float))
    return TolmanCurve(params, radii)


# -- equivalence report ---------------------------------------------------------

@dataclass
class ReductionRow:
    name: str
    passed: Optional[bool]
    max_deviation: float
    tolerance: Optional[float]
    note: str = ""


@dataclass
class ReductionReport:
    rows: list

    @property
    def all_passed(self):
        return all(r.passed for r in self.rows if r.passed is not None)

    def row(self, name):
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def format_table(self):
        lines = [f"{'check':44s} {'status':8s} {'max dev':>12s} {'tol':>9s}  note"]
        for r in self.rows:
            status = "finding" if r.passed is None else ("pass" if r.passed else "FAIL")
            tol = "-" if r.tolerance is None else f"{r.tolerance:.0e}"
            lines.append(f"{r.name:44s} {status:8s} {r.max_deviation:12.3e} "
                         f"{tol:>9s}  {r.note}")
        return "\n".join(lines)

    def to_rows(self):
        """The rows as plain dicts, ready for ``json.dump``."""
        return [{
            "name": r.name,
            "passed": r.passed,
            "max_deviation": r.max_deviation,
            "tolerance": r.tolerance,
            "note": r.note,
        } for r in self.rows]


class _CubicPotential:
    """Quadratic-plus-cubic scalar potential for exercising hessian terms.

    ``linear (..., k)``, ``matrix (..., k, k)`` and ``cubic (...)`` may carry
    one potential per point; they broadcast against the rows of ``phi``.
    """

    def __init__(self, linear, matrix, cubic):
        matrix = np.asarray(matrix, dtype=float)
        self.linear = np.asarray(linear, dtype=float)
        self.matrix = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
        self.cubic = np.asarray(cubic, dtype=float)

    def value(self, phi):
        return (np.einsum("...i,...i->...", phi, self.linear)
                + 0.5 * np.einsum("...i,...ij,...j->...", phi, self.matrix, phi)
                + self.cubic / 6.0 * (phi**3).sum(axis=-1))

    def grad(self, phi):
        return (self.linear + np.einsum("...i,...ij->...j", phi, self.matrix)
                + 0.5 * self.cubic[..., None] * phi**2)

    def hess(self, phi):
        base = np.broadcast_to(self.matrix, phi.shape + phi.shape[-1:]).copy()
        idx = np.arange(phi.shape[-1])
        base[..., idx, idx] += self.cubic[..., None] * phi
        return base


def _random_potential(rng, k, n):
    """``n`` random cubic potentials, one per point."""
    return _CubicPotential(rng.standard_normal((n, k)),
                           rng.standard_normal((n, k, k)),
                           rng.standard_normal(n))


def _random_coeffs(rng, k, n, with_channels=True):
    """Random restricted coefficients for ``n`` stacked points."""
    kwargs = dict(
        n_components=k,
        gamma_bar=_random_potential(rng, k, n),
        gamma_hat=_random_potential(rng, k, n),
        chi=rng.standard_normal((n, 2, k)),
        kappa=rng.standard_normal((n, 2, k)),
        div_chi=rng.standard_normal((n, k)),
        div_kappa=rng.standard_normal((n, k)),
    )
    if with_channels:
        kwargs.update(
            chi_tilde=rng.standard_normal((n, 2)),
            gamma0=_random_potential(rng, k, n),
            kappa_hat=rng.standard_normal((n, 2)),
            gamma1=_random_potential(rng, k, n),
        )
    return RestrictedPointCoeffs(**kwargs)


def _fixture_jets():
    """Stacked sphere and torus jets at the fixture chart points."""
    theta, phi = np.meshgrid((0.5, 1.2, 2.3), (0.3, 2.1, 4.4), indexing="ij")
    u, v = np.meshgrid((0.4, 1.7, 3.9), (0.7, 2.0, 3.6, 5.1), indexing="ij")
    return {"sphere": _stacked_jet(AnalyticSurface.sphere(1.0), theta.ravel(), phi.ravel()),
            "torus": _stacked_jet(AnalyticSurface.torus(2.0, 0.5), u.ravel(), v.ravel())}


def verify_reductions(trials=25, seed=0):
    """Cross-check every reduction step; returns a :class:`ReductionReport`.

    Analytic rows use sphere and torus jets with random restricted data;
    discrete rows compare the mesh machinery against closed forms under
    refinement.  The printed-sign discrepancy of the adapted-frame normal
    row is measured and reported as a finding, not asserted.
    """
    rng = np.random.default_rng(seed)
    fixtures = _fixture_jets()
    rows = []
    TIGHT = 1e-10

    def jets(*names):
        """The named fixture jets stacked, each repeated for ``trials`` states."""
        stack = [[getattr(fixtures[s], f.name) for s in names] for f in fields(GeometryJet)]
        return GeometryJet(*(np.repeat(np.concatenate(parts), trials, axis=0) for parts in stack))

    def states(*names):
        """One random state per (jet, trial) pair, and the number of pairs."""
        jet = jets(*names)
        n = len(jet.mean_curvature)
        return BoundaryPoint.from_jet(jet, rng.standard_normal((n, 3)),
                                      rng.standard_normal((n, 2, 3))), n

    def worst(diff):
        return float(np.abs(diff).max())

    def isotropic(point, sigma, tau):
        # the uniform-tension pair is linear in (sigma, tau): scale the unit pair
        unit = coeffs_from_surface(make_isotropic_surface(1.0, 1.0), point)
        return RestrictedPointCoeffs(
            3, chi=sigma[:, None, None] * unit.chi, kappa=tau[:, None, None] * unit.kappa,
            div_chi=sigma[:, None] * unit.div_chi, div_kappa=tau[:, None] * unit.div_kappa)

    # 1. reduced route equals the general route when the drift channels are
    # covariantly constant and the curvature is uniform (sphere fixture).
    point, n = states("sphere")
    coeffs = _random_coeffs(rng, 3, n)
    coeffs.div_chi_tilde = 0.0
    coeffs.div_kappa_hat = 0.0
    dev = worst(general_bc_rhs(point, coeffs) - reduced_bc_rhs(point, coeffs))
    rows.append(ReductionRow(
        "reduced_equals_general_uniform_curvature", dev <= TIGHT, dev, TIGHT,
        "drift-channel derivative terms cancel through the potential hessians"))

    # 2. the plain drift channel drops from the general route entirely
    # (variable curvature included) when its coefficient is divergence-free.
    point, n = states("torus")
    base = _random_coeffs(rng, 3, n, with_channels=False)
    with_chan = RestrictedPointCoeffs(
        3, gamma_bar=base.gamma_bar, gamma_hat=base.gamma_hat,
        chi=base.chi, kappa=base.kappa,
        div_chi=base.div_chi, div_kappa=base.div_kappa,
        chi_tilde=rng.standard_normal((n, 2)), gamma0=_random_potential(rng, 3, n))
    dev = worst(general_bc_rhs(point, with_chan) - general_bc_rhs(point, base))
    rows.append(ReductionRow(
        "plain_drift_channel_drops", dev <= TIGHT, dev, TIGHT,
        "divergence-free drift in the plain pair never reaches the boundary condition"))

    # 3. the curvature drift channel leaves exactly one remnant, the
    # curvature-gradient coupling; zero on uniform-curvature surfaces.
    point, n = states("torus")
    base = _random_coeffs(rng, 3, n, with_channels=False)
    kappa_hat = rng.standard_normal((n, 2))
    gamma1 = _random_potential(rng, 3, n)
    with_chan = RestrictedPointCoeffs(
        3, gamma_bar=base.gamma_bar, gamma_hat=base.gamma_hat,
        chi=base.chi, kappa=base.kappa,
        div_chi=base.div_chi, div_kappa=base.div_kappa,
        kappa_hat=kappa_hat, gamma1=gamma1)
    remnant = (-2.0 * np.einsum("na,na->n", kappa_hat, point.grad_H)[:, None]
               * _pot_grad(gamma1, point.phi))
    dev = worst(general_bc_rhs(point, with_chan) - general_bc_rhs(point, base) - remnant)
    rows.append(ReductionRow(
        "curvature_drift_channel_remnant", dev <= TIGHT, dev, TIGHT,
        "remnant -2 (khat . grad H) dgamma1/dphi; zero where curvature is uniform "
        "and omitted by the reduced route"))

    # 4. normal projection identity between the component form and the
    # projected form of the uniform-tension condition, potentials included.
    point, n = states("sphere", "torus")
    sigma, tau = rng.uniform(0.2, 2.0, n), rng.uniform(-0.5, 0.5, n)
    coeffs = isotropic(point, sigma, tau)
    coeffs.gamma_bar = _random_potential(rng, 3, n)
    coeffs.gamma_hat = _random_potential(rng, 3, n)
    nu = -point.normal                           # inward frame normal
    H = point.mean_curvature

    def inward(vec):
        return np.einsum("nj,nj->n", vec, nu)

    projected = (2.0 * sigma * H - inward(_pot_grad(coeffs.gamma_bar, point.phi))
                 + 2.0 * H * (inward(_pot_grad(coeffs.gamma_hat, point.phi)) - 2.0 * tau * H))
    dev = worst(inward(general_bc_rhs(point, coeffs)) - projected)
    rows.append(ReductionRow(
        "normal_projection_identity", dev <= TIGHT, dev, TIGHT,
        "component row equals the inward-projected form"))

    # 5. tangential row of the uniform-tension condition: -2 tau raised grad H
    # (metric-derivative terms vanish in the invariant evaluation).
    point, n = states("torus")
    sigma, tau = rng.uniform(0.2, 2.0, n), rng.uniform(-0.5, 0.5, n)
    tang = point.tangential_components(general_bc_rhs(point, isotropic(point, sigma, tau)))
    dev = worst(tang + 2.0 * tau[:, None] * point.raise_index(point.grad_H))
    rows.append(ReductionRow(
        "tangential_row_tension_gradient", dev <= TIGHT, dev, TIGHT,
        "evaluated invariantly; chart metric-derivative terms are frame artifacts"))

    # 6. pressure algebra: normal value, factored form, limits.
    sigma = rng.uniform(0.1, 3.0, trials)
    params = IsotropicSurfaceParams(sigma, rng.uniform(0.0, 0.5, trials) * sigma)
    H = rng.uniform(0.05, 5.0, trials)
    _, normal = isotropic_bc_values(params, H)
    # the zero at R = delta; H = 0 where delta = 0 is a trivial zero
    H_delta = np.divide(1.0, params.delta, out=np.zeros(trials), where=params.delta > 0)
    dev = max(worst(normal - tolman_pressure(params, H)), worst(tolman_pressure(params, H_delta)))
    rows.append(ReductionRow(
        "pressure_normal_value_identity", dev <= 1e-12, dev, 1e-12,
        "normal boundary value equals the factored pressure; zero at R = delta"))

    # 7. tied curvature pair: the general route with the pair scaled by
    # delta/2 equals the size-corrected one-channel form.
    point, n = states("sphere", "torus")
    coeffs = _random_coeffs(rng, 3, n)
    coeffs.kappa = np.zeros((2, 3))
    coeffs.div_kappa = np.zeros(3)
    coeffs.gamma_hat = None
    coeffs.kappa_hat = None
    coeffs.gamma1 = None
    delta = rng.uniform(-0.4, 0.4, n)
    dev = worst(general_bc_rhs(point, tie_curvature_channel(coeffs, delta))
                - extended_bc_rhs(point, coeffs, delta))
    rows.append(ReductionRow(
        "tied_pair_equals_size_corrected_form", dev <= TIGHT, dev, TIGHT,
        "identity holds for constant delta including drift channels"))

    # 8. adapted-frame expansions against the frame-free route, for
    # frame-constant coefficient components.
    jet = jets("sphere", "torus")
    n = len(jet.mean_curvature)
    chi_f = rng.standard_normal((n, 2, 3))
    kappa_f = rng.standard_normal((n, 2, 3))
    dgb = rng.standard_normal((n, 3))
    dgh = rng.standard_normal((n, 3))
    terms = expansion_terms(jet, chi=chi_f, kappa=kappa_f, dgamma_bar=dgb, dgamma_hat=dgh)
    div_chi = adapted_coefficient_divergence(jet, chi_f)
    div_kappa = adapted_coefficient_divergence(jet, kappa_f)
    nu = -jet.normal
    frame = np.concatenate([jet.tangents, nu[:, None, :]], axis=1)   # g_1, g_2, nu
    H = jet.mean_curvature[:, None]

    def cartesian(adapted):                      # adapted components -> Cartesian
        return np.einsum("n...m,nmj->n...j", adapted, frame)

    rhs_cart = (div_chi - cartesian(dgb)
                + 2.0 * H * (cartesian(dgh) - div_kappa)
                - 2.0 * np.einsum("nak,na->nk", cartesian(kappa_f), jet.d_H))
    tang = np.einsum("nab,nbj,nj->na", jet.metric_inv, jet.tangents, rhs_cart)
    dev_t = worst(tang - terms.rhs_tangential_printed)
    dev_n = worst(np.einsum("nj,nj->n", nu, rhs_cart) - terms.rhs_normal_corrected)
    printed_dev = np.abs(terms.rhs_normal_printed - terms.rhs_normal_corrected)
    closed = np.abs(4.0 * jet.mean_curvature * (terms.kappa_conn_n + terms.kappa_curv_n))
    dev_printed, printed_closed = float(printed_dev.max()), worst(printed_dev - closed)

    rows.append(ReductionRow(
        "adapted_tangential_row_matches", dev_t <= TIGHT, dev_t, TIGHT,
        "printed tangential expansion agrees with the frame-free route"))
    rows.append(ReductionRow(
        "adapted_normal_row_corrected_matches", dev_n <= TIGHT, dev_n, TIGHT,
        "normal expansion with corrected curvature-block signs agrees"))
    rows.append(ReductionRow(
        "adapted_normal_row_printed_signs", None, dev_printed, None,
        "printed normal row deviates from the frame-free route by exactly "
        f"4H(connection+curvature kappa couplings); closed-form match {printed_closed:.2e}"))

    # 9. discrete route: the mesh boundary-condition load reproduces the
    # droplet normal value under refinement.
    from .variational_engine import FieldState, surface_bc_terms
    sigma, tau = 1.0, 0.05
    spec = make_isotropic_surface(sigma, tau)
    devs = []
    for level in (2, 3):
        mesh = build_icosphere(1.0, level)
        rhs, _ = surface_bc_terms(mesh, spec, FieldState(np.zeros((mesh.n_vertices, 3))))
        normal_vals = -np.einsum("vk,vk->v", rhs, mesh.vertices / 1.0)
        expect = 2.0 * sigma - 4.0 * tau
        devs.append(float(np.abs(normal_vals - expect).max() / abs(expect)))
    disc_tol = 0.05
    refining = devs[-1] < devs[0] or devs[-1] <= 1e-10
    rows.append(ReductionRow(
        "discrete_droplet_normal_value", devs[-1] <= disc_tol and refining,
        devs[-1], disc_tol,
        f"mesh route vs closed form, refining {devs[0]:.3e} -> {devs[-1]:.3e}"))

    return ReductionReport(rows)
