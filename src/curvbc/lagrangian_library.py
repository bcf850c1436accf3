"""Catalog of bulk and surface energy densities with exact partials.

Bulk densities are functions of the field value and its spatial gradient;
surface densities split into a plain term and a term the assembler
multiplies by minus twice the local mean curvature.  Every entry carries
hand-written partial derivatives; ``check_partials`` verifies them against
central finite differences on random states.  Every catalog surface pair
(zero, Robin, uniform tension) is a :class:`RestrictedSurface`, which is
stated once, by its coefficients, and builds its partials from them.  The
constructors refuse non-finite parameters.

Shapes: ``phi`` is (m, k), gradients are (m, k, 3) with
``grad[i, c, j]`` the j-th spatial partial of component c at sample i.
All evaluators are vectorized over the leading axis.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class ZeroPotential:
    """Potential that is identically zero."""

    def value(self, phi):
        return np.zeros(phi.shape[0])

    def grad(self, phi):
        return np.zeros_like(phi)

    def hess(self, phi):
        k = phi.shape[1]
        return np.zeros((phi.shape[0], k, k))


class QuadraticPotential:
    """0.5 * phi^T Q phi + c . phi with symmetric Q.

    ``quadratic_potential(beta, k)`` builds the isotropic case Q = beta * I.
    """

    def __init__(self, matrix, linear=None):
        q = np.atleast_2d(np.asarray(matrix, dtype=float))
        if not np.allclose(q, q.T):
            raise ValueError("quadratic potential matrix must be symmetric")
        self.matrix = q
        self.linear = np.zeros(len(q)) if linear is None else np.asarray(linear, dtype=float)

    def value(self, phi):
        return 0.5 * np.einsum("mi,ij,mj->m", phi, self.matrix, phi) + phi @ self.linear

    def grad(self, phi):
        return phi @ self.matrix.T + self.linear

    def hess(self, phi):
        return np.broadcast_to(self.matrix, (phi.shape[0],) + self.matrix.shape)


def quadratic_potential(beta, n_components=1):
    return QuadraticPotential(beta * np.eye(n_components))


@dataclass
class BulkLagrangian:
    """Volume energy density L(phi, grad) with exact partials, of any form:
    the solver's probe of the partials tells whether it is quadratic."""

    name: str
    n_components: int
    density: Callable
    d_phi: Callable
    d_grad: Callable


@dataclass
class SurfaceLagrangian:
    """Boundary energy pair (gamma0, gamma_hat) with exact partials.

    The assembled surface action integrates ``gamma0 - 2 H gamma_hat``
    over the boundary.  Evaluators share the bulk signature; the gradient
    argument is the tangential surface gradient of the field.  The densities
    may take any form; a pair stated by its coefficients is a
    :class:`RestrictedSurface`.
    """

    name: str
    n_components: int
    gamma0: Callable
    gamma0_d_phi: Callable
    gamma0_d_grad: Callable
    gamma_hat: Callable
    gamma_hat_d_phi: Callable
    gamma_hat_d_grad: Callable


# -- bulk catalog -----------------------------------------------------------

def _finite(label, value):
    """``value`` as a float, refused under ``label`` unless finite."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value}")
    return value


def harmonic(n_components=1):
    """Dirichlet energy, L = 0.5 |grad phi|^2 summed over components."""

    def density(phi, grad):
        return 0.5 * np.einsum("mkj,mkj->m", grad, grad)

    def d_phi(phi, grad):
        return np.zeros_like(phi)

    def d_grad(phi, grad):
        return grad.copy()

    return BulkLagrangian("harmonic", int(n_components), density, d_phi, d_grad)


def poisson_source(source, n_components=1):
    """L = 0.5 |grad phi|^2 - source * phi_0; stationary points solve
    laplace(phi_0) = -source."""
    f = _finite("source", source)

    def density(phi, grad):
        return 0.5 * np.einsum("mkj,mkj->m", grad, grad) - f * phi[:, 0]

    def d_phi(phi, grad):
        out = np.zeros_like(phi)
        out[:, 0] = -f
        return out

    def d_grad(phi, grad):
        return grad.copy()

    return BulkLagrangian(f"poisson_source({f:g})", int(n_components), density,
                          d_phi, d_grad)


def linear_elastic(lam, mu):
    """Isotropic small-strain elastic energy for a 3-component displacement.

    L = 0.5 lam tr(eps)^2 + mu tr(eps^2), eps the symmetric gradient.
    Requires mu > 0 and a non-negative bulk modulus lam + 2 mu / 3.
    """
    lam, mu = _finite("lam", lam), _finite("mu", mu)
    if mu <= 0:
        raise ValueError("shear modulus mu must be positive")
    if lam + 2.0 * mu / 3.0 < 0:
        raise ValueError("bulk modulus lam + 2 mu / 3 must be non-negative")

    def strain(grad):
        return 0.5 * (grad + np.swapaxes(grad, 1, 2))

    def density(phi, grad):
        eps = strain(grad)
        tr = np.einsum("mkk->m", eps)
        return 0.5 * lam * tr**2 + mu * np.einsum("mij,mij->m", eps, eps)

    def d_phi(phi, grad):
        return np.zeros_like(phi)

    def d_grad(phi, grad):
        eps = strain(grad)
        tr = np.einsum("mkk->m", eps)
        out = 2.0 * mu * eps
        out[:, np.arange(3), np.arange(3)] += lam * tr[:, None]
        return out

    return BulkLagrangian(f"linear_elastic({lam:g},{mu:g})", 3, density, d_phi, d_grad)


def builtin_bulk(name, **params):
    """Catalog lookup for the bulk densities by name."""
    if name == "harmonic":
        return harmonic(params.get("n_components", 1))
    if name == "poisson_source":
        return poisson_source(params.get("source", 1.0),
                              params.get("n_components", 1))
    if name == "linear_elastic":
        return linear_elastic(params.get("lam", 1.0), params.get("mu", 1.0))
    raise ValueError(f"unknown bulk lagrangian {name!r}")


# -- surface catalog --------------------------------------------------------

def _channel(pot, drift, drift_pot, couple):
    """density(phi, grad) = pot(phi) + drift . grad(drift_pot(phi)) + couple_c . grad phi_c,
    with its phi and grad partials."""
    def dens(phi, grad):
        out = pot.value(phi)
        if drift is not None:
            out = out + np.einsum("j,mcj,mc->m", drift, grad, drift_pot.grad(phi))
        if couple is not None:
            out = out + np.einsum("cj,mcj->m", couple, grad)
        return out

    def dens_d_phi(phi, grad):
        out = pot.grad(phi)
        if drift is not None:
            # d/dphi_c of drift . grad(drift_pot): hessian contraction
            out = out + np.einsum("j,mdj,mdc->mc", drift, grad, drift_pot.hess(phi))
        return out

    def dens_d_grad(phi, grad):
        out = np.zeros_like(grad)
        if drift is not None:
            out += np.einsum("j,mc->mcj", drift, drift_pot.grad(phi))
        if couple is not None:
            out += couple[None, :, :]
        return out

    return dens, dens_d_phi, dens_d_grad


@dataclass
class RestrictedSurface(SurfaceLagrangian):
    """Surface pair linear in the field gradient, stated by its coefficients.

    gamma0 term: gamma_bar(phi) + chi_tilde . grad(gamma0_potential(phi))
    + sum_c chi[c] . grad phi_c, and analogously for the curvature-weighted
    term with kappa_hat / gamma1_potential / kappa.  Vector coefficients are
    Cartesian: ``chi_tilde`` is (3,) and ``chi`` is (k, 3).  Only tangential
    parts contribute since surface gradients are tangential.  The
    coefficients are the only init fields: the six partials are built from
    them, so ``dataclasses.replace`` of a coefficient rebuilds the densities
    and the reduction together, and a replaced density is refused.
    """

    n_components: int
    gamma_bar: Optional[object] = None
    chi_tilde: Optional[np.ndarray] = None
    gamma0_potential: Optional[object] = None
    chi: Optional[np.ndarray] = None
    gamma_hat_potential: Optional[object] = None
    kappa_hat: Optional[np.ndarray] = None
    gamma1_potential: Optional[object] = None
    kappa: Optional[np.ndarray] = None
    name: str = field(default="restricted", kw_only=True)
    gamma0: Callable = field(init=False)
    gamma0_d_phi: Callable = field(init=False)
    gamma0_d_grad: Callable = field(init=False)
    gamma_hat: Callable = field(init=False)
    gamma_hat_d_phi: Callable = field(init=False)
    gamma_hat_d_grad: Callable = field(init=False)

    def __post_init__(self):
        k = self.n_components = int(self.n_components)

        def vectors(arr, shape):
            return None if arr is None else np.asarray(arr, dtype=float).reshape(shape)

        def pot(p):
            return ZeroPotential() if p is None else p

        self.chi_tilde, self.kappa_hat = vectors(self.chi_tilde, 3), vectors(self.kappa_hat, 3)
        self.chi, self.kappa = vectors(self.chi, (k, 3)), vectors(self.kappa, (k, 3))
        self.gamma0, self.gamma0_d_phi, self.gamma0_d_grad = _channel(
            pot(self.gamma_bar), self.chi_tilde, pot(self.gamma0_potential), self.chi)
        self.gamma_hat, self.gamma_hat_d_phi, self.gamma_hat_d_grad = _channel(
            pot(self.gamma_hat_potential), self.kappa_hat, pot(self.gamma1_potential),
            self.kappa)


def robin_surface(beta, n_components=1):
    """Quadratic boundary penalty gamma0 = 0.5 beta |phi|^2, no curvature term."""
    beta = _finite("robin coefficient beta", beta)
    if beta < 0:
        raise ValueError("robin coefficient beta must be non-negative")
    return RestrictedSurface(
        n_components,
        gamma_bar=quadratic_potential(beta, n_components),
        name=f"robin({beta:g})",
    )


def zero_surface(n_components=1):
    return RestrictedSurface(n_components, name="zero")


@dataclass(frozen=True)
class IsotropicSurfaceParams:
    """Uniform tension pair (sigma, tau) with the derived length delta.

    Requires finite sigma >= 0 and finite tau, with tau = 0 when sigma = 0,
    so that ``delta = 2 tau / sigma`` is defined whenever tau is used.  sigma
    and tau may be arrays of pairs; the checks and ``delta`` are elementwise.
    """

    sigma: float
    tau: float

    def __post_init__(self):
        sigma, tau = np.asarray(self.sigma), np.asarray(self.tau)
        if not (np.all(np.isfinite(sigma)) and np.all(np.isfinite(tau))):
            raise ValueError("sigma and tau must be finite")
        if np.any(sigma < 0):
            raise ValueError("surface tension sigma must be non-negative")
        if np.any((sigma == 0.0) & (tau != 0.0)):
            raise ValueError("tau requires a positive sigma")

    @property
    def delta(self):
        """``2 tau / sigma``, and 0 where sigma = 0."""
        sigma = np.asarray(self.sigma, dtype=float)
        return np.divide(2.0 * np.asarray(self.tau, dtype=float), sigma,
                         out=np.zeros(sigma.shape), where=sigma != 0.0)[()]


def make_isotropic_surface(sigma, tau):
    """Uniform-tension surface pair for a 3-component displacement field.

    The restricted pair with ``chi = sigma I`` and ``kappa = tau I``: both
    densities are the trace of the tangential displacement gradient (the
    first-order area dilation), weighted by the tension sigma and the
    curvature-tension tau, as checked by :class:`IsotropicSurfaceParams`.
    """
    params = IsotropicSurfaceParams(float(sigma), float(tau))
    return RestrictedSurface(
        3,
        chi=params.sigma * np.eye(3),
        kappa=params.tau * np.eye(3),
        name=f"isotropic({params.sigma:g},{params.tau:g})",
    )


# -- derivative verification ------------------------------------------------

@dataclass
class PartialsReport:
    name: str
    max_err: dict
    tolerance: float
    passed: bool

    def __str__(self):
        worst = max(self.max_err.values()) if self.max_err else 0.0
        state = "ok" if self.passed else "FAIL"
        return f"partials[{self.name}]: {state} (worst {worst:.3e}, tol {self.tolerance:.1e})"


def _fd_check(value_fn, partial_fn, args, slot, step, rng):
    """Max abs error of partial_fn against central differences in one slot."""
    base = [a.copy() for a in args]
    analytic = partial_fn(*base)
    direction = rng.standard_normal(base[slot].shape)
    fwd = [a.copy() for a in base]
    bwd = [a.copy() for a in base]
    fwd[slot] += step * direction
    bwd[slot] -= step * direction
    fd = (value_fn(*fwd) - value_fn(*bwd)) / (2.0 * step)
    axes = tuple(range(1, base[slot].ndim))
    proj = np.sum(analytic * direction, axis=axes)
    scale = 1.0 + np.abs(fd).max()
    return float(np.abs(proj - fd).max() / scale)


def check_partials(spec, trials=20, seed=0):
    """Verify a catalog entry's partials against central differences.

    Runs ``trials`` random states of 40 points each, with central-difference
    step 1e-6, and reports the worst relative deviation per derivative slot;
    the check passes at 1e-6.
    """
    step, tolerance, n_samples = 1e-6, 1e-6, 40
    rng = np.random.default_rng(seed)
    k = spec.n_components
    errs: dict = {}

    if isinstance(spec, BulkLagrangian):
        pairs = [("d_phi", spec.density, spec.d_phi, 0),
                 ("d_grad", spec.density, spec.d_grad, 1)]
    else:
        pairs = [("gamma0_d_phi", spec.gamma0, spec.gamma0_d_phi, 0),
                 ("gamma0_d_grad", spec.gamma0, spec.gamma0_d_grad, 1),
                 ("gamma_hat_d_phi", spec.gamma_hat, spec.gamma_hat_d_phi, 0),
                 ("gamma_hat_d_grad", spec.gamma_hat, spec.gamma_hat_d_grad, 1)]

    for _ in range(trials):
        phi = rng.standard_normal((n_samples, k))
        grad = rng.standard_normal((n_samples, k, 3))
        for label, value_fn, partial_fn, slot in pairs:
            err = _fd_check(value_fn, partial_fn, (phi, grad), slot, step, rng)
            errs[label] = max(errs.get(label, 0.0), err)

    passed = all(e <= tolerance for e in errs.values())
    return PartialsReport(spec.name, errs, tolerance, passed)
