"""Size-dependent capillary pressure of a uniform-tension droplet.

A surface energy sigma + curvature weight tau gives the pressure jump

    dp = 2 sigma H (1 - delta H),    delta = 2 tau / sigma

which undercuts the Young-Laplace value 2 sigma H for small droplets and
crosses zero at R = delta.  The script tabulates the curve, recovers the
same number from a finite-difference inflation of the discrete surface
energy on an icosphere, and runs the built-in reduction audit.
"""
import numpy as np

from curvbc import (IsotropicSurfaceParams, build_icosphere, make_isotropic_surface,
                    surface_action, tolman_curve, verify_reductions)

params = IsotropicSurfaceParams(sigma=1.0, tau=0.05)
print(f"sigma = {params.sigma}, tau = {params.tau}, delta = {params.delta}")

radii = np.array([0.05, params.delta, 0.2, 0.5, 1.0, 2.0, 10.0])
curve = tolman_curve(params, radii)
print()
print(f"{'R':>6} {'dp':>12} {'2 sigma H':>12} {'correction':>11}")
for R, H, dp, dp_yl, delta_H in curve.rows():
    print(f"{R:>6.2f} {dp:>12.6f} {dp_yl:>12.6f} {-delta_H:>+11.1%}")
crossing = curve.rows()[1]          # rows are sorted by R; delta is second
print(f"zero crossing at R = delta = {params.delta} (dp there: {crossing[2]:.1e})")

# discrete cross-check: inflate an icosphere radially by eps and take the
# energy derivative per unit area; it reproduces dp without any formula
surf = make_isotropic_surface(params.sigma, params.tau)
step = 1e-6
print()
print("finite-difference inflation of the discrete surface energy")
print(f"{'R':>4} {'level':>6} {'dE/d_eps / area':>16} {'dp formula':>11} {'rel dev':>9}")
for R in (1.0, 2.0, 4.0):
    mesh = build_icosphere(R, 3)
    radial = mesh.vertices / R

    def energy(eps):
        plain, curv = surface_action(mesh, surf, eps * radial)
        return plain + curv

    per_area = (energy(step) - energy(-step)) / (2 * step) / mesh.total_area
    dp = 2 * params.sigma / R * (1 - params.delta / R)
    print(f"{R:>4.0f} {3:>6} {per_area:>16.8f} {dp:>11.8f} "
          f"{abs(per_area - dp) / abs(dp):>9.1e}")

# audit chain: general boundary expansion -> restricted channels ->
# curvature-tied extension -> droplet values, checked on random states
print()
report = verify_reductions(trials=10, seed=4)
print(report.format_table())
print(f"all equivalence rows passed: {report.all_passed}")
