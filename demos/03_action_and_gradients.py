"""Assembling the discrete action and trusting its gradient.

Puts a random field on a tetrahedralized ball, splits the action into its
bulk, plain-surface and curvature-weighted parts, then verifies the
analytic gradient against central finite differences and shows that the
isotropic surface energy ignores rigid motions.
"""
import numpy as np

from curvbc import (FieldState, action_gradient, assemble_action,
                    build_ball_tetmesh, build_icosphere, check_partials,
                    harmonic, linear_elastic, make_isotropic_surface,
                    poisson_source, robin_surface, surface_action)

rng = np.random.default_rng(11)

mesh = build_ball_tetmesh(1.0, surface_level=2, radial_layers=4)
print(f"ball mesh: {mesh.n_vertices} vertices, {mesh.n_tets} tets, "
      f"{mesh.boundary.n_faces} boundary faces")
print(f"tet volume total: {mesh.total_volume:.6f} "
      f"(4 pi/3 = {4 * np.pi / 3:.6f}; gap is the inscribed-polyhedron deficit)")

# scalar problem: poisson bulk with a robin boundary term
state = FieldState(rng.standard_normal((mesh.n_vertices, 1)))
parts = assemble_action(mesh, poisson_source(6.0), robin_surface(2.0), state)
print()
print("action breakdown, poisson bulk + robin surface, random state")
print(f"  bulk              {parts.bulk:+.6f}")
print(f"  surface plain     {parts.surface_plain:+.6f}")
print(f"  surface curvature {parts.surface_curvature:+.6f}")
print(f"  total             {parts.total:+.6f}")

# catalog partials against central differences
print()
print("catalog partials vs finite differences (worst relative deviation)")
for label, spec in [("harmonic", harmonic()),
                    ("poisson_source(6)", poisson_source(6.0)),
                    ("linear_elastic(1,1)", linear_elastic(1.0, 1.0)),
                    ("isotropic_surface(1,0.1)", make_isotropic_surface(1.0, 0.1))]:
    report = check_partials(spec, trials=5, seed=3)
    worst = max(report.max_err.values())
    print(f"  {label:<26} {worst:.2e}  passed={report.passed}")

# directional derivative of the full assembled action
bulk = linear_elastic(1.0, 1.0)
surface = make_isotropic_surface(1.0, 0.1)
state = FieldState(0.1 * rng.standard_normal((mesh.n_vertices, 3)))
grad = action_gradient(mesh, bulk, surface, state)
direction = rng.standard_normal(state.values.shape)
eps = 1e-6
a_plus = assemble_action(mesh, bulk, surface,
                         FieldState(state.values + eps * direction)).total
a_minus = assemble_action(mesh, bulk, surface,
                          FieldState(state.values - eps * direction)).total
fd = (a_plus - a_minus) / (2 * eps)
exact = float((grad * direction).sum())
print()
print(f"assembled-action gradient probe: fd = {fd:.8f}, "
      f"analytic = {exact:.8f}, rel dev = {abs(fd - exact) / abs(exact):.1e}")

# rigid motions cost the isotropic surface nothing: u = shift + spin x x
sphere = build_icosphere(1.0, 3)
shift = np.array([0.4, -0.2, 0.9])
spin = np.array([0.1, 0.7, -0.3])
u = shift + np.cross(spin, sphere.vertices)
plain, curv = surface_action(sphere, surface, u)
print(f"rigid motion surface energy: plain = {plain:.2e}, "
      f"curvature = {curv:.2e} (zero up to roundoff)")
