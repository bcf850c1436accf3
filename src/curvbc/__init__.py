"""Variational boundary conditions on curved surfaces.

Bulk field theories on a region whose closed boundary carries its own
surface energy, including a term weighted by the local mean curvature.
The package provides triangle-mesh geometry operators, exact analytic
surface jets, a catalog of bulk and surface energy densities, a discrete
action with gradients and stationary solves, and the reduction of the
general boundary condition to droplet pressure laws with a first-order
size correction.
"""
from __future__ import annotations

import logging

__version__ = "0.1.0"

# solver fallbacks are reported on this logger; silent unless configured
logging.getLogger(__name__).addHandler(logging.NullHandler())

from .analytic_geometry import (AnalyticSurface, GeometryJet,
                                adapted_coefficient_divergence,
                                evaluate_jet, expansion_terms, sample_mesh)
from .lagrangian_library import (BulkLagrangian, IsotropicSurfaceParams,
                                 SurfaceLagrangian, QuadraticPotential,
                                 ZeroPotential, builtin_bulk, check_partials,
                                 harmonic, linear_elastic, make_isotropic_surface,
                                 make_restricted_surface, poisson_source,
                                 quadratic_potential, robin_surface,
                                 zero_surface)
from .mesh_io import read_obj, read_off, write_obj, write_vertex_csv
from .surface_mesh import (CurvatureData, MeshError, MeshQualityError,
                           TriangleMesh, build_icosphere,
                           curvature_identity_residual, integrate_surface,
                           mean_curvature, shape_operator,
                           surface_divergence, surface_gradient)
from .tolman_reduction import (BoundaryPoint, ReductionReport,
                               RestrictedPointCoeffs, TolmanCurve,
                               coeffs_from_surface, extended_bc_rhs, general_bc_rhs,
                               isotropic_bc_values, reduced_bc_rhs,
                               tie_curvature_channel, tolman_curve,
                               tolman_pressure, verify_reductions)
from .variational_engine import (ActionBreakdown, BCResidualReport,
                                 ConvergenceLog, FieldState,
                                 SingularProblemError, SolveOptions, TetMesh,
                                 action_gradient, assemble_action,
                                 build_ball_tetmesh, bulk_action,
                                 euler_lagrange_residual, natural_bc_residual,
                                 solve_stationary, surface_action)

__all__ = [
    "__version__",
    "AnalyticSurface", "GeometryJet", "adapted_coefficient_divergence",
    "evaluate_jet", "expansion_terms", "sample_mesh",
    "BulkLagrangian", "SurfaceLagrangian", "QuadraticPotential",
    "ZeroPotential", "builtin_bulk", "check_partials", "harmonic",
    "linear_elastic", "make_isotropic_surface", "make_restricted_surface",
    "poisson_source", "quadratic_potential", "robin_surface", "zero_surface",
    "read_obj", "read_off", "write_obj", "write_vertex_csv",
    "CurvatureData", "MeshError", "MeshQualityError", "TriangleMesh",
    "build_icosphere", "curvature_identity_residual", "integrate_surface",
    "mean_curvature", "shape_operator", "surface_divergence",
    "surface_gradient",
    "BoundaryPoint", "IsotropicSurfaceParams", "ReductionReport",
    "RestrictedPointCoeffs", "TolmanCurve", "coeffs_from_surface",
    "extended_bc_rhs", "general_bc_rhs", "isotropic_bc_values",
    "reduced_bc_rhs", "tie_curvature_channel", "tolman_curve",
    "tolman_pressure", "verify_reductions",
    "ActionBreakdown", "BCResidualReport", "ConvergenceLog", "FieldState",
    "SingularProblemError", "SolveOptions", "TetMesh", "action_gradient",
    "assemble_action", "build_ball_tetmesh", "bulk_action",
    "euler_lagrange_residual", "natural_bc_residual", "solve_stationary",
    "surface_action",
]
