"""The benchmark's workloads and their correctness gates.

``BENCHMARK.json`` lists ``robin_ball_l4`` and ``geometry_audit``.
``tension_ball_l3`` runs the same way when named, but is not listed: its
8-11 s passes leave five or fewer per run, and on a shared 2-vCPU host the
median of so few spread by 20-31% between runs, more than the largest bound
the benchmark may set.

Each workload runs in passes.  A pass times four phases with
``time.perf_counter`` around calls into curvbc's public modules:

* ``setup``   -- mesh construction;
* ``compute`` -- the solve, or the geometry audit;
* ``report``  -- the boundary-condition report and checks, or the
  reduction audit and checks;
* ``io``      -- the output files the pass writes (and, on the audit, reads).

Calls go through module attributes (``ve.solve_stationary``) so the traced
run sees the same calls.  A solve pass makes the calls ``curvbc solve``
makes, in its order: ``build_ball_tetmesh``, ``solve_stationary``,
``natural_bc_residual``, ``write_vertex_csv`` twice.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import curvbc
from curvbc import analytic_geometry as ag
from curvbc import lagrangian_library as ll
from curvbc import mesh_io
from curvbc import surface_mesh as sm
from curvbc import tolman_reduction as tr
from curvbc import variational_engine as ve


@dataclass
class PassResult:
    """Phase times, named accuracy values and (name, passed) checks of one pass."""

    times: dict
    accuracy: dict
    checks: list
    info: dict


def _comments(name, seed):
    return (f"curvbc {curvbc.__version__}", f"perfbench {name}", f"seed={seed}")


# -- solve workloads ------------------------------------------------------------

def _robin_checks(mesh, bulk, surface, state, log):
    """Acceptance criterion 4: closed form 3 - r^2 and its BC residual."""
    r2 = np.einsum("vj,vj->v", mesh.vertices, mesh.vertices)
    exact = 3.0 - r2
    w = mesh.dual_volumes
    err = float(np.sqrt(((state.values[:, 0] - exact) ** 2 * w).sum()
                        / (exact**2 * w).sum()))
    report = ve.natural_bc_residual(mesh, bulk, surface,
                                    ve.FieldState(exact[:, None]))
    areas = report.vertex_areas

    def anorm(rows):
        return np.sqrt((rows[:, 0] ** 2 * areas).sum() / areas.sum())

    rel = float(anorm(report.residual)
                / (anorm(report.flux_weak) + anorm(report.rhs)))
    return ({"err_l2_rel": err, "bc_rel_residual": rel},
            [("converged", log.converged), ("err_l2_rel<=0.01", err <= 0.01),
             ("bc_rel_residual<=0.02", rel <= 0.02)])


# bulk moduli and surface tensions of the tension workload
LAM, MU, SIGMA, TAU = 1.0, 1.0, 1.0, 0.1


def _droplet_checks(mesh, bulk, surface, state, log):
    """The paper's droplet law from a bulk solve on the unit ball.

    The stationary field is a uniform dilation u = c x whose boundary
    traction balances the size-corrected pressure 2 sigma H (1 - delta H) at
    H = 1, so c = -dp / (3 lam + 2 mu).  c is the volume-weighted least
    squares fit of u against x.
    """
    x = mesh.vertices
    w = mesh.dual_volumes
    c = float((w * np.einsum("vj,vj->v", state.values, x)).sum()
              / (w * np.einsum("vj,vj->v", x, x)).sum())
    dp = float(tr.tolman_pressure(tr.IsotropicSurfaceParams(SIGMA, TAU), 1.0))
    expected = -dp / (3.0 * LAM + 2.0 * MU)
    err = abs(c - expected) / abs(expected)
    return ({"droplet_pressure_rel_err": err, "dilation_c": c},
            [("converged", log.converged),
             ("droplet_pressure_rel_err<=0.02", err <= 0.02)])


@dataclass(frozen=True)
class SolveWorkload:
    """A stationary solve on the unit ball with its report and CSV output."""

    name: str
    surface_level: int
    radial_layers: int
    gauge: str
    cli_args: tuple          # the same problem as ``curvbc solve`` flags
    make_pair: Callable      # () -> (bulk, surface)
    check: Callable          # (mesh, bulk, surface, state, log) -> (accuracy, checks)
    headline: str            # the accuracy value reported as accuracy_err
    extra_gradient_calls: int  # action_gradient calls beyond the CG iterations

    def setup(self, level=None, layers=None):
        return ve.build_ball_tetmesh(
            1.0, surface_level=self.surface_level if level is None else level,
            radial_layers=self.radial_layers if layers is None else layers)

    def run_pass(self, seed, out_dir, tracer=None, level=None, layers=None):
        t0 = perf_counter()
        mesh = self.setup(level, layers)
        t1 = perf_counter()
        bulk, surface = self.make_pair()
        if tracer is not None:
            tracer.trace_lagrangian(bulk)
            tracer.trace_lagrangian(surface)
        options = ve.SolveOptions(tolerance=1e-10, gauge=self.gauge)
        state, log = ve.solve_stationary(mesh, bulk, surface, options=options)
        t2 = perf_counter()
        report = ve.natural_bc_residual(mesh, bulk, surface, state)
        t3 = perf_counter()
        comments = _comments(self.name, seed)
        solution = os.path.join(out_dir, "solution.csv")
        residual = os.path.join(out_dir, "bc_residual.csv")
        mesh_io.write_vertex_csv(mesh.vertices, state.values, solution,
                                 comments=comments, column="phi")
        mesh_io.write_vertex_csv(mesh.boundary.vertices, report.residual,
                                 residual, comments=comments,
                                 column="bc_residual")
        t4 = perf_counter()
        accuracy, checks = self.check(mesh, bulk, surface, state, log)
        t5 = perf_counter()
        return PassResult(
            times={"setup_s": t1 - t0, "compute_s": t2 - t1,
                   "report_s": (t3 - t2) + (t5 - t4), "io_s": t4 - t3,
                   "wall_s": t5 - t0},
            accuracy=accuracy, checks=checks,
            info={"n_vertices": mesh.n_vertices, "n_tets": mesh.n_tets,
                  "cg_iterations": log.iterations,
                  "io_bytes": os.path.getsize(solution) + os.path.getsize(residual)})

    def warmup(self, seed, out_dir):
        """Untimed pass at ladder point (2,3)."""
        self.run_pass(seed, out_dir, level=2, layers=3)


ROBIN = SolveWorkload(
    name="robin_ball_l4", surface_level=4, radial_layers=12, gauge="none",
    cli_args=("--bulk", "poisson_source:6", "--surface", "robin:1",
              "--gauge", "none"),
    make_pair=lambda: (ll.builtin_bulk("poisson_source", source=6.0),
                       ll.robin_surface(1.0)),
    check=_robin_checks, headline="err_l2_rel",
    # initial gradient, one constant-shift probe, final check
    extra_gradient_calls=3)

TENSION = SolveWorkload(
    name="tension_ball_l3", surface_level=3, radial_layers=6, gauge="rigid",
    cli_args=("--bulk", f"linear_elastic:{LAM:g},{MU:g}",
              "--surface", f"isotropic:{SIGMA:g},{TAU:g}", "--gauge", "rigid"),
    make_pair=lambda: (ll.builtin_bulk("linear_elastic", lam=LAM, mu=MU),
                       ll.make_isotropic_surface(SIGMA, TAU)),
    check=_droplet_checks, headline="droplet_pressure_rel_err",
    # initial gradient and final check; the rigid gauge skips the probe
    extra_gradient_calls=2)


# -- geometry audit ---------------------------------------------------------------

@dataclass(frozen=True)
class AuditScale:
    levels: tuple            # mesh-check icosphere levels
    perturbed_level: int     # icosphere given a seeded radial perturbation
    torus_resolution: tuple
    verify_trials: int
    obj_level: int           # icosphere written and read back as OBJ


FULL_AUDIT = AuditScale((2, 3, 4, 5, 6), 5, (160, 64), 25, 6)
WARMUP_AUDIT = AuditScale((2, 3), 3, (16, 8), 1, 3)
# radial perturbation amplitude: bounded, so every seed gives a valid mesh
PERTURBATION = 0.02
TORUS_H_TOLERANCE = 1e-3


def _mesh_check_passed(rows, h_tolerance=0.02, floor=1e-10):
    """The pass rule of ``curvbc mesh-check`` on unit spheres."""
    h_col = [h for h, _ in rows]
    ident_col = [i for _, i in rows]
    monotone_h = all(b < a or b <= floor for a, b in zip(h_col, h_col[1:]))
    monotone_ident = all(b < a or b <= floor * 2.0
                         for a, b in zip(ident_col, ident_col[1:]))
    return monotone_h and monotone_ident and h_col[-1] <= h_tolerance


@dataclass(frozen=True)
class GeometryAudit:
    """Mesh-check, shape operators on and off the sphere, verify, OBJ round trip."""

    name: str = "geometry_audit"
    headline: str = "torus_h_err"
    extra_gradient_calls: int = 0   # the audit makes no action_gradient calls

    def setup(self, scale=FULL_AUDIT):
        levels = sorted(set(scale.levels) | {scale.perturbed_level, scale.obj_level})
        return {level: sm.build_icosphere(1.0, level) for level in levels}

    def run_pass(self, seed, out_dir, tracer=None, scale=FULL_AUDIT):
        t0 = perf_counter()
        spheres = self.setup(scale)
        t1 = perf_counter()
        mesh_check = []
        for level in scale.levels:
            mesh = spheres[level]
            h_err = float(np.abs(sm.mean_curvature(mesh) - 1.0).max())
            mesh_check.append((h_err, sm.curvature_identity_residual(mesh)))

        rng = np.random.default_rng(seed)
        base = spheres[scale.perturbed_level]
        radii = 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0, base.n_vertices)
        perturbed = sm.TriangleMesh(base.vertices * radii[:, None], base.triangles)
        sm.shape_operator(perturbed)

        torus, jets = ag.sample_mesh(ag.AnalyticSurface.torus(2.0, 0.5),
                                     scale.torus_resolution)
        curv = sm.shape_operator(torus)
        h_jet = np.array([jet.mean_curvature for jet in jets])
        torus_h_err = float(np.abs(curv.mean - h_jet).max())
        t2 = perf_counter()
        verify = tr.verify_reductions(scale.verify_trials, seed)
        t3 = perf_counter()
        obj = os.path.join(out_dir, "icosphere.obj")
        written = spheres[scale.obj_level]
        mesh_io.write_obj(written, obj, comments=_comments(self.name, seed))
        read = mesh_io.read_obj(obj)
        t4 = perf_counter()
        checks = [("mesh_check_passed", _mesh_check_passed(mesh_check)),
                  (f"torus_h_err<={TORUS_H_TOLERANCE:g}",
                   torus_h_err <= TORUS_H_TOLERANCE),
                  ("obj_round_trip_exact",
                   np.array_equal(read.vertices, written.vertices)
                   and np.array_equal(read.triangles, written.triangles))]
        # the printed-sign row (passed is None) is a finding, not a check
        checks += [(f"verify:{row.name}", bool(row.passed))
                   for row in verify.rows if row.passed is not None]
        t5 = perf_counter()
        return PassResult(
            times={"setup_s": t1 - t0, "compute_s": t2 - t1,
                   "report_s": (t3 - t2) + (t5 - t4), "io_s": t4 - t3,
                   "wall_s": t5 - t0},
            accuracy={"torus_h_err": torus_h_err,
                      "mesh_check_h_err": mesh_check[-1][0]},
            checks=checks,
            info={"n_vertices": {str(k): m.n_vertices for k, m in spheres.items()}
                  | {"torus": torus.n_vertices},
                  "io_bytes": os.path.getsize(obj)})

    def warmup(self, seed, out_dir):
        """Untimed pass on small meshes."""
        self.run_pass(seed, out_dir, scale=WARMUP_AUDIT)


AUDIT = GeometryAudit()

WORKLOADS = {w.name: w for w in (ROBIN, TENSION, AUDIT)}
SOLVE_WORKLOADS = (ROBIN, TENSION)
