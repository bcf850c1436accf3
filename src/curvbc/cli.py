"""Command-line interface: config handling, fixtures, reports, CSV emission.

Subcommands: ``mesh-check`` (curvature convergence table), ``gradcheck``
(finite differences vs the analytic action gradient), ``solve`` (stationary
solve with residual reports), ``tolman`` (pressure-vs-radius table) and
``verify`` (reduction equivalence report).  Options come from an optional
JSON config file plus flags; flags win, unknown config keys are rejected.
Exit codes: 0 all requested checks passed, 1 a computation or check failed,
2 bad usage or config schema violation.

Every output file starts with comment headers recording the tool version,
a sha256 of the resolved config, and the RNG seed, so identical configs
produce byte-identical outputs; ``verify_report.json`` carries them in its
``provenance`` object instead, so that it stays valid JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .lagrangian_library import (builtin_bulk, make_isotropic_surface,
                                 robin_surface, zero_surface)
from .mesh_io import write_vertex_csv
from .surface_mesh import (build_icosphere, curvature_identity_residual,
                           mean_curvature)
from .tolman_reduction import (IsotropicSurfaceParams, tolman_curve,
                               verify_reductions)
from .variational_engine import (FieldState, SolveOptions, assemble_action,
                                 action_gradient, build_ball_tetmesh,
                                 natural_bc_residual, solve_stationary)


class ConfigError(ValueError):
    """Schema violation in config file or flags (exit code 2)."""


def _numbers(kind, parts, what):
    """``kind`` of each of ``parts``; one it cannot read is a ConfigError."""
    try:
        return [kind(p) for p in parts]
    except (TypeError, ValueError):
        raise ConfigError(f"cannot read {what} as numbers") from None


def _parse_levels(text):
    if isinstance(text, list):
        levels = _numbers(int, text, f"levels {text!r}")
    else:
        lo, dots, hi = str(text).partition("..")
        lo, hi = _numbers(int, (lo, hi if dots else lo), f"levels {text!r}")
        levels = list(range(lo, hi + 1))
    if not levels:
        raise ConfigError(f"levels {text!r} hold no level")
    return levels


def _parse_radii(text):
    if isinstance(text, list):
        vals = np.asarray(_numbers(float, text, f"radii {text!r}"))
    else:
        parts = str(text).split(":")
        if len(parts) != 3:
            raise ConfigError("radii must be start:stop:count or a list")
        start, stop = _numbers(float, parts[:2], f"radii {text!r}")
        vals = np.linspace(start, stop, *_numbers(int, parts[2:], f"radii {text!r}"))
    if len(vals) == 0 or np.any(vals <= 0):
        raise ConfigError("radii must be positive, at least one")
    return vals


def _parse_bulk(text, n_components=None):
    name, _, params = str(text).partition(":")
    vals = _numbers(float, params.split(","), repr(text)) if params else []
    k = n_components or 1
    if name == "harmonic":
        return builtin_bulk("harmonic", n_components=k)
    if name == "poisson_source":
        return builtin_bulk("poisson_source", source=vals[0] if vals else 1.0,
                            n_components=k)
    if name == "linear_elastic":
        if len(vals) != 2:
            raise ConfigError("linear_elastic needs lam,mu")
        if n_components not in (None, 3):
            raise ConfigError("linear_elastic is a 3-component bulk")
        return builtin_bulk("linear_elastic", lam=vals[0], mu=vals[1])
    raise ConfigError(f"unknown bulk lagrangian {name!r}")


def _parse_surface(text, n_components):
    name, _, params = str(text).partition(":")
    vals = _numbers(float, params.split(","), repr(text)) if params else []
    if name == "zero":
        return zero_surface(n_components)
    if name == "robin":
        return robin_surface(vals[0] if vals else 1.0, n_components)
    if name == "isotropic":
        if len(vals) != 2:
            raise ConfigError("isotropic needs sigma,tau")
        if n_components != 3:
            raise ConfigError("isotropic surface requires a 3-component bulk")
        return make_isotropic_surface(vals[0], vals[1])
    raise ConfigError(f"unknown surface lagrangian {name!r}")


def _build_pair(cfg):
    """Bulk and surface from config, with flexible bulks widened to the
    3-component field the isotropic surface pair acts on."""
    need3 = str(cfg["surface"]).partition(":")[0] == "isotropic"
    bulk = _parse_bulk(cfg["bulk"], 3 if need3 else None)
    return bulk, _parse_surface(cfg["surface"], bulk.n_components)


SCHEMAS = {
    "mesh-check": {"surface": "sphere", "radius": 1.0, "levels": "2..5",
                   "h_tolerance": 0.02, "out": None, "seed": 0},
    "gradcheck": {"bulk": "harmonic", "surface": "zero", "ball": 1.0,
                  "surface_level": 1, "radial_layers": 3, "trials": 20,
                  "tolerance": 1e-6, "out": None, "seed": 0},
    "solve": {"bulk": "poisson_source:6", "surface": "robin:1", "ball": 1.0,
              "surface_level": 3, "radial_layers": 6, "gauge": "none",
              "tolerance": 1e-10, "out": None, "seed": 0},
    "tolman": {"sigma": 1.0, "tau": 0.0, "radii": "0.5:10:20",
               "out": None, "seed": 0},
    "verify": {"trials": 25, "out": None, "seed": 0},
}


def _resolve_config(command, config_path, flag_values):
    schema = SCHEMAS[command]
    resolved = dict(schema)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        for key, value in data.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            resolved[key] = value
    for key, value in flag_values.items():
        if value is not None:
            resolved[key] = value
    resolved["command"] = command
    return resolved


def _config_sha(resolved):
    # the hash describes the computation; where files land is not part of it
    canon = json.dumps({k: v for k, v in resolved.items() if k != "out"},
                       sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _out_dir(resolved):
    out = resolved.get("out") or os.environ.get("CURVBC_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _provenance(resolved):
    return {"curvbc": __version__, "config_sha256": _config_sha(resolved),
            "seed": resolved.get("seed", 0)}


def _headers(resolved):
    p = _provenance(resolved)
    return (f"curvbc {p['curvbc']}", f"config_sha256={p['config_sha256']}",
            f"seed={p['seed']}")


def _write_lines(path, headers, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for h in headers:
            fh.write(f"# {h}\n")
        for line in lines:
            fh.write(line + "\n")


# -- subcommands -----------------------------------------------------------

def _run_mesh_check(cfg):
    if cfg["surface"] != "sphere":
        raise ConfigError("mesh-check supports surface=sphere")
    radius = float(cfg["radius"])
    levels = _parse_levels(cfg["levels"])
    rows = []
    for level in levels:
        mesh = build_icosphere(radius, level)
        H = mean_curvature(mesh)
        h_err = float(np.abs(H * radius - 1.0).max())
        ident = curvature_identity_residual(mesh)
        rows.append((level, mesh.n_vertices, h_err, ident))

    # roundoff floor: icosphere estimates are exact to machine precision,
    # so "decreasing" admits values already at the floor
    floor = 1e-10
    h_col = [r[2] for r in rows]
    ident_col = [r[3] for r in rows]
    monotone_h = all(b < a or b <= floor for a, b in zip(h_col, h_col[1:]))
    monotone_ident = all(b < a or b <= floor * 2.0 / radius
                         for a, b in zip(ident_col, ident_col[1:]))
    final_ok = h_col[-1] <= float(cfg["h_tolerance"])
    passed = monotone_h and monotone_ident and final_ok

    out = _out_dir(cfg)
    lines = ["level,n_vertices,h_max_rel_error,identity_residual"]
    lines += [f"{l},{n},{h:.17g},{i:.17g}" for l, n, h, i in rows]
    lines.append(f"# passed={str(passed).lower()}")
    path = os.path.join(out, "mesh_check.csv")
    _write_lines(path, _headers(cfg), lines)

    print(f"{'level':>5s} {'verts':>7s} {'H rel err':>12s} {'identity':>12s}")
    for l, n, h, i in rows:
        print(f"{l:5d} {n:7d} {h:12.4e} {i:12.4e}")
    print(f"monotone H error: {monotone_h}; monotone identity: {monotone_ident}; "
          f"final H error ≤ {cfg['h_tolerance']}: {final_ok}")
    print(f"wrote {path}")
    return 0 if passed else 1


def _run_gradcheck(cfg):
    bulk, surface = _build_pair(cfg)
    mesh = build_ball_tetmesh(float(cfg["ball"]),
                              surface_level=int(cfg["surface_level"]),
                              radial_layers=int(cfg["radial_layers"]))
    rng = np.random.default_rng(int(cfg["seed"]))
    k = bulk.n_components
    trials = int(cfg["trials"])
    tol = float(cfg["tolerance"])

    worst = 0.0
    for _ in range(trials):
        values = rng.standard_normal((mesh.n_vertices, k))
        state = FieldState(values)
        g = action_gradient(mesh, bulk, surface, state)
        d = rng.standard_normal(values.shape)
        d /= np.abs(d).max()
        eps = 1e-6 * (1.0 + np.abs(values).max())
        a_p = assemble_action(mesh, bulk, surface, FieldState(values + eps * d)).total
        a_m = assemble_action(mesh, bulk, surface, FieldState(values - eps * d)).total
        fd = (a_p - a_m) / (2.0 * eps)
        dev = abs(float(np.sum(g * d)) - fd) / (1.0 + abs(fd))
        worst = max(worst, dev)

    passed = worst <= tol
    out = _out_dir(cfg)
    path = os.path.join(out, "gradcheck.txt")
    _write_lines(path, _headers(cfg), [
        f"bulk={bulk.name}",
        f"surface={surface.name}",
        f"trials={trials}",
        f"max_rel_deviation={worst:.17g}",
        f"tolerance={tol:.17g}",
        f"passed={str(passed).lower()}",
    ])
    print(f"gradcheck {bulk.name} x {surface.name}: "
          f"max relative deviation {worst:.3e} (tol {tol:.1e}) "
          f"{'PASS' if passed else 'FAIL'}")
    print(f"wrote {path}")
    return 0 if passed else 1


def _run_solve(cfg):
    bulk, surface = _build_pair(cfg)
    mesh = build_ball_tetmesh(float(cfg["ball"]),
                              surface_level=int(cfg["surface_level"]),
                              radial_layers=int(cfg["radial_layers"]))
    options = SolveOptions(tolerance=float(cfg["tolerance"]),
                           gauge=str(cfg["gauge"]))
    state, log = solve_stationary(mesh, bulk, surface, options=options)
    report = natural_bc_residual(mesh, bulk, surface, state)

    out = _out_dir(cfg)
    headers = _headers(cfg)
    sol_path = os.path.join(out, "solution.csv")
    write_vertex_csv(mesh.vertices, state.values, sol_path,
                     comments=headers, column="phi")
    res_path = os.path.join(out, "bc_residual.csv")
    write_vertex_csv(mesh.boundary.vertices, report.residual, res_path,
                     comments=headers, column="bc_residual")
    log_path = os.path.join(out, "convergence.log")
    _write_lines(log_path, headers, [
        f"method={log.method}",
        f"iterations={log.iterations}",
        f"tangent_iterations={log.tangent_iterations}",
        f"gradient_calls={log.gradient_calls}",
        f"tangent_assembly_s={log.tangent_assembly_s:.6g}",
        f"tangent_solve_s={log.tangent_solve_s:.6g}",
        f"coarse_size={log.coarse_size}",
        f"preconditioner_s={log.preconditioner_s:.6g}",
        f"unpreconditioned={log.unpreconditioned}",
        f"step_sizes={log.step_sizes}",
        f"final_residual={log.final_residual:.17g}",
        f"converged={str(log.converged).lower()}",
    ] + [f"note={n}" for n in log.notes])

    print(f"solve {bulk.name} x {surface.name}: {log.method}, "
          f"{log.iterations} iterations, final gradient {log.final_residual:.3e}, "
          f"{'converged' if log.converged else 'NOT CONVERGED'}")
    print(f"max BC residual {report.max_residual:.3e}")
    print(f"wrote {sol_path}, {res_path}, {log_path}")
    return 0 if log.converged else 1


def _run_tolman(cfg):
    params = IsotropicSurfaceParams(float(cfg["sigma"]), float(cfg["tau"]))
    radii = _parse_radii(cfg["radii"])
    curve = tolman_curve(params, radii)
    out = _out_dir(cfg)
    path = os.path.join(out, "tolman_curve.csv")
    curve.write_csv(path, comments=_headers(cfg))
    print(f"sigma={params.sigma:g} tau={params.tau:g} delta={params.delta:g}; "
          f"{len(radii)} radii from {radii.min():g} to {radii.max():g}")
    print(f"wrote {path}")
    return 0


def _run_verify(cfg):
    report = verify_reductions(trials=int(cfg["trials"]), seed=int(cfg["seed"]))
    out = _out_dir(cfg)
    txt_path = os.path.join(out, "verify_report.txt")
    _write_lines(txt_path, _headers(cfg), report.format_table().splitlines())
    json_path = os.path.join(out, "verify_report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": _provenance(cfg), "rows": report.to_rows()},
                  fh, indent=2)
        fh.write("\n")
    print(report.format_table())
    print(f"wrote {txt_path}, {json_path}")
    return 0 if report.all_passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvbc",
        description="Curvature-dependent natural boundary conditions: "
                    "meshes, actions, solves, droplet pressure tables.")
    parser.add_argument("--version", action="version",
                        version=f"curvbc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default $CURVBC_OUT or .)")
        p.add_argument("--seed", type=int, help="RNG seed for randomized trials")

    p = sub.add_parser("mesh-check", help="curvature estimator convergence table")
    common(p)
    p.add_argument("--surface", help="analytic surface kind (sphere)")
    p.add_argument("--radius", type=float)
    p.add_argument("--levels", help="subdivision range, e.g. 2..5")
    p.add_argument("--h-tolerance", dest="h_tolerance", type=float)

    p = sub.add_parser("gradcheck", help="finite differences vs analytic gradient")
    common(p)
    p.add_argument("--bulk", help="bulk density, e.g. harmonic, poisson_source:6")
    p.add_argument("--surface", help="surface pair, e.g. robin:1, isotropic:1,0.1")
    p.add_argument("--ball", type=float, help="ball radius")
    p.add_argument("--surface-level", dest="surface_level", type=int)
    p.add_argument("--radial-layers", dest="radial_layers", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--tolerance", type=float)

    p = sub.add_parser("solve", help="stationary solve with residual reports")
    common(p)
    p.add_argument("--bulk")
    p.add_argument("--surface")
    p.add_argument("--ball", type=float)
    p.add_argument("--surface-level", dest="surface_level", type=int)
    p.add_argument("--radial-layers", dest="radial_layers", type=int)
    p.add_argument("--gauge", choices=["none", "zero_mean", "rigid"])
    p.add_argument("--tolerance", type=float)

    p = sub.add_parser("tolman", help="pressure-vs-radius table")
    common(p)
    p.add_argument("--sigma", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--radii", help="start:stop:count")

    p = sub.add_parser("verify", help="reduction equivalence report")
    common(p)
    p.add_argument("--trials", type=int)

    return parser


RUNNERS = {
    "mesh-check": _run_mesh_check,
    "gradcheck": _run_gradcheck,
    "solve": _run_solve,
    "tolman": _run_tolman,
    "verify": _run_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items()
                   if k not in ("command", "config")}
    try:
        cfg = _resolve_config(args.command, args.config, flag_values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
