"""Command-line interface: config handling, fixtures, reports, CSV emission.

Subcommands: ``mesh-check`` (curvature convergence table), ``gradcheck``
(finite differences vs the analytic action gradient), ``solve`` (stationary
solve with residual reports), ``tolman`` (pressure-vs-radius table) and
``verify`` (reduction equivalence report).  ``COMMANDS`` declares each option
once; a JSON config file sets options under the flag names with ``_`` for
``-``.  Flags win, unknown keys are rejected, and both sources get the same
checks.  A bulk or surface spec takes exactly its parameter count:
``harmonic`` and ``zero`` none, ``poisson_source:f`` and ``robin:beta`` one,
``linear_elastic:lam,mu`` and ``isotropic:sigma,tau`` two.
Exit codes: 0 all requested checks passed, 1 a computation or check failed,
2 bad usage or any value rejected before computing.

Every output file starts with comment headers recording the tool version,
a sha256 of the resolved config, and the RNG seed, so identical configs
produce byte-identical outputs; ``verify_report.json`` carries them in its
``provenance`` object instead, so that it stays valid JSON.
"""
import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .lagrangian_library import (harmonic, linear_elastic, make_isotropic_surface,
                                 poisson_source, robin_surface, zero_surface)
from .mesh_io import write_vertex_csv
from .surface_mesh import (MAX_SUBDIVISION_LEVEL, build_icosphere,
                           curvature_identity_residual, mean_curvature)
from .tolman_reduction import (IsotropicSurfaceParams, tolman_curve,
                               verify_reductions)
from .variational_engine import (FieldState, SolveOptions, assemble_action,
                                 action_gradient, build_ball_tetmesh,
                                 natural_bc_residual, solve_stationary)


class ConfigError(ValueError):
    """Schema violation in config file or flags (exit code 2)."""


def _number(kind, least=-math.inf):
    """Conversion to ``kind`` (int or float) of a number or decimal string of
    at least ``least``; rejects booleans, nan, infinities, and fractions for int."""
    def convert(value):
        with contextlib.suppress(ValueError, OverflowError):
            x = kind(value) if isinstance(value, str) else value
            if type(x) in (int, float) and math.isfinite(x) and kind(x) == x and x >= least:
                return kind(x)
        raise ValueError({int: "an integer", float: "a finite number"}[kind]
                         + (f" >= {least}" if least > -math.inf else ""))
    return convert


_integer, _natural, _positive = _number(int), _number(int, 0), _number(int, 1)
_real = _number(float)


def _choice(*choices):
    def convert(value):
        if value in choices:
            return value
        raise ValueError(f"one of {', '.join(choices)}")
    convert.choices = choices
    return convert


def _path(value):
    """A directory name, or None for $CURVBC_OUT or the current directory."""
    if value is not None and not isinstance(value, str):
        raise ValueError("a path")
    return value


def _convert(kind, value, what):
    """``kind(value)``.  A conversion rejects a value with ValueError(what it
    wants), which becomes a ConfigError naming ``what``."""
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{what}: {value!r} is not {exc}") from None


@contextlib.contextmanager
def _building():
    """A library range error while building from the config is bad usage."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_levels(text):
    """The subdivision levels of ``lo..hi`` or ``lo``, all checked before any
    mesh is built."""
    lo, dots, hi = text.partition("..")
    lo, hi = (_convert(_integer, v, f"levels {text!r}") for v in (lo, hi if dots else lo))
    if hi < lo:
        raise ConfigError(f"levels {text!r} hold no level")
    if lo < 0 or hi > MAX_SUBDIVISION_LEVEL:
        raise ConfigError(f"levels {text!r}: subdivision levels lie in "
                          f"[0, {MAX_SUBDIVISION_LEVEL}]")
    return list(range(lo, hi + 1))


def _parse_radii(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("radii must be start:stop:count")
    return np.linspace(*(_convert(kind, v, f"radii {text!r}")
                         for kind, v in zip((_real, _real, _positive), parts)))


# catalog name -> (parameter count, builder(n_components, *parameters))
BULKS = {
    "harmonic": (0, harmonic),
    "poisson_source": (1, lambda k, f: poisson_source(f, k)),
    "linear_elastic": (2, lambda k, lam, mu: linear_elastic(lam, mu)),
}
SURFACES = {
    "zero": (0, zero_surface),
    "robin": (1, lambda k, beta: robin_surface(beta, k)),
    "isotropic": (2, lambda k, sigma, tau: make_isotropic_surface(sigma, tau)),
}


def _parse_spec(text, catalog, what):
    """The catalog name of ``name:x,y`` and its builder bound to the numbers."""
    name, _, params = text.partition(":")
    if name not in catalog:
        raise ConfigError(f"unknown {what} lagrangian {name!r}")
    count, build = catalog[name]
    numbers = [_convert(_real, p, f"{what} {text!r}")
               for p in params.split(",")] if params else []
    if len(numbers) != count:
        raise ConfigError(f"{what} {text!r}: {name} takes {count} parameters, "
                          f"not {len(numbers)}")
    return name, lambda k: build(k, *numbers)


def _build_problem(cfg):
    """Bulk, surface and ball mesh from the config, with flexible bulks
    widened to the 3-component field the isotropic surface pair acts on.
    A rigid gauge on a field of other than 3 components is rejected before
    the mesh is built."""
    surface_name, surface = _parse_spec(cfg["surface"], SURFACES, "surface")
    _, bulk = _parse_spec(cfg["bulk"], BULKS, "bulk")
    with _building():
        bulk = bulk(3 if surface_name == "isotropic" else 1)
        surface = surface(bulk.n_components)
        if cfg.get("gauge") == "rigid" and bulk.n_components != 3:
            raise ValueError(f"gauge rigid needs a 3-component field; {bulk.name} "
                             f"has {bulk.n_components}")
        mesh = build_ball_tetmesh(cfg["ball"], surface_level=cfg["surface_level"],
                                  radial_layers=cfg["radial_layers"])
    return bulk, surface, mesh


def _resolve_config(command, config_path, flags):
    options = {**COMMANDS[command].options, **SHARED}
    given = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        for key in data:
            if key not in options:
                raise ConfigError(f"unknown config key {key!r} for {command}")
        given.update(data)
    given.update((k, flags[k]) for k in options if flags.get(k) is not None)
    resolved = {key: _convert(opt.convert, given.get(key, opt.default), key)
                for key, opt in options.items()}
    resolved["command"] = command
    return resolved


def _config_sha(resolved):
    # the hash describes the computation; where files land is not part of it
    canon = json.dumps({k: v for k, v in resolved.items() if k != "out"},
                       sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _out_path(resolved, name):
    out = resolved["out"] or os.environ.get("CURVBC_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _provenance(resolved):
    return {"curvbc": __version__, "config_sha256": _config_sha(resolved),
            "seed": resolved["seed"]}


def _headers(resolved):
    p = _provenance(resolved)
    return (f"curvbc {p['curvbc']}", f"config_sha256={p['config_sha256']}",
            f"seed={p['seed']}")


def _write_lines(cfg, name, lines):
    """Write ``lines`` under the provenance headers to output file ``name``."""
    path = _out_path(cfg, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([f"# {h}\n" for h in _headers(cfg)] + [f"{line}\n" for line in lines])
    return path


# -- subcommands -----------------------------------------------------------

def _run_mesh_check(cfg):
    radius = cfg["radius"]
    rows = []
    for level in _parse_levels(cfg["levels"]):
        with _building():
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
    final_ok = h_col[-1] <= cfg["h_tolerance"]
    passed = monotone_h and monotone_ident and final_ok

    lines = ["level,n_vertices,h_max_rel_error,identity_residual"]
    lines += [f"{l},{n},{h:.17g},{i:.17g}" for l, n, h, i in rows]
    lines.append(f"# passed={str(passed).lower()}")
    path = _write_lines(cfg, "mesh_check.csv", lines)

    print(f"{'level':>5s} {'verts':>7s} {'H rel err':>12s} {'identity':>12s}")
    for l, n, h, i in rows:
        print(f"{l:5d} {n:7d} {h:12.4e} {i:12.4e}")
    print(f"monotone H error: {monotone_h}; monotone identity: {monotone_ident}; "
          f"final H error ≤ {cfg['h_tolerance']}: {final_ok}")
    print(f"wrote {path}")
    return 0 if passed else 1


def _run_gradcheck(cfg):
    bulk, surface, mesh = _build_problem(cfg)
    rng = np.random.default_rng(cfg["seed"])
    tol = cfg["tolerance"]

    worst = 0.0
    for _ in range(cfg["trials"]):
        values = rng.standard_normal((mesh.n_vertices, bulk.n_components))
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
    path = _write_lines(cfg, "gradcheck.txt", [
        f"bulk={bulk.name}",
        f"surface={surface.name}",
        f"trials={cfg['trials']}",
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
    bulk, surface, mesh = _build_problem(cfg)
    options = SolveOptions(tolerance=cfg["tolerance"], gauge=cfg["gauge"])
    state, log = solve_stationary(mesh, bulk, surface, options=options)
    report = natural_bc_residual(mesh, bulk, surface, state)

    headers = _headers(cfg)
    sol_path = _out_path(cfg, "solution.csv")
    write_vertex_csv(mesh.vertices, state.values, sol_path,
                     comments=headers, column="phi")
    res_path = _out_path(cfg, "bc_residual.csv")
    write_vertex_csv(mesh.boundary.vertices, report.residual, res_path,
                     comments=headers, column="bc_residual")
    log_path = _write_lines(cfg, "convergence.log", [
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
    radii = _parse_radii(cfg["radii"])
    with _building():
        params = IsotropicSurfaceParams(cfg["sigma"], cfg["tau"])
        curve = tolman_curve(params, radii)
    path = _out_path(cfg, "tolman_curve.csv")
    curve.write_csv(path, comments=_headers(cfg))
    print(f"sigma={params.sigma:g} tau={params.tau:g} delta={params.delta:g}; "
          f"{len(radii)} radii from {radii.min():g} to {radii.max():g}")
    print(f"wrote {path}")
    return 0


def _run_verify(cfg):
    report = verify_reductions(trials=cfg["trials"], seed=cfg["seed"])
    txt_path = _write_lines(cfg, "verify_report.txt", report.format_table().splitlines())
    json_path = _out_path(cfg, "verify_report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": _provenance(cfg), "rows": report.to_rows()},
                  fh, indent=2)
        fh.write("\n")
    print(report.format_table())
    print(f"wrote {txt_path}, {json_path}")
    return 0 if report.all_passed else 1


Option = namedtuple("Option", "convert default help")
Command = namedtuple("Command", "run help options")

SHARED = {
    "out": Option(_path, None, "output directory (default $CURVBC_OUT or .)"),
    "seed": Option(_natural, 0, "RNG seed for randomized trials"),
}


def _ball_problem(bulk, surface, surface_level, radial_layers):
    """The options that pick a bulk/surface pair on a ball mesh."""
    return {
        "bulk": Option(str, bulk, "bulk density, e.g. harmonic, poisson_source:6"),
        "surface": Option(str, surface, "surface pair, e.g. robin:1, isotropic:1,0.1"),
        "ball": Option(_real, 1.0, "ball radius"),
        "surface_level": Option(_integer, surface_level, "boundary icosphere subdivisions"),
        "radial_layers": Option(_integer, radial_layers, "icosphere shells"),
    }


COMMANDS = {
    "mesh-check": Command(_run_mesh_check, "curvature estimator convergence table", {
        "surface": Option(_choice("sphere"), "sphere", "analytic surface kind"),
        "radius": Option(_real, 1.0, "sphere radius"),
        "levels": Option(str, "2..5", "subdivision range, e.g. 2..5"),
        "h_tolerance": Option(_real, 0.02, "largest H error passed at the last level"),
    }),
    "gradcheck": Command(_run_gradcheck, "finite differences vs analytic gradient", {
        **_ball_problem("harmonic", "zero", 1, 3),
        "trials": Option(_positive, 20, "random states checked"),
        "tolerance": Option(_real, 1e-6, "largest relative deviation passed"),
    }),
    "solve": Command(_run_solve, "stationary solve with residual reports", {
        **_ball_problem("poisson_source:6", "robin:1", 3, 6),
        "gauge": Option(_choice("none", "zero_mean", "rigid"), "none", "gauge modes removed"),
        "tolerance": Option(_real, 1e-10, "gradient max-norm that stops the solve"),
    }),
    "tolman": Command(_run_tolman, "pressure-vs-radius table", {
        "sigma": Option(_real, 1.0, "surface tension"),
        "tau": Option(_real, 0.0, "curvature tension; delta = 2 tau / sigma"),
        "radii": Option(str, "0.5:10:20", "start:stop:count"),
    }),
    "verify": Command(_run_verify, "reduction equivalence report", {
        "trials": Option(_positive, 25, "random states per row"),
    }),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvbc",
        description="Curvature-dependent natural boundary conditions: "
                    "meshes, actions, solves, droplet pressure tables.")
    parser.add_argument("--version", action="version",
                        version=f"curvbc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file")
        # flags stay strings here: _resolve_config converts them like config values
        for key, opt in {**SHARED, **command.options}.items():
            choices = getattr(opt.convert, "choices", None)
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           metavar=choices and "{" + ",".join(choices) + "}",
                           help=opt.help if opt.default is None
                           else f"{opt.help} (default {opt.default})")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(_resolve_config(args.command, args.config, vars(args)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
