"""Command-line interface: subcommands, config handling, output files."""
from __future__ import annotations

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from curvbc.cli import main


def read_lines(path):
    return path.read_text().splitlines()


def assert_headers(lines, seed=0):
    assert lines[0].startswith("# curvbc ")
    assert lines[1].startswith("# config_sha256=")
    assert lines[2] == f"# seed={seed}"


def test_tolman_reference_row(tmp_path):
    code = main(["tolman", "--sigma", "1", "--tau", "0.05",
                 "--radii", "0.2:10:50", "--out", str(tmp_path)])
    assert code == 0
    lines = read_lines(tmp_path / "tolman_curve.csv")
    assert_headers(lines)
    assert lines[3] == "R,H,dp_tolman,dp_young_laplace,delta_H"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 10.0
    assert abs(last[2] - 0.198) <= 1e-15


def test_tolman_rejects_bad_radii(tmp_path):
    code = main(["tolman", "--radii=-1:5:3", "--out", str(tmp_path)])
    assert code == 2


BAD_VALUES = [
    ["mesh-check", "--levels", "2.."],
    ["mesh-check", "--levels", "x"],
    ["mesh-check", "--levels", "5..2"],
    ["solve", "--bulk", "poisson_source:abc"],
    ["solve", "--surface", "robin:q"],
    ["tolman", "--radii", "a:2:3"],
    ["tolman", "--radii", "1:2:2.5"],
    ["tolman", "--radii", "1:2:0"],
    # each catalog name takes exactly its parameter count
    ["gradcheck", "--bulk", "harmonic:5"],
    ["gradcheck", "--bulk", "poisson_source:1,2"],
    ["gradcheck", "--surface", "zero:3"],
    ["gradcheck", "--surface", "robin:1,9"],
    # ranges the library checks while the problem is built
    ["solve", "--surface", "robin:-1"],
    ["solve", "--bulk", "linear_elastic:1,-1"],
    ["mesh-check", "--radius", "-1"],
    ["solve", "--surface-level", "8"],
    # a check of no trials checks nothing
    ["gradcheck", "--trials", "0"],
    ["gradcheck", "--trials", "-3"],
    ["verify", "--trials", "0"],
    # non-finite numbers
    ["tolman", "--sigma", "nan"],
    ["solve", "--ball", "inf"],
    # values no run can use, rejected before anything is computed
    ["gradcheck", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["solve", "--gauge", "rigid"],
    ["mesh-check", "--levels", "2..9"],
    ["mesh-check", "--levels", "8"],
]


@pytest.mark.parametrize("argv", BAD_VALUES)
def test_malformed_values_are_bad_usage(argv, tmp_path, capsys):
    """A value rejected before computing exits 2 with a config error, not 1
    with a Python message or 0 with a meaningless result."""
    code = main(argv + ["--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv", BAD_VALUES)
def test_malformed_config_values_are_bad_usage(argv, tmp_path, capsys):
    """The same value given in the config file gets the same check; one
    that reads as JSON is given as a JSON number."""
    command, flag, text = argv
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv, builder", [
    (["mesh-check", "--levels", "2..9"], "build_icosphere"),
    (["solve", "--gauge", "rigid"], "build_ball_tetmesh"),
])
def test_bad_usage_builds_no_mesh(argv, builder, tmp_path, monkeypatch):
    """A level range past the last one, or a rigid gauge on a scalar field,
    is rejected before the first mesh is built, not after the others."""
    built = []
    monkeypatch.setattr(f"curvbc.cli.{builder}", lambda *a, **k: built.append(a))
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert built == []


@pytest.mark.parametrize("command,config", [
    ("solve", {"surface_level": 2.7}),
    ("gradcheck", {"trials": True}),
    ("solve", {"gauge": "bogus"}),
    ("solve", {"ball": "x"}),
    ("tolman", {"out": 5}),
    ("tolman", {"seed": None}),
])
def test_config_values_of_the_wrong_type_are_bad_usage(command, config, tmp_path,
                                                       monkeypatch, capsys):
    # no --out flag, which would override a bad "out"
    monkeypatch.setenv("CURVBC_OUT", str(tmp_path))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_seed_from_config_or_flag_hashes_the_same(tmp_path):
    shas = []
    for i, extra in enumerate([{"seed": 7}, {"seed": "7"}, None]):
        out = tmp_path / str(i)
        argv = ["tolman", "--radii", "1:2:2", "--out", str(out)]
        if extra is None:
            argv += ["--seed", "7"]
        else:
            cfg = tmp_path / f"{i}.json"
            cfg.write_text(json.dumps(extra))
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        lines = read_lines(out / "tolman_curve.csv")
        assert_headers(lines, seed=7)
        shas.append(lines[1])
    assert shas[0] == shas[1] == shas[2]


def test_identical_config_byte_identical_output(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["tolman", "--sigma", "2", "--tau", "0.1",
                     "--radii", "0.5:4:7", "--out", str(out)]) == 0
    assert (out_a / "tolman_curve.csv").read_bytes() == \
           (out_b / "tolman_curve.csv").read_bytes()
    # the hash of this flag-only invocation is pinned across releases
    assert read_lines(out_a / "tolman_curve.csv")[1] == (
        "# config_sha256=f9eecb22092ad44b849a86154c5a62594766bc6e40910966b7232e144ce2523d")


def test_mesh_check_passes(tmp_path):
    code = main(["mesh-check", "--surface", "sphere", "--radius", "1",
                 "--levels", "2..4", "--out", str(tmp_path)])
    assert code == 0
    lines = read_lines(tmp_path / "mesh_check.csv")
    assert_headers(lines)
    assert lines[3] == "level,n_vertices,h_max_rel_error,identity_residual"
    assert lines[-1] == "# passed=true"
    rows = [line.split(",") for line in lines[4:-1]]
    assert [int(r[0]) for r in rows] == [2, 3, 4]
    assert all(float(r[2]) <= 0.02 for r in rows)


def test_mesh_check_rejects_unknown_surface(tmp_path):
    code = main(["mesh-check", "--surface", "torus", "--out", str(tmp_path)])
    assert code == 2


def test_gradcheck_isotropic_pair(tmp_path):
    code = main(["gradcheck", "--bulk", "harmonic", "--surface",
                 "isotropic:1,0.1", "--ball", "1.0", "--out", str(tmp_path)])
    assert code == 0
    lines = read_lines(tmp_path / "gradcheck.txt")
    assert_headers(lines)
    assert "passed=true" in lines[-1]
    worst = float(next(l for l in lines if l.startswith("max_rel_deviation=")).split("=")[1])
    assert worst <= 1e-6


def test_solve_emits_reports(tmp_path):
    code = main(["solve", "--bulk", "poisson_source:6", "--surface", "robin:1",
                 "--surface-level", "2", "--radial-layers", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    for name in ("solution.csv", "bc_residual.csv", "convergence.log"):
        lines = read_lines(tmp_path / name)
        assert_headers(lines)
        # pinned: the same as ``solve --surface-level 2 --radial-layers 3``
        assert lines[1] == ("# config_sha256="
                            "fd6ed132f2d0363868767cbeddd4a37615fe56c0c4d86111211886e317794984")
    log = read_lines(tmp_path / "convergence.log")
    assert any(l == "converged=true" for l in log)
    tangent = next(l for l in log if l.startswith("tangent_iterations="))
    assert int(tangent.split("=")[1]) > 0
    iterations = next(l for l in log if l.startswith("iterations="))
    calls = next(l for l in log if l.startswith("gradient_calls="))
    # the initial gradient, the shift probe, one per step and the final check
    assert int(calls.split("=")[1]) == int(iterations.split("=")[1]) + 3
    # one full tangent step
    assert "step_sizes=[1.0]" in log
    for phase in ("tangent_assembly_s", "preconditioner_s", "tangent_solve_s"):
        seconds = next(l for l in log if l.startswith(f"{phase}="))
        assert float(seconds.split("=")[1]) > 0
    # the two-level preconditioner: 3 shells of 26 boundary patches and the centre
    assert "coarse_size=79" in log and "unpreconditioned=" in log
    sol =np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=4)
    # center value of the radial oracle 3 - r^2
    center = sol[np.argmin(np.einsum("vj,vj->v", sol[:, 1:4], sol[:, 1:4]))]
    assert abs(center[4] - 3.0) <= 0.1


def test_verify_reports(tmp_path):
    code = main(["verify", "--trials", "5", "--out", str(tmp_path)])
    assert code == 0
    txt = read_lines(tmp_path / "verify_report.txt")
    assert_headers(txt)
    with open(tmp_path / "verify_report.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    provenance = payload["provenance"]
    assert provenance["curvbc"] == txt[0].removeprefix("# curvbc ")
    assert f"config_sha256={provenance['config_sha256']}" == txt[1][2:]
    assert provenance["seed"] == 0
    rows = payload["rows"]
    assert all(row["passed"] in (True, None) for row in rows)


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sigma": 1.0, "tau": 0.05, "radii": "1:2:2"}))
    out_flag = tmp_path / "flagged"
    code = main(["tolman", "--config", str(cfg), "--tau", "0.0",
                 "--out", str(out_flag)])
    assert code == 0
    lines = read_lines(out_flag / "tolman_curve.csv")
    rows = [l.split(",") for l in lines if not l.startswith(("#", "R,"))]
    # tau overridden to 0: pressure equals the uncorrected column
    assert all(abs(float(r[2]) - float(r[3])) <= 1e-15 for r in rows)


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"sigm": 1.0}))
    assert main(["tolman", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_config_invalid_json_rejected(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["tolman", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CURVBC_OUT", str(tmp_path / "envout"))
    assert main(["tolman", "--radii", "1:2:2"]) == 0
    assert (tmp_path / "envout" / "tolman_curve.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "curvbc" in capsys.readouterr().out


def _readme_commands():
    """The ``curvbc ...`` lines of README's "Command line" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("curvbc ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(line, tmp_path):
    assert main(shlex.split(line)[1:] + ["--out", str(tmp_path)]) == 0
