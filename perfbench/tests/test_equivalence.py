"""The benchmark's solve passes compute what ``curvbc solve`` computes."""
import numpy as np
import pytest

from curvbc import cli
from workloads import SOLVE_WORKLOADS


def _numeric_rows(path):
    """CSV rows without the provenance comments and the column header."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


@pytest.mark.parametrize("workload", SOLVE_WORKLOADS, ids=lambda w: w.name)
def test_solve_pass_writes_cli_outputs(workload, tmp_path):
    bench_dir = tmp_path / "bench"
    cli_dir = tmp_path / "cli"
    bench_dir.mkdir()
    result = workload.run_pass(0, str(bench_dir), level=2, layers=3)
    assert dict(result.checks)["converged"]
    code = cli.main(["solve", *workload.cli_args, "--surface-level", "2",
                     "--radial-layers", "3", "--out", str(cli_dir)])
    assert code == 0
    for name in ("solution.csv", "bc_residual.csv"):
        bench = _numeric_rows(bench_dir / name)
        ours = _numeric_rows(cli_dir / name)
        assert bench.shape == ours.shape
        assert np.array_equal(bench, ours), name
