"""Span bookkeeping: self times, patching and the traced call counts."""
import pytest

import curvbc
from curvbc import surface_mesh, variational_engine
from spans import Tracer, layer_metrics, span_times, traced_curvbc
from workloads import SOLVE_WORKLOADS


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, None],
             ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None],
             ["d", 5.0, 7.0, 0, None]]
    duration, self_time = span_times(spans)
    assert duration == [10.0, 3.0, 1.0, 2.0]
    assert self_time == [5.0, 2.0, 1.0, 2.0]


def test_patching_covers_every_binding_and_is_undone():
    original = surface_mesh.mean_curvature
    assert variational_engine.mean_curvature is original
    with traced_curvbc(Tracer()):
        assert surface_mesh.mean_curvature is not original
        assert variational_engine.mean_curvature is surface_mesh.mean_curvature
        assert curvbc.mean_curvature is surface_mesh.mean_curvature
    assert surface_mesh.mean_curvature is original
    assert variational_engine.mean_curvature is original
    assert curvbc.mean_curvature is original


@pytest.mark.parametrize("workload", SOLVE_WORKLOADS, ids=lambda w: w.name)
def test_gradient_calls_match_cg_iterations(workload, tmp_path):
    tracer = Tracer()
    with traced_curvbc(tracer):
        result = workload.run_pass(0, str(tmp_path), tracer, level=2, layers=3)
    metrics = layer_metrics(tracer.spans)
    iterations = result.info["cg_iterations"]
    assert iterations > 0
    assert metrics["action_gradient_calls"] == iterations + workload.extra_gradient_calls
    # one mean curvature per gradient, plus the report's own evaluations
    assert metrics["mean_curvature_calls"] >= metrics["action_gradient_calls"]
    assert metrics["partial_calls"] > 0 and metrics["gradient_bytes_computed"] > 0
    assert 0.0 < metrics["action_gradient_share"] <= 1.0
    assert metrics["bytes"] == result.info["io_bytes"]
