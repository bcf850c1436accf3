"""Span tracing of curvbc from outside the package.

The traced run replaces public functions of the curvbc modules, and the
callable fields of the catalog Lagrangians a workload builds, with wrappers
that record one span per call: name, start, end, parent span and optional
counts.  Spans are kept in memory; the benchmark writes them out when it
ends.  A module attribute is replaced in every curvbc namespace that binds
the same function object, so calls made inside the package (for example
``solve_stationary`` calling ``action_gradient``) are traced as well.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# public functions wrapped per module; span names are "<module>.<function>"
TRACED_FUNCTIONS = {
    "surface_mesh": ("build_icosphere", "mean_curvature", "shape_operator",
                     "curvature_identity_residual"),
    "variational_engine": ("build_ball_tetmesh", "solve_stationary",
                           "action_gradient", "bulk_action_gradient",
                           "surface_action_gradient", "natural_bc_residual"),
    "tolman_reduction": ("verify_reductions",),
    "analytic_geometry": ("sample_mesh", "evaluate_jet"),
    "mesh_io": ("write_obj", "read_obj", "write_vertex_csv"),
}
MODULES = tuple(TRACED_FUNCTIONS) + ("lagrangian_library",)
PARTIAL_PREFIX = "lagrangian_library."


def _array_bytes(values):
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _file_bytes(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        path = signature.bind(*args, **kwargs).arguments["path"]
        return {"bytes": os.path.getsize(path)}
    return count


def _partial_bytes(args, kwargs, result):
    return {"bytes": _array_bytes(args) + _array_bytes(kwargs.values())
            + _array_bytes([result])}


# counts taken from a call's arguments and result at the span boundary
COUNTERS = {
    "surface_mesh.shape_operator":
        lambda args, kwargs, result: {"flagged_vertices": len(result.flagged)},
    "tolman_reduction.verify_reductions":
        lambda args, kwargs, result: {
            "rows_passed": sum(r.passed is True for r in result.rows)},
}


class Tracer:
    """In-memory span recorder for one thread.

    ``spans`` holds ``[name, start, end, parent, counts]`` lists, parent
    being the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result
        return traced

    def trace_lagrangian(self, lagrangian):
        """Wrap every callable field of a catalog Lagrangian in place."""
        for f in dataclasses.fields(lagrangian):
            value = getattr(lagrangian, f.name)
            if callable(value):
                setattr(lagrangian, f.name,
                        self.wrap(PARTIAL_PREFIX + f.name, value, _partial_bytes))
        return lagrangian

    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "counts": c}
                for n, s, e, p, c in self.spans]


@contextmanager
def traced_curvbc(tracer):
    """Patch the curvbc functions in TRACED_FUNCTIONS for the duration."""
    namespaces = [m for name, m in sys.modules.items()
                  if name == "curvbc" or name.startswith("curvbc.")]
    saved = []
    try:
        for module_name, names in TRACED_FUNCTIONS.items():
            home = importlib.import_module(f"curvbc.{module_name}")
            for name in names:
                original = getattr(home, name)
                span_name = f"{module_name}.{name}"
                count = (_file_bytes(original) if module_name == "mesh_io"
                         else COUNTERS.get(span_name))
                wrapper = tracer.wrap(span_name, original, count)
                for ns in namespaces:
                    for attr in [a for a, v in vars(ns).items() if v is original]:
                        saved.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        yield tracer
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)


def span_times(spans):
    """Durations and self times (duration minus direct children) per span."""
    duration = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += duration[i]
    return duration, [d - c for d, c in zip(duration, child)]


def layer_metrics(spans):
    """Per-module metrics of one traced pass; absent work reads as 0."""
    duration, self_time = span_times(spans)
    calls, inclusive, selfs, counts = {}, {}, {}, {}
    for i, (name, _, _, _, c) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + duration[i]
        selfs[name] = selfs.get(name, 0.0) + self_time[i]
        for key, value in (c or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value

    def total(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    ag = "variational_engine.action_gradient"
    solve = "variational_engine.solve_stationary"
    ag_calls = calls.get(ag, 0)
    ag_in_solve = sum(duration[i] for i, s in enumerate(spans)
                      if s[0] == ag and under(i, solve))
    partial_bytes_in_ag = sum(
        (s[4] or {}).get("bytes", 0) for i, s in enumerate(spans)
        if s[0].startswith(PARTIAL_PREFIX) and under(i, ag))
    io_names = [f"mesh_io.{n}" for n in TRACED_FUNCTIONS["mesh_io"]]

    metrics = {
        "build_icosphere_s": inclusive.get("surface_mesh.build_icosphere", 0.0),
        "mean_curvature_calls": calls.get("surface_mesh.mean_curvature", 0),
        "mean_curvature_s": inclusive.get("surface_mesh.mean_curvature", 0.0),
        "shape_operator_s": inclusive.get("surface_mesh.shape_operator", 0.0),
        "flagged_vertices": counts.get(("surface_mesh.shape_operator",
                                        "flagged_vertices"), 0),
        "build_ball_s": inclusive.get("variational_engine.build_ball_tetmesh", 0.0),
        "action_gradient_calls": ag_calls,
        "action_gradient_s": inclusive.get(ag, 0.0) / ag_calls if ag_calls else 0.0,
        "action_gradient_share": (ag_in_solve / inclusive[solve]
                                  if inclusive.get(solve) else 0.0),
        "bulk_gradient_self_s": selfs.get("variational_engine.bulk_action_gradient", 0.0),
        "surface_gradient_self_s": selfs.get(
            "variational_engine.surface_action_gradient", 0.0),
        "solve_self_s": selfs.get(solve, 0.0),
        "bc_residual_self_s": selfs.get("variational_engine.natural_bc_residual", 0.0),
        "gradient_bytes_computed": partial_bytes_in_ag / ag_calls if ag_calls else 0,
        "partial_calls": sum(v for k, v in calls.items() if k.startswith(PARTIAL_PREFIX)),
        "partials_s": total(inclusive, PARTIAL_PREFIX),
        "verify_s": inclusive.get("tolman_reduction.verify_reductions", 0.0),
        "rows_passed": counts.get(("tolman_reduction.verify_reductions",
                                   "rows_passed"), 0),
        "sample_mesh_s": inclusive.get("analytic_geometry.sample_mesh", 0.0),
        "evaluate_jet_calls": calls.get("analytic_geometry.evaluate_jet", 0),
        "write_s": sum(inclusive.get(n, 0.0) for n in io_names if "write" in n),
        "read_s": sum(inclusive.get(n, 0.0) for n in io_names if "read" in n),
        "bytes": sum(counts.get((n, "bytes"), 0) for n in io_names),
    }
    for module in MODULES:
        metrics[f"{module}_self_s"] = total(selfs, module + ".")
    return metrics
