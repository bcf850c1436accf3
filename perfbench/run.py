#!/usr/bin/env python3
"""curvbc benchmark: one workload per process, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload robin_ball_l4 --seed 0 --seconds 60 --trace 0

Workloads: ``robin_ball_l4``, ``geometry_audit`` and ``tension_ball_l3`` (see
``workloads.py``; ``BENCHMARK.json`` lists the first two).  curvbc is
imported from ``src/`` of the checkout that holds this file; without it the
run exits with code 2 and prints no result.

Each run pins BLAS/OpenMP to one thread, makes an untimed warm-up pass on
small meshes, and then repeats full passes until ``--seconds`` have passed
(at least one pass).  Every pass is gated by the workload's correctness
checks; a failed check is counted and the timings are still reported.

``--trace 0`` reports the end-to-end metrics, medians over passes:
``wall_s``, ``setup_s`` (mesh construction, also timed on its own around
the passes), ``compute_s``, ``peak_rss_mb`` and ``accuracy_err`` (the
workload's headline accuracy value).  The report and I/O phases count in
``wall_s``; their own medians are printed and recorded, and the traced run
breaks them down by module.
``--trace 1`` spends half the time on untraced passes and half on passes
with every public curvbc function wrapped (``spans.py``), and reports the
per-module metrics of the traced passes plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, named accuracy values, checks and, when traced, the spans) is
written to ``perfbench/out/``.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    # must precede the first numpy import, which loads the BLAS thread pool
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import sys
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from spans import Tracer, layer_metrics, traced_curvbc

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Set-up is short, and machines of this class have slow and fast spells
# lasting seconds.  Besides the sample each pass gives, set-up is timed on
# its own before, between and after the passes until there are at least this
# many samples in all, so that its median does not hang on one spell.  Once
# there are, passes alone add samples, leaving the run's time to the passes.
MIN_SETUP_SAMPLES = 6
PRE_PASS_SETUPS = 2


def load_curvbc():
    """Import curvbc from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import curvbc
    except ImportError as exc:
        print(f"perfbench: cannot import curvbc from {src}: {exc}", file=sys.stderr)
        return None
    if Path(curvbc.__file__).resolve().parent != (src / "curvbc").resolve():
        print(f"perfbench: curvbc resolved to {curvbc.__file__}, not {src}",
              file=sys.stderr)
        return None
    return curvbc


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def timed_passes(workload, seed, seconds, out_dir, traced=False, after_pass=None):
    """Full passes while another one fits in ``seconds`` (at least one).

    ``after_pass(result)`` runs after each pass, inside the time budget.
    Returns (result, tracer) pairs; tracer is None for untraced passes.
    """
    runs = []
    start = perf_counter()
    while not runs or (perf_counter() - start) * (1 + 1 / len(runs)) <= seconds:
        if traced:
            tracer = Tracer()
            with traced_curvbc(tracer):
                runs.append((workload.run_pass(seed, out_dir, tracer), tracer))
        else:
            runs.append((workload.run_pass(seed, out_dir), None))
        if after_pass is not None:
            after_pass(runs[-1][0])
    return runs


def end_to_end(workload, seed, seconds, out_dir):
    setups = []

    def sample_setup(result=None):
        if result is not None:
            setups.append(result.times["setup_s"])
            if len(setups) >= MIN_SETUP_SAMPLES:
                return
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)

    for _ in range(PRE_PASS_SETUPS):
        sample_setup()
    results = [r for r, _ in timed_passes(workload, seed, seconds, out_dir,
                                          after_pass=sample_setup)]
    while len(setups) < MIN_SETUP_SAMPLES:
        sample_setup()
    metrics = {key: median([r.times[key] for r in results])
               for key in ("wall_s", "compute_s")}
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["accuracy_err"] = median([r.accuracy[workload.headline] for r in results])
    return metrics, results, [], {"setup_samples": setups}


def per_layer(workload, seed, seconds, out_dir):
    untraced = [r for r, _ in timed_passes(workload, seed, seconds / 2.0, out_dir)]
    traced = timed_passes(workload, seed, seconds / 2.0, out_dir, traced=True)
    rows = []
    checks = []
    for result, tracer in traced:
        row = layer_metrics(tracer.spans)
        row["cg_iterations"] = result.info.get("cg_iterations", 0)
        row["traced_wall_s"] = result.times["wall_s"]
        expected = row["cg_iterations"] + workload.extra_gradient_calls
        checks.append((f"trace:action_gradient_calls=={expected}",
                       row["action_gradient_calls"] == expected))
        rows.append(row)
    metrics = {key: median([row[key] for row in rows]) for key in rows[0]}
    metrics["tracing_overhead_s"] = (metrics["traced_wall_s"]
                                     - median([r.times["wall_s"] for r in untraced]))
    results = untraced + [r for r, _ in traced]
    spans = [tracer.records() for _, tracer in traced]
    return metrics, results, checks, {"untraced_passes": len(untraced),
                                      "traced_passes": len(traced),
                                      "spans": spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    curvbc = load_curvbc()
    if curvbc is None:
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)

    workload.warmup(args.seed, str(out_dir))
    measure = per_layer if args.trace else end_to_end
    metrics, results, extra_checks, record = measure(
        workload, args.seed, args.seconds, str(out_dir))

    checks = [c for r in results for c in r.checks] + extra_checks
    failed = sum(not ok for _, ok in checks)
    last = results[-1]
    environment = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(results), "git_sha": git_sha(),
        "curvbc": curvbc.__version__, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": _version("scipy"),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        **{k: v for k, v in last.info.items() if k.startswith("n_")},
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(results)} passes, {len(checks) - failed}/{len(checks)} checks "
          f"passed, failed_frac={failed / len(checks):g}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    for phase in ("report_s", "io_s"):
        print(f"  {phase:28s} {median([r.times[phase] for r in results]):.6g} s"
              " (phase median, recorded only)")
    for name, value in last.accuracy.items():
        print(f"  {name:28s} {value:.6g}")
    for name, ok in checks:
        if not ok:
            print(f"  FAILED check {name}")
    print("environment " + json.dumps(environment, sort_keys=True))

    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.update(environment=environment, metrics=metrics,
                  pass_times=[r.times for r in results],
                  accuracy=last.accuracy, checks=checks,
                  failed_frac=failed / len(checks))
    record_path.write_text(json.dumps(record, default=float))

    print(json.dumps({
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
