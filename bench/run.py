"""rotquant benchmark: one command for every workload, checked outputs.

Run from the repository root::

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Workloads are ``roundtrip``, ``dme-server`` and ``mc-harness`` (see
``workloads.py`` and ``BENCHMARK.json``).  Each run is a fresh process that
imports rotquant from ``src/``, sets up (several times where it can, reporting
the median), then runs units of work until ``--seconds`` have passed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, timed
with tracing off.  With ``--trace 1`` the same units run once untraced and
once under the span tracer (``tracer.py``); the line then carries per-layer
metrics and the tracing overhead, and the spans are written to ``bench/out/``.
The line before it holds the environment and per-op detail.  The exit code is
1 when any output check fails, 2 when rotquant's sources are missing.
"""

import os
import sys

# One BLAS thread per process: the harness runners bring their own threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_units(workload, clock, seconds: float, max_units=None) -> list:
    """Run units until ``seconds`` have passed (at least one unit) or
    ``max_units`` are done; returns each unit's timed seconds."""
    walls = []
    start = time.perf_counter()
    while max_units is None or len(walls) < max_units:
        if walls and time.perf_counter() - start >= seconds:
            break
        walls.append(workload.unit(len(walls), clock))
    return walls


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
        "commit": git_commit(),
    }


def end_to_end(workload, setup_times, walls) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    for name, value in workload.quality().items():
        metrics[name] = (value, "ratio")
    return metrics


def traced(workload, seconds, spans_path):
    """Untraced pass, then the same units traced; per-layer metrics."""
    plain = workloads.Clock()
    walls = run_units(workload, plain, seconds / 2, workload.max_units)
    workload.finish(plain)
    with tracer.Tracer() as tracing:
        clock = workloads.Clock(tracing)
        run_units(workload, clock, float("inf"), len(walls))
        workload.finish(clock)
    metrics = tracing.metrics()
    module_self = sum(metrics[f"{m}.self_s"][0] for m in tracer.MODULES)
    metrics["trace.wall_s"] = (clock.total, "s")
    metrics["trace.untraced_wall_s"] = (plain.total, "s")
    metrics["trace.overhead_s"] = (clock.total - plain.total, "s")
    metrics["trace.coverage"] = (module_self / clock.total, "ratio")
    checks = workload.checks
    metrics["experiments.min_headroom"] = (
        min((c["relative_headroom"] for c in checks), default=0.0), "ratio")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for record in tracer.span_records(tracing.spans):
            fh.write(json.dumps(record) + "\n")
    return metrics, {"headroom": checks, "spans": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rotquant" / "__init__.py").is_file():
        print(f"error: {SRC / 'rotquant'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rotquant

    if Path(rotquant.__file__).resolve().parent != (SRC / "rotquant").resolve():
        print("error: rotquant was not imported from src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](rotquant, args.seed)
    setup_times = workload.setup()
    if args.trace:
        spans_path = ROOT / "bench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        metrics, extra = traced(workload, args.seconds, spans_path)
    else:
        clock = workloads.Clock()
        walls = run_units(workload, clock, args.seconds, workload.max_units)
        workload.finish(clock)
        metrics = end_to_end(workload, setup_times, walls)
        extra = {"unit_s": walls, "headroom": workload.checks}
    info = {"env": environment(args.seed), "workload": args.workload, "trace": args.trace,
            "detail": {**workload.detail(), **extra}}
    print(json.dumps(info))
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
