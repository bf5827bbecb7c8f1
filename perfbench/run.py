"""Benchmark of the fallgcn package: one workload, one run.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` is a separate traced run that reports the per-layer
metrics. Metric names and units come from ``BENCHMARK.json``.

Standard output carries one ``{"environment": ...}`` line and, as its
last line, the result object ``{"correct", "attempted", "failed",
"metrics"}``. ``--out`` also writes both to a JSON file for
``perfbench/compare.py``. The exit code is 0 only when every
correctness check passed; without the package sources the run fails
before measuring anything.
"""
from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads: with two OpenBLAS
# threads on a busy two-core machine, weight-gradient matmuls ran 10-30x
# slower, which would swamp every other effect.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"


def _blas_threads() -> int | None:
    """Threads OpenBLAS actually uses, asked from the library numpy loaded."""
    import numpy as np

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def environment(args: argparse.Namespace) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load_avg_start": list(os.getloadavg()),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def result(correct: bool, attempted: int, failed: int, values: dict[str, float],
           listed: list[dict]) -> dict:
    """The result object, with each listed metric under its unit. A
    non-finite value is left out and makes the run incorrect."""
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in listed
        if m["name"] in values and math.isfinite(values[m["name"]])
    }
    return {"correct": correct and len(metrics) == len(values), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-desk", "infer-coco18", "infer-coco18-dense"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every shape for a smoke run")
    parser.add_argument("--out", type=Path, help="also write the result to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fallgcn" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} has no src/fallgcn package or no BENCHMARK.json; "
              "run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads(SPEC.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment(args)
    print(json.dumps({"environment": env}), flush=True)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.seed, args.seconds, workloads.SIZES[args.size], workdir)
    values: dict[str, float] = {}
    try:
        values = workloads.WORKLOADS[args.workload](ctx, bool(args.trace))
    except Exception as exc:  # the run is reported as failed, not lost
        traceback.print_exc()
        if not isinstance(exc, workloads.BenchmarkFailure):
            # raised outside Meter.call, so not counted yet
            ctx.meter.attempted += 1
            ctx.meter.failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if not args.trace:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    meter = ctx.meter
    meter.check("metrics_match_benchmark_json",
                sorted(values) == sorted(m["name"] for m in listed))
    for name, ok in meter.checks.items():
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
    outcome = result(meter.correct, meter.attempted, meter.failed, values, listed)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"environment": env, "checks": meter.checks, "result": outcome}, indent=1))
    print(json.dumps(outcome), flush=True)
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
