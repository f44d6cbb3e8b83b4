"""Benchmark of globalattn: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload holdout --seed 1 --seconds 40 --trace 0

The package is imported from the checkout's ``src`` directory; nothing needs
installing.  Inputs are made from ``--seed``: operation ``i`` of a run uses
the seed ``seed * 1000 + i``.  Operations repeat until the next one would
end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs an untraced warm-up, then alternates traced and untraced operations and
reports the per-layer metrics (see tracing.py) and the tracing overhead; its
spans are written to ``perfbench/out/``.

Standard output has the environment, one line per operation and, last, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MAX_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

UNITS = {
    "wall_s": "s", "images_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio", "test_acc_pct": "%",
}


def pin_threads() -> tuple[int, int]:
    """Pin BLAS threads to min(MAX_THREADS, nproc); must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(MAX_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads, nproc


def import_seconds() -> float:
    """Time ``import globalattn.cli`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import globalattn.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def environment(np, threads: int, nproc: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "thread_vars": THREAD_VARS,
        "nproc": nproc,
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("holdout", "pixelrep", "cli_cv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads, nproc = pin_threads()
    if not (SRC / "globalattn" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import globalattn
    import globalattn.cli
    if Path(globalattn.__file__).resolve().parent != SRC / "globalattn":
        print(f"perfbench: imported {globalattn.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import tracing
    from workloads import WORKLOADS

    print(json.dumps({"env": environment(np, threads, nproc)}), flush=True)
    workload = WORKLOADS[args.workload](globalattn,
                                        OUT / f"{args.workload}-{os.getpid()}")
    try:
        return measure(args, workload, globalattn, tracing)
    finally:
        workload.cleanup()


def measure(args, workload, ga, tracing) -> int:
    def op_seed(i: int) -> int:
        return args.seed * 1000 + i

    # Set-up: importing the package plus making the first inputs, each the
    # median of SETUP_REPEATS repeats.
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    makes = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.prepare(op_seed(0))
        makes.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(makes)

    # The traced run starts with an untraced warm-up, then alternates traced
    # and untraced operations, so that the tracing overhead compares warm
    # operations made under the same conditions.
    tracer = tracing.Tracer() if args.trace else None
    ops = []      # one record per operation
    started = time.perf_counter()
    while True:
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        record = {"op": i, "seed": op_seed(i), "traced": traced}
        t0 = time.perf_counter()
        try:
            if traced:
                tracing.install(tracer, ga)
            try:
                if i:
                    inputs = workload.prepare(op_seed(i))
                span = (tracer.span("workload.op") if traced
                        else contextlib.nullcontext())
                t0, c0 = time.perf_counter(), time.process_time()
                with span:
                    outputs = workload.run(inputs, tracer if traced else None)
                record["wall_s"] = time.perf_counter() - t0
                record["cpu_s"] = time.process_time() - c0
            finally:
                if traced:
                    tracer.restore()
            quality, problems = workload.check(inputs, outputs)
            if quality is not None:
                record.update(vars(quality))
        except Exception:
            record.setdefault("wall_s", time.perf_counter() - t0)
            problems = [traceback.format_exc()]
        record["problems"] = problems
        ops.append(record)
        print(json.dumps(record), flush=True)
        if tracer is not None and i < 2:
            continue  # warm-up, then at least one traced operation
        longest = max(op["wall_s"] for op in ops)
        if time.perf_counter() - started + longest > args.seconds:
            break

    workload.check_run(ops)
    failed = sum(bool(op["problems"]) for op in ops)
    if failed:
        print(json.dumps({"failed_ops": [
            {"op": op["op"], "problems": op["problems"]}
            for op in ops if op["problems"]]}), flush=True)
    if args.trace:
        metrics = traced_metrics(tracer, ops, tracing)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end_metrics(ops, setup_s)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end_metrics(ops: list[dict], setup_s: float) -> dict:
    measured = [op for op in ops if "image_epochs" in op]
    values = {
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "images_per_s": statistics.median(
            [op["image_epochs"] / op["wall_s"] for op in measured] or [0.0]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": sum(not op["problems"] for op in ops) / len(ops),
        "test_acc_pct": statistics.fmean(
            [op["test_acc_pct"] for op in measured] or [0.0]),
    }
    return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}


def traced_metrics(tracer, ops: list[dict], tracing) -> dict:
    values = tracing.layer_metrics(tracer)
    untraced = [op["wall_s"] for op in ops[1:] if not op["traced"]]
    traced = [op["wall_s"] for op in ops if op["traced"]]
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    measured = [op for op in ops if "map_ratio" in op]
    values["attention.map.ratio"] = statistics.fmean(
        [op["map_ratio"] for op in measured] or [0.0])
    values["attention.map.saturated_px"] = max(
        (op["saturated_px"] for op in measured), default=0)
    return {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}


LAYER_UNITS = {
    "calls": "count", "share": "ratio", "gflop": "GFLOP", "gflop_per_s": "GFLOP/s",
    "im2col_mb": "MB", "peak_mb": "MB", "mb": "MB", "mib": "MiB",
    "s_per_mib": "s/MiB", "useful_ratio": "ratio", "overhead_pct": "%",
    "spans": "count", "saturated_px": "count", "busy_s": "s", "wall_s": "s",
    "ratio": "ratio",
    "joint_ms_p50": "ms", "joint_ms_p90": "ms", "frozen_ms_p50": "ms",
    "frozen_ms_p90": "ms",
}


def unit_of(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


if __name__ == "__main__":
    sys.exit(main())
