"""Print the ROADMAP baseline figures from the traced runs' span files.

    python3 perfbench/baseline.py perfbench/out/trace-*.jsonl

Each file is one traced run (``run.py --trace 1``); the workload is read
from its name.  Figures: joint and frozen step time and the eval share on
``holdout``, the attention forward at 160 channels (a map refresh on
``holdout``), the 1239-channel conv forward and the attention forward peak
on ``pixelrep``, and FNV-1a seconds per MiB on ``cli_cv``.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

from tracing import read_spans, steps


def report(workload: str, spans) -> list[str]:
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    op_s = sum(s.seconds for s in by_name.get("workload.op", []))
    if workload == "holdout":
        step_ms = {True: [], False: []}
        for joint, seconds in steps(spans):
            step_ms[joint].append(1e3 * seconds)
        evals = sum(s.seconds for s in by_name["training.eval"])
        costs = {i for i, s in enumerate(spans)
                 if s.name == "training.compute_cost"}
        refresh = [s.seconds for s in by_name["attention.attention_forward"]
                   if s.parent not in costs]
        return [f"joint step {statistics.median(step_ms[True]):.1f} ms, "
                f"frozen step {statistics.median(step_ms[False]):.1f} ms",
                f"eval passes {100 * evals / op_s:.0f}% of wall",
                f"attention forward at 160 ch, 32x32: "
                f"{1e3 * statistics.median(refresh):.1f} ms"]
    if workload == "pixelrep":
        convs = by_name["attention.conv2d"]
        big = max(s.attrs["im2col_bytes"] for s in convs)
        times = [s.seconds for s in convs if s.attrs["im2col_bytes"] == big]
        peak = max(s.attrs["peak_bytes"]
                   for s in by_name["attention.attention_forward"])
        return [f"1239-ch conv forward, 64x64: "
                f"{1e3 * statistics.median(times):.0f} ms, im2col "
                f"{big / 1e6:.0f} MB, attention forward peak {peak / 1e6:.0f} MB"]
    if workload == "cli_cv":
        sums = by_name["manifest.checksum_file"]
        mib = sum(s.attrs["bytes"] for s in sums) / 2**20
        busy = sum(s.seconds for s in sums)
        return [f"FNV-1a checksum {busy / mib:.3f} s/MiB over {mib:.1f} MiB"]
    return []


def main(paths: list[str]) -> int:
    for name in paths:
        workload = Path(name).stem.split("-")[1]
        for line in report(workload, read_spans(Path(name))):
            print(f"{workload}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
