"""Spans recorded from outside the package, and the per-layer metrics they give.

The traced run replaces names in the package's modules with wrappers, at
the module where each caller looks the name up: ``globalattn.attention.conv2d``
and ``globalattn.classifier.conv2d`` are separate call sites of one kernel,
so they become separate layers.  A wrapper records one span (name, start,
end, parent, attributes) per call.  Spans stay in memory and are written
out when the run ends.  Counts such as FLOPs and bytes are computed from
call shapes and file sizes, never measured.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import tracemalloc
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps callables so that each call appends a :class:`Span`.

    Spans are stored in start order; ``parent`` is the index of the span
    that was open when the call began, or -1.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.started = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record a span around a ``with`` block."""
        span = self._begin(name, attrs or {})
        try:
            yield span
        finally:
            self._finish(span)

    def _begin(self, name: str, attrs: dict) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), parent, attrs)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, before=None, after=None, memory=False):
        """Return ``fn`` wrapped in a span.

        ``before(args, kwargs)`` returns the span's attributes; ``after(span,
        args, kwargs, result)`` may add more.  With ``memory`` the span also
        gets ``peak_bytes``, the tracemalloc peak allocated during the call.
        """
        def wrapper(*args, **kwargs):
            span = self._begin(name, before(args, kwargs) if before else {})
            watch = memory and not tracemalloc.is_tracing()
            if watch:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if watch:
                    span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._finish(span)
            if after:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` with its wrapped version until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, **hooks))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start_s": s.start - self.started,
                    "dur_s": s.seconds, **s.attrs}) + "\n")


def read_spans(path: Path) -> list[Span]:
    """The spans that :meth:`Tracer.write` wrote, times relative to its start."""
    spans = []
    for line in path.read_text().splitlines():
        attrs = json.loads(line)
        del attrs["id"]
        span = Span(attrs.pop("name"), attrs.pop("start_s"), attrs.pop("parent"),
                    attrs)
        span.end = span.start + attrs.pop("dur_s")
        spans.append(span)
    return spans


# ---------------------------------------------------------------------------
# computed counts
# ---------------------------------------------------------------------------

def _conv_counts(args, kwargs) -> dict:
    """Forward FLOPs and the im2col buffer size of one conv2d call."""
    x, kernel = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    b, cin, w, h = x.shape
    cout, _, k, _ = kernel.shape
    wo = (w + 2 * padding - k) // stride + 1
    ho = (h + 2 * padding - k) // stride + 1
    cols = b * cin * k * k * wo * ho
    return {"flop": 2 * cout * cols, "im2col_bytes": 8 * cols}


def _maxpool_counts(args, kwargs) -> dict:
    """Bytes read plus bytes written by one 2x2 pool (fp64)."""
    nbytes = args[0].data.nbytes
    return {"bytes": nbytes + nbytes // 4}


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _dataset_paths(stem) -> list[str]:
    stem = str(stem)
    return [stem + ".gten", stem + ".labels.csv", stem + ".meta"]


def install(tracer: Tracer, ga) -> None:
    """Wrap every layer boundary that the per-layer metrics read.

    ``ga`` is the imported ``globalattn`` package.
    """
    tr = ga.training
    tracer.patch(ga.attention, "conv2d", "attention.conv2d", before=_conv_counts)
    tracer.patch(ga.classifier, "conv2d", "classifier.conv2d", before=_conv_counts)
    tracer.patch(ga.classifier, "maxpool2x2", "classifier.maxpool2x2",
                 before=_maxpool_counts)
    tracer.patch(ga.classifier, "relu", "classifier.relu")
    tracer.patch(tr, "attention_forward", "attention.attention_forward",
                 memory=True)
    tracer.patch(tr, "compute_cost", "training.compute_cost",
                 before=lambda a, k: {"joint": k.get("weight_map") is None})
    tracer.patch(tr, "backward", "training.backward")
    tracer.patch(ga.optim.Adam, "step", "optim.Adam.step")

    def train_attrs(args, kwargs):
        train_set, test_set, cfg = args[:3]
        return {"train_id": id(train_set), "test_id": id(test_set),
                "epochs": cfg.total_epochs}

    for owner in (tr, ga.cli):
        tracer.patch(owner, "train", "training.train", before=train_attrs)
    # The eval pass has no public name; _eval_accuracy is the one function
    # that evaluates a whole split, so it is the span boundary.
    tracer.patch(tr, "_eval_accuracy", "training.eval",
                 before=lambda a, k: {"batch_id": id(a[2])})
    tracer.patch(tr, "select_epochs_cv", "training.select_epochs_cv")
    tracer.patch(tr, "evaluate_at_epochs", "training.evaluate_at_epochs",
                 before=lambda a, k: {"selected": list(a[3])})
    tracer.patch(tr, "run_protocol", "training.run_protocol",
                 before=lambda a, k: {"protocol": a[2].eval_protocol})
    tracer.patch(ga.manifest, "checksum_file", "manifest.checksum_file",
                 before=lambda a, k: {"bytes": _file_bytes([a[0]])})
    tracer.patch(ga.cli, "load_dataset", "datasets.load_dataset",
                 before=lambda a, k: {"bytes": _file_bytes(_dataset_paths(a[0]))})
    tracer.patch(ga.cli, "save_dataset", "datasets.save_dataset",
                 after=lambda s, a, k, r: s.attrs.update(bytes=_file_bytes(r)))
    tracer.patch(ga.cli, "apply_pipeline", "preprocess.apply_pipeline")
    for owner in (ga.synthetic, ga.cli):
        tracer.patch(owner, "generate_synthetic", "synthetic.generate_synthetic")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("gen", "preprocess", "train", "sweep")

_BUSY_LAYERS = ("attention.conv2d", "attention.attention_forward",
                "classifier.conv2d", "classifier.maxpool2x2", "classifier.relu",
                "training.backward", "optim.Adam.step", "manifest.checksum_file",
                "datasets.load_dataset", "datasets.save_dataset",
                "preprocess.apply_pipeline", "synthetic.generate_synthetic")


def _pct(values, q) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def steps(spans: list[Span]) -> list[tuple[bool, float]]:
    """(joint, seconds) per optimizer step.

    A step opens with a compute_cost call and ends with the last Adam.step
    call before the next compute_cost, eval pass or train call.
    """
    done = []
    current = None  # [joint, start, end]
    for s in spans:
        if s.name in ("training.compute_cost", "training.eval",
                      "training.train") and current:
            done.append(current)
            current = None
        if s.name == "training.compute_cost":
            current = [s.attrs["joint"], s.start, s.end]
        elif s.name == "optim.Adam.step" and current:
            current[2] = s.end
    if current:
        done.append(current)
    return [(joint, end - start) for joint, start, end in done]


def _useful_evals(spans: list[Span]) -> tuple[int, int]:
    """(useful, run) eval passes.

    A pass is useful when its accuracy reaches the caller's result: a
    cross-validation fold reads only validation accuracy; the retrain of
    ``evaluate_at_epochs`` reads test accuracy at the selected epochs; a
    holdout protocol reads the final test accuracy; a plain ``train`` call
    returns every row, so all its passes count.
    """
    useful = run = 0
    seen: dict[tuple[int, bool], int] = {}
    for s in spans:
        if s.name != "training.eval":
            continue
        run += 1
        t = spans[s.parent]
        is_test = s.attrs["batch_id"] == t.attrs["test_id"]
        epoch = seen[s.parent, is_test] = seen.get((s.parent, is_test), 0) + 1
        caller = spans[t.parent] if t.parent >= 0 else None
        kind = caller.name if caller else None
        if kind == "training.select_epochs_cv":
            useful += is_test
        elif kind == "training.evaluate_at_epochs":
            useful += is_test and epoch in caller.attrs["selected"]
        elif kind == "training.run_protocol":
            useful += is_test and epoch == t.attrs["epochs"]
        else:
            useful += 1
    return useful, run


# Totals that grow with the number of traced operations are reported per
# operation, so that a run that fits more operations reports the same.
PER_OP = {"calls", "busy_s", "gflop", "mb", "mib", "wall_s", "spans"}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, zero where the workload never calls the layer.

    Totals are per traced operation; shares, rates, percentiles and peaks
    are over all traced operations.
    """
    spans = tracer.spans
    # Shares are of the time spent inside traced operations.
    wall = sum(s.seconds for s in spans if s.name == "workload.op")
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    inside_cost = {i for i, s in enumerate(spans)
                   if s.name == "training.compute_cost"}

    out: dict[str, float] = {}

    def busy(name: str, group: list[Span]) -> float:
        total = sum(s.seconds for s in group)
        out[f"{name}.calls"] = len(group)
        out[f"{name}.busy_s"] = total
        out[f"{name}.share"] = total / wall
        return total

    def attr_sum(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    for name in _BUSY_LAYERS:
        busy(name, by_name.get(name, []))

    for layer in ("attention.conv2d", "classifier.conv2d"):
        group = by_name.get(layer, [])
        gflop = attr_sum(group, "flop") / 1e9
        out[f"{layer}.gflop"] = gflop
        t = out[f"{layer}.busy_s"]
        out[f"{layer}.gflop_per_s"] = gflop / t if t else 0.0
    out["attention.conv2d.im2col_mb"] = max(
        [s.attrs["im2col_bytes"] for s in by_name.get("attention.conv2d", [])],
        default=0) / 1e6
    out["attention.attention_forward.peak_mb"] = max(
        [s.attrs["peak_bytes"]
         for s in by_name.get("attention.attention_forward", [])],
        default=0) / 1e6
    out["classifier.maxpool2x2.mb"] = attr_sum(
        by_name.get("classifier.maxpool2x2", []), "bytes") / 1e6

    step_times = steps(spans)
    joint = [t * 1e3 for j, t in step_times if j]
    frozen = [t * 1e3 for j, t in step_times if not j]
    out["training.step.calls"] = len(step_times)
    out["training.step.joint_ms_p50"] = _pct(joint, 50)
    out["training.step.joint_ms_p90"] = _pct(joint, 90)
    out["training.step.frozen_ms_p50"] = _pct(frozen, 50)
    out["training.step.frozen_ms_p90"] = _pct(frozen, 90)

    busy("training.map_refresh",
         [s for s in by_name.get("attention.attention_forward", [])
          if s.parent not in inside_cost])
    busy("training.eval", by_name.get("training.eval", []))
    useful, run = _useful_evals(spans)
    out["training.eval.useful_ratio"] = useful / run if run else 0.0

    mib = attr_sum(by_name.get("manifest.checksum_file", []), "bytes") / 2**20
    out["manifest.checksum_file.mib"] = mib
    t = out["manifest.checksum_file.busy_s"]
    out["manifest.checksum_file.s_per_mib"] = t / mib if mib else 0.0
    for layer in ("datasets.load_dataset", "datasets.save_dataset"):
        out[f"{layer}.mb"] = attr_sum(by_name.get(layer, []), "bytes") / 1e6

    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.wall_s"] = sum(
            s.seconds for s in by_name.get(f"cli.{cmd}", []))
    out["trace.spans"] = len(spans)
    ops = len(by_name.get("workload.op", [])) or 1
    return {name: value / ops if name.rsplit(".", 1)[1] in PER_OP else value
            for name, value in out.items()}

