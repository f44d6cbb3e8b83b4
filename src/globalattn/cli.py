"""Command-line entry point for reproducible runs.

Subcommands: ``gen`` (synthetic dataset), ``preprocess``, ``train``,
``gradcheck``, ``sweep``.  Exit codes are stable: 0 success, 2
configuration error, 3 data-format error, 4 numerical divergence (the
failing epoch is printed), 5 any other I/O error, such as an output that
cannot be written, 6 out of memory (an array too large to allocate, or to
index at all).  A ``gradcheck`` that runs but exceeds its tolerance exits
1.  Every command writes a run manifest into its output
directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipelinecheck
from .attention import export_attention_map
from .datasets import ImageBatch, load_dataset, open_dataset, save_dataset
from .errors import ConfigError, ContractError, DataFormatError, DivergenceError
from .manifest import RunManifest
from .preprocess import apply_pipeline, load_preprocess_spec
from .serialize import save_model_checkpoint, write_file, write_gten
from .synthetic import (class_labels, generate_synthetic, load_synthetic_spec,
                        relevance_mask, split_indices)
from .training import (_check_compatible, check_sweep, config_kv,
                       grid_configs, load_train_config, sweep, sweep_csv_text,
                       train)
from .config import (Field, field_keys, load_kv_file, parse_fields,
                     parse_float, parse_ints, parse_size)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_IO = 5
EXIT_MEMORY = 6


def _out_dir(path: Path) -> Path:
    """``path``, checked to be an output directory or a place for one: a
    file at it or at its nearest existing ancestor is a configuration
    error.  The command's first write makes it."""
    for place in (path, *path.parents):
        if place.exists():
            if not place.is_dir():
                raise ConfigError(
                    f"output directory {path}: {place} is not a directory")
            break
    return path


# gen draws its images about this many bytes (at least one image) at a time
_DRAW_BYTES = 1 << 18


def _draws(spec, indices):
    """Images ``indices`` of the synthetic set, each chunk drawn, written
    and dropped before the next is drawn."""
    step = max(1, _DRAW_BYTES // (8 * spec.c * spec.w * spec.h))
    for start in range(0, indices.size, step):
        yield from generate_synthetic(spec, indices[start:start + step])[0].images


def _cmd_gen(args) -> int:
    spec, spec_kv = load_synthetic_spec(args.spec)
    splits = split_indices(spec.n, 0.8, spec.seed)
    out = _out_dir(Path(args.out))
    manifest = RunManifest(out / "manifest.txt", "gen", spec_kv, spec.seed)
    for stem, indices in zip(("train", "test"), splits):
        manifest.add_artifacts(save_dataset(
            out / stem, _draws(spec, indices), class_labels(spec, indices),
            spec.num_classes))
    mask_path = out / "mask.gten"
    manifest.add_artifacts({mask_path: write_gten(mask_path, relevance_mask(spec))})
    manifest.write()
    print(f"wrote {splits[0].size} train / {splits[1].size} test images to {out}")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    spec, spec_kv = load_preprocess_spec(args.spec)
    in_dir = Path(args.in_dir)
    stems = [s for s in ("train", "test")
             if (in_dir / f"{s}.gten").exists()]
    if not stems:
        raise DataFormatError(f"no train.gten or test.gten under {in_dir}")
    # each split's images are processed as they are read, and every split
    # before the first write, so a failure leaves no output
    processed = []
    for stem in stems:
        _, images, labels, num_classes = open_dataset(in_dir / stem)
        processed.append((apply_pipeline(spec, images), labels, num_classes))
    out = _out_dir(Path(args.out))
    manifest = RunManifest(out / "manifest.txt", "preprocess", spec_kv, None)
    for stem, (images, labels, num_classes) in zip(stems, processed):
        manifest.add_artifacts(
            save_dataset(out / stem, images, labels, num_classes))
    manifest.write()
    print(f"preprocessed {', '.join(stems)} into {out}")
    return EXIT_OK


def _load_splits(data_dir: Path) -> tuple[ImageBatch, ImageBatch]:
    """The train and test sets under ``data_dir``, checked to fit together."""
    train_set = load_dataset(data_dir / "train")
    test_set = load_dataset(data_dir / "test")
    try:
        _check_compatible(train_set, test_set)
    except ContractError as exc:
        raise DataFormatError(f"{data_dir}: {exc}") from exc
    return train_set, test_set


def _cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    train_set, test_set = _load_splits(Path(args.data))
    out = _out_dir(Path(args.out))
    report = train(train_set, test_set, cfg)
    manifest = RunManifest(out / "manifest.txt", "train", config_kv(cfg),
                           cfg.seed)
    report_path = out / "report.csv"
    manifest.add_artifacts(
        {report_path: write_file(report_path, [report.csv_text().encode()])})
    for epoch, snap in sorted(report.snapshots.items()):
        manifest.add_artifacts(
            export_attention_map(snap, out / f"attention_epoch{epoch}"))
    for model, name in zip(report.final_models, ("attention", "classifier")):
        path = out / f"{name}.ckpt"
        manifest.add_artifacts({path: save_model_checkpoint(model, path)})
    manifest.write()
    last = report.rows[-1]
    print(f"trained {cfg.total_epochs} epochs: final train acc "
          f"{last.train_acc:.2f}%, test acc {last.test_acc:.2f}%")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    width, height = parse_size(args.size)
    result = pipelinecheck.full_pipeline_gradcheck(
        width=width, height=height, images=args.images, seed=args.seed,
        channels=args.channels)
    for line in result.lines():
        print(line)
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


_GRID_FIELDS = (
    Field("K", "k_values", parse_ints),
    Field("lambda", "lambda_values",
          lambda text: tuple(parse_float(v) for v in text.split(","))),
    Field("E", "e_values", parse_ints),
)


def _cmd_sweep(args) -> int:
    cfg = load_train_config(args.config)
    grid = load_kv_file(args.grid, field_keys(_GRID_FIELDS))
    cells = grid_configs(cfg, **parse_fields(_GRID_FIELDS, grid, required=True))
    check_sweep(args.jobs)
    out_csv = Path(args.out)
    if out_csv.is_dir():
        raise ConfigError(f"--out {out_csv} is a directory, not a CSV path")
    train_set, test_set = _load_splits(Path(args.data))
    _out_dir(out_csv.parent)
    rows = sweep(train_set, test_set, cells, args.jobs)
    grid_kv = {f"grid.{f.key}": grid[f.key] for f in _GRID_FIELDS}
    manifest = RunManifest(out_csv.with_name(out_csv.name + ".manifest.txt"),
                           "sweep", {**config_kv(cfg), **grid_kv}, cfg.seed)
    manifest.add_artifacts(
        {out_csv: write_file(out_csv, [sweep_csv_text(rows).encode()])})
    manifest.write()
    print(f"swept {len(rows)} cells into {out_csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="globalattn",
        description="Dataset-wide attention training at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="synthetic spec (key = value)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("preprocess", help="run the preprocessing pipeline")
    p.add_argument("--spec", required=True, help="preprocess spec (key = value)")
    p.add_argument("--in", dest="in_dir", required=True, help="input dataset dir")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train", help="train with the two-phase schedule")
    p.add_argument("--config", required=True, help="train config (key = value)")
    p.add_argument("--data", required=True, help="dataset dir with train/test")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("gradcheck",
                       help="check all gradients against finite differences")
    cap = pipelinecheck.MAX_SIZE
    p.add_argument("--size", default="8x8",
                   help=f"image size WxH (max {cap}x{cap})")
    p.add_argument("--images", type=int, default=2,
                   help=f"image count (max {pipelinecheck.MAX_IMAGES})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=4,
                   help="hidden channels of the pixel classifier")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("sweep", help="grid-sweep K, lambda and E")
    p.add_argument("--config", required=True, help="base train config")
    p.add_argument("--grid", required=True, help="grid file (K/lambda/E lists)")
    p.add_argument("--data", required=True, help="dataset dir with train/test")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--jobs", type=int, default=1,
                   help="cells run at a time (at least 1)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (FileNotFoundError, NotADirectoryError) as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_MEMORY


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
