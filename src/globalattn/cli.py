"""Command-line entry point for reproducible runs.

Subcommands: ``gen`` (synthetic dataset), ``preprocess``, ``train``,
``gradcheck``, ``sweep``.  Exit codes are stable: 0 success, 2
configuration error, 3 data-format error, 4 numerical divergence (the
failing epoch is printed).  A ``gradcheck`` that runs but exceeds its
tolerance exits 1.  Every command writes a run manifest into its output
directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipelinecheck
from .attention import export_attention_map
from .datasets import ImageBatch, load_dataset, save_dataset
from .errors import ConfigError, ContractError, DataFormatError, DivergenceError
from .manifest import RunManifest
from .preprocess import apply_pipeline, load_preprocess_spec
from .serialize import save_model_checkpoint, write_gten
from .synthetic import generate_synthetic, load_synthetic_spec, split_train_test
from .training import (_check_compatible, config_kv, load_train_config, sweep,
                       sweep_csv_text, train)
from .config import (Field, field_keys, load_kv_file, parse_fields,
                     parse_float, parse_ints, parse_size)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _cmd_gen(args) -> int:
    spec = load_synthetic_spec(args.spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    batch, mask = generate_synthetic(spec)
    train_set, test_set = split_train_test(batch, 0.8, spec.seed)
    manifest = RunManifest("gen", load_kv_file(args.spec), spec.seed)
    manifest.add_artifacts(save_dataset(train_set, out / "train"))
    manifest.add_artifacts(save_dataset(test_set, out / "test"))
    mask_path = out / "mask.gten"
    write_gten(mask_path, mask)
    manifest.add_artifact(mask_path)
    manifest.write(out / "manifest.txt")
    print(f"wrote {train_set.n} train / {test_set.n} test images to {out}")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    spec = load_preprocess_spec(args.spec)
    in_dir, out = Path(args.in_dir), Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stems = [s for s in ("train", "test")
             if (in_dir / f"{s}.gten").exists()]
    if not stems:
        raise DataFormatError(f"no train.gten or test.gten under {in_dir}")
    manifest = RunManifest("preprocess", load_kv_file(args.spec), None)
    # every split is processed before any is written, so a failure leaves
    # no partial output behind
    processed = [apply_pipeline(spec, load_dataset(in_dir / stem))
                 for stem in stems]
    for stem, batch in zip(stems, processed):
        manifest.add_artifacts(save_dataset(batch, out / stem))
    manifest.write(out / "manifest.txt")
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_set, test_set = _load_splits(Path(args.data))
    report = train(train_set, test_set, cfg)
    manifest = RunManifest("train", config_kv(cfg), cfg.seed)
    report_path = out / "report.csv"
    report_path.write_text(report.csv_text())
    manifest.add_artifact(report_path)
    for epoch, snap in sorted(report.snapshots.items()):
        manifest.add_artifacts(
            export_attention_map(snap, out / f"attention_epoch{epoch}"))
    attention, classifier = report.final_models
    attn_path, clf_path = out / "attention.ckpt", out / "classifier.ckpt"
    save_model_checkpoint(attention, attn_path)
    save_model_checkpoint(classifier, clf_path)
    manifest.add_artifacts([attn_path, clf_path])
    manifest.write(out / "manifest.txt")
    last = report.rows[-1]
    print(f"trained {cfg.total_epochs} epochs: final train acc "
          f"{last.train_acc:.2f}%, test acc {last.test_acc:.2f}%")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    width, height = parse_size(args.size)
    result = pipelinecheck.full_pipeline_gradcheck(
        width=width, height=height, images=args.images, seed=args.seed,
        channels=args.channels, corrupt=args.corrupt)
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
    values = parse_fields(_GRID_FIELDS, grid, required=True)
    train_set, test_set = _load_splits(Path(args.data))
    rows = sweep(train_set, test_set, cfg, **values, jobs=args.jobs)
    out_csv = Path(args.out)
    if out_csv.parent != Path(""):
        out_csv.parent.mkdir(parents=True, exist_ok=True)
    out_csv.write_text(sweep_csv_text(rows))
    manifest = RunManifest("sweep", {**config_kv(cfg), **{
        f"grid.{f.key}": grid[f.key] for f in _GRID_FIELDS}}, cfg.seed)
    manifest.add_artifact(out_csv)
    manifest.write(out_csv.with_name(out_csv.name + ".manifest.txt"))
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
    p.add_argument("--size", default="8x8", help="image size WxH (max 16x16)")
    p.add_argument("--images", type=int, default=2, help="image count (max 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=4,
                   help="hidden channels of the pixel classifier")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("sweep", help="grid-sweep K, lambda and E")
    p.add_argument("--config", required=True, help="base train config")
    p.add_argument("--grid", required=True, help="grid file (K/lambda/E lists)")
    p.add_argument("--data", required=True, help="dataset dir with train/test")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--jobs", type=int, default=1, help="parallel cells")
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
    except FileNotFoundError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
