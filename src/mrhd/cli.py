"""Command-line entry point.

Subcommands: synth, train, eval, predict, gradcheck, sweep. Logs go to
stderr; machine-readable JSON goes to stdout or the --out path. Exit codes:
0 success, 1 an unusable input (an ``InputError``) or a missing file, 2 a bug.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import gradcheck, trainer
from .data import ConfigError, FeatureFormatError, InputError, SynthConfig, load_dataset, synth_generate, write_dataset

log = logging.getLogger("mrhd")

_USER_ERRORS = (InputError, FileNotFoundError, NotADirectoryError, IsADirectoryError)


def non_negative_int(text: str) -> int:
    """A ``--seed`` value: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mrhd",
        description="Train and evaluate a joint moment-retrieval and "
        "highlight-detection model on clip-level video features.",
    )
    sub = p.add_subparsers(dest="command", metavar="command")

    synth = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    synth.add_argument("--config", help="JSON file with generator fields")
    synth.add_argument("--seed", type=non_negative_int, default=0)
    synth.add_argument("--out", required=True, help="output directory")

    train = sub.add_parser("train", help="train a model and save a checkpoint")
    train.add_argument("--config", help="JSON file with training fields")
    train.add_argument("--data", required=True, help="dataset directory")
    train.add_argument("--out", required=True, help="checkpoint path")
    train.add_argument("--seed", type=non_negative_int, help="override the config seed")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", help="write the report here instead of stdout")

    pred = sub.add_parser("predict", help="write per-query predictions as JSON lines")
    pred.add_argument("--ckpt", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True)

    gc = sub.add_parser("gradcheck", help="finite-difference check of every kernel")
    gc.add_argument("--seed", type=non_negative_int, default=0)
    gc.add_argument("--trials", type=int, default=3, help="seeds per kernel")
    gc.add_argument("--out", help="write the report here instead of stdout")

    sweep = sub.add_parser("sweep", help="train once per alignment weight")
    sweep.add_argument("--config", help="JSON file with training fields")
    sweep.add_argument("--data", required=True)
    sweep.add_argument("--lambdas", required=True, help="comma-separated weights")
    sweep.add_argument("--val-data", help="held-out directory (default: --data)")
    sweep.add_argument("--out", help="write the table here instead of stdout")
    sweep.add_argument("--seed", type=non_negative_int, help="override the config seed")
    return p


def _emit(obj, out_path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out_path:
        with trainer.replacing(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        log.info("wrote %s", out_path)
    else:
        print(text)


def _load_dir(path) -> "trainer.Dataset":
    root = Path(path)
    return load_dataset(root / "annotations.jsonl", root)


def _train_config(args) -> trainer.TrainConfig:
    cfg = trainer.read_config(args.config, trainer.TrainConfig, "config")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    cfg.validate()
    return cfg


def _cmd_synth(args) -> int:
    cfg = trainer.read_config(args.config, SynthConfig, "generator config")
    ds = synth_generate(cfg, args.seed)
    try:
        write_dataset(ds, args.out)
    except FeatureFormatError:
        # validate bounds every field but the noise, whose draws decide
        # whether a feature leaves float32's range
        raise ConfigError(f"noise must keep every feature within float32's range, got {cfg.noise}") from None
    _emit({"out": str(args.out), "num_samples": len(ds), "seed": args.seed}, None)
    return 0


def _cmd_train(args) -> int:
    cfg = _train_config(args)
    ds = _load_dir(args.data)
    ckpt = trainer.train(cfg, ds)
    trainer.save_checkpoint(ckpt, args.out)
    breakdown = trainer.dataset_breakdown(ckpt.params, cfg, ds)
    _emit({"out": str(args.out), "steps": ckpt.step, "final_total": breakdown.total}, None)
    return 0


def _cmd_eval(args) -> int:
    ckpt = trainer.load_checkpoint(args.ckpt)
    ds = _load_dir(args.data)
    report = trainer.evaluate_checkpoint(ckpt, ds)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_predict(args) -> int:
    ckpt = trainer.load_checkpoint(args.ckpt)
    ds = _load_dir(args.data)
    records = trainer.predict(ckpt, ds, args.out)
    _emit({"out": str(args.out), "queries": len(records)}, None)
    return 0


def _cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    seeds = range(args.seed, args.seed + args.trials)
    report = gradcheck.kernel_suite(seeds)
    report["end_to_end"] = gradcheck.end_to_end(args.seed)
    _emit(report, args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _train_config(args)
    try:
        values = [float(x) for x in args.lambdas.split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"bad --lambdas: {e}") from None
    if not values:
        raise ConfigError("--lambdas is empty")
    ds = _load_dir(args.data)
    val_ds = _load_dir(args.val_data) if args.val_data else None
    rows = trainer.sweep_lambda(cfg, values, ds, val_ds)
    _emit({"rows": rows}, args.out)
    return 0


_DISPATCH = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
        )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except _USER_ERRORS as e:
        log.error("%s", e)
        return 1
    except Exception:
        log.exception("internal error")
        return 2


if __name__ == "__main__":
    sys.exit(main())
