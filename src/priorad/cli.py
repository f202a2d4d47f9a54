"""Command-line entry points: train, score, eval, synth, ablate.

Configuration comes from an optional JSON file (--config) with sections
"model", "train", "scoring", plus dotted per-key overrides, e.g.
``--set model.num_heads=8``. Output root defaults to --out or $PRIORAD_OUT.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .data import (StandardizerStats, _read_matrix, default_synthetic_spec,
                   load_csv_dataset, read_labels, standardize,
                   split_train_val, synth_generate, write_csv, ANOMALY_TYPES)
from .evaluation import (AblationSpec, compute_metrics, format_report_table,
                         run_ablation)
from .model import ModelConfig
from .scoring import ScoringConfig, detect, point_adjust, write_score_csv
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _coerce(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


def load_run_config(config_path, overrides):
    """Build (ModelConfig, TrainConfig, ScoringConfig) from file + overrides."""
    sections = {"model": {}, "train": {}, "scoring": {}}
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        for key in sections:
            sections[key].update(loaded.get(key, {}))
    for dotted, value in overrides:
        if "." not in dotted:
            raise UsageError(f"override {dotted!r} must look like section.key")
        section, key = dotted.split(".", 1)
        if section not in sections:
            raise UsageError(f"unknown config section {section!r}")
        sections[section][key] = _coerce(value)
    try:
        model_cfg = ModelConfig(**sections["model"])
        train_cfg = TrainConfig(**sections["train"])
        score_cfg = ScoringConfig(
            window_length=model_cfg.window_length, **sections["scoring"]
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    return model_cfg, train_cfg, score_cfg


def _split_overrides(pairs):
    out = []
    for p in pairs or []:
        if "=" not in p:
            raise UsageError(f"override {p!r} must look like section.key=value")
        k, v = p.split("=", 1)
        out.append((k.lstrip("-"), v))
    return out


def _out_dir(args) -> Path:
    root = args.out or os.environ.get("PRIORAD_OUT", ".")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_synth(args) -> int:
    if args.type != "all" and args.type not in ANOMALY_TYPES:
        raise UsageError(f"unknown anomaly type {args.type!r}")
    kinds = ANOMALY_TYPES if args.type == "all" else (args.type,)
    spec = default_synthetic_spec(seed=args.seed, kinds=kinds,
                                  length=args.length, channels=args.channels)
    train_s, test_s, labels = synth_generate(spec)
    out = _out_dir(args)
    write_csv(out / "train.csv", train_s)
    write_csv(out / "test.csv", test_s)
    write_csv(out / "labels.csv", labels.astype(float))
    with open(out / "spec.json", "w") as fh:
        json.dump(dataclasses.asdict(spec), fh, indent=2, sort_keys=True)
    print(f"wrote synthetic dataset to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    model_cfg, train_cfg, _ = load_run_config(args.config,
                                              _split_overrides(args.set))
    train_raw = _read_matrix(args.train_csv)
    stats = StandardizerStats.fit(train_raw)
    z_train = standardize(train_raw, stats)
    if model_cfg.channels != z_train.shape[1]:
        model_cfg.channels = z_train.shape[1]
    out = _out_dir(args)
    ckpt = train(z_train, model_cfg, train_cfg,
                 log_path=out / "training_log.csv")
    save_checkpoint(ckpt, out / "checkpoint.npz")
    np.savez(out / "standardizer.npz", mean=stats.mean, std=stats.std)
    print(f"trained {ckpt.epoch} best epoch, "
          f"val recon {ckpt.best_val_recon:.6f}; wrote {out}/checkpoint.npz")
    return EXIT_OK


def cmd_score(args) -> int:
    # the model config and the calibration split come from the checkpoint
    overrides = _split_overrides(args.set)
    for dotted, _ in overrides:
        if dotted.split(".", 1)[0] in ("model", "train"):
            raise UsageError(f"score cannot set {dotted!r}: the checkpoint "
                             f"holds the model and train configs")
    _, _, score_cfg = load_run_config(args.config, overrides)
    ckpt = load_checkpoint(args.checkpoint)
    L = ckpt.model.cfg.window_length
    score_cfg.window_length = L
    ds = load_csv_dataset(args.train_csv, args.test_csv, args.labels_csv)
    with np.load(Path(args.checkpoint).parent / "standardizer.npz") as z:
        stats = StandardizerStats(z["mean"], z["std"])
    z_train = standardize(ds.train, stats)
    z_test = standardize(ds.test, stats)
    fit_part, thresh_part = split_train_val(
        z_train, ckpt.train_cfg.val_fraction, min_length=L)
    scores = detect(ckpt.model, fit_part, thresh_part, z_test, score_cfg)
    out = _out_dir(args)
    write_score_csv(out / "scores.csv", scores, y_true=ds.test_labels)
    print(f"threshold {scores.threshold:.6f}; wrote {out}/scores.csv")
    return EXIT_OK


def cmd_eval(args) -> int:
    rows = np.genfromtxt(args.scores_csv, delimiter=",", names=True)
    y_hat = rows["y_hat"].astype(bool)
    if args.labels_csv:
        labels = read_labels(args.labels_csv)
    elif "y_true" in rows.dtype.names:
        labels = rows["y_true"].astype(bool)
    else:
        raise UsageError("eval needs --labels or a y_true column in scores")
    adjusted = point_adjust(y_hat, labels)
    report = compute_metrics(adjusted, labels)
    out = _out_dir(args)
    with open(out / "report.json", "w") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
    print(format_report_table({"point-adjusted": report}))
    return EXIT_OK


def cmd_ablate(args) -> int:
    model_cfg, train_cfg, score_cfg = load_run_config(
        args.config, _split_overrides(args.set))
    values = [_coerce(v) for v in args.values]
    spec = AblationSpec(args.axis, values)
    synth_spec = default_synthetic_spec(seed=args.seed, length=args.length,
                                        channels=args.channels)
    out = _out_dir(args)
    results = run_ablation(spec, synth_spec, model_cfg, train_cfg, score_cfg,
                           csv_path=out / "ablation.csv")
    print(format_report_table(results))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="priorad",
        description="Prior-guided dual-attention anomaly detection",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--set", action="append", metavar="section.key=value",
                        help="config override, repeatable")
        sp.add_argument("--out", help="output directory (or $PRIORAD_OUT)")

    sp = sub.add_parser("synth", help="write a synthetic dataset")
    sp.add_argument("--type", default="all",
                    choices=list(ANOMALY_TYPES) + ["all"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--length", type=int, default=4000)
    sp.add_argument("--channels", type=int, default=3)
    common(sp)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("train", help="fit a model and save a checkpoint")
    sp.add_argument("--train-csv", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("score", help="score a test series")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--train-csv", required=True)
    sp.add_argument("--test-csv", required=True)
    sp.add_argument("--labels-csv", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_score)

    sp = sub.add_parser("eval", help="point-adjust and report metrics")
    sp.add_argument("--scores-csv", required=True)
    sp.add_argument("--labels-csv")
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("ablate", help="run an ablation axis on synthetic data")
    sp.add_argument("--axis", required=True)
    sp.add_argument("--values", nargs="+", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--length", type=int, default=2000)
    sp.add_argument("--channels", type=int, default=3)
    common(sp)
    sp.set_defaults(fn=cmd_ablate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
