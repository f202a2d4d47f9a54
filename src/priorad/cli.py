"""Command-line entry points: train, score, eval, synth, ablate.

``train``, ``score`` and ``ablate`` take configuration from an optional
JSON file (--config) with sections "model", "train", "scoring", plus dotted
per-key overrides, e.g. ``--set model.num_heads=8``. Each applies only the
sections it reads (READS); the keys in DERIVED take their value from the
data or the model, never from a config. Every command writes into --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .data import (ParseError, StandardizerStats, _read_matrix,
                   default_synthetic_spec, read_labels, standardize,
                   split_min_rows, split_train_val, synth_generate, write_csv,
                   ANOMALY_TYPES)
from .evaluation import (ABLATION_AXES, compute_metrics, format_report_table,
                         run_ablation)
from .model import ModelConfig
from .scoring import (ScoringConfig, detect, point_adjust, read_score_csv,
                      write_score_csv)
from .training import (TrainConfig, load_checkpoint, min_train_rows,
                       save_checkpoint, train)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

SECTIONS = ("model", "train", "scoring")
# the sections each command reads, and why it reads no other
READS = {
    "train": (("model", "train"), "train reads no scoring config"),
    "score": (("scoring",), "the checkpoint holds the model and train "
                            "configs"),
    "ablate": (SECTIONS, ""),
}
# keys no config may set, and where their value comes from
DERIVED = {
    "model.channels": "the data: the columns of --train-csv on train, "
                      "--channels on ablate",
    "scoring.window_length": "model.window_length (on score, the "
                             "checkpoint's)",
}


class UsageError(ValueError):
    pass


def _coerce(value: str):
    try:
        return json.loads(value)
    except ValueError:  # JSONDecodeError, or an int over Python's digit limit
        return value


def load_run_config(config_path, overrides, command) -> dict:
    """The sections ``command`` reads, as {section: {key: value}}: the
    --config file's values, updated by the ``section.key=value`` overrides.

    An unknown section, a key in DERIVED, or an override of a section the
    command does not read is a UsageError.
    """
    reads, why = READS[command]
    sections = {name: {} for name in SECTIONS}
    if config_path:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except ValueError as exc:  # not JSON, or not readable text
            raise UsageError(f"{config_path}: {exc}") from None
        if (not isinstance(loaded, dict) or set(loaded) - set(SECTIONS)
                or not all(isinstance(v, dict) for v in loaded.values())):
            raise UsageError(f"{config_path}: a config file is a JSON object "
                             f"of sections {SECTIONS}, each an object")
        for name, values in loaded.items():
            sections[name].update(values)
    overridden = []
    for override in overrides or []:
        dotted, eq, value = override.partition("=")
        dotted = dotted.lstrip("-")
        if not eq or "." not in dotted:
            raise UsageError(f"override {override!r} must look like "
                             f"section.key=value")
        section, key = dotted.split(".", 1)
        if section not in sections:
            raise UsageError(f"unknown config section {section!r}")
        sections[section][key] = _coerce(value)
        overridden.append(dotted)
    for dotted, source in DERIVED.items():
        section, key = dotted.split(".")
        if key in sections[section]:
            raise UsageError(f"{dotted} cannot be set: it comes from {source}")
    for dotted in overridden:
        if dotted.split(".", 1)[0] not in reads:
            raise UsageError(f"{command} cannot set {dotted!r}: {why}")
    return {name: sections[name] for name in reads}


def build_config(cls, values: dict, **derived):
    """``cls(**values, **derived)``, with an invalid value a UsageError."""
    try:
        return cls(**values, **derived)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _synthetic_spec(args, kinds):
    """``default_synthetic_spec`` of --seed, --length and --channels; a size
    it rejects is a UsageError naming the option."""
    try:
        return default_synthetic_spec(args.seed, kinds, args.length,
                                      args.channels)
    except ValueError as exc:  # its message opens with the field's name
        raise UsageError(f"--{exc}") from None


def cmd_synth(args) -> int:
    spec = _synthetic_spec(args, ANOMALY_TYPES if args.type == "all"
                           else (args.type,))
    train_s, test_s, labels = synth_generate(spec)
    out = _out_dir(args)
    write_csv(out / "train.csv", train_s)
    write_csv(out / "test.csv", test_s)
    write_csv(out / "labels.csv", labels.astype(float))
    with open(out / "spec.json", "w") as fh:
        json.dump(dataclasses.asdict(spec), fh, indent=2, sort_keys=True)
    print(f"wrote synthetic dataset to {out}")
    return EXIT_OK


def _need_rows(path, matrix, need: int, what: str):
    """ParseError naming ``path`` when ``matrix`` has fewer than the
    ``need`` rows that ``what`` takes."""
    if len(matrix) < need:
        raise ParseError(f"{path} has {len(matrix)} rows, but {what} needs "
                         f"at least {need}")


def cmd_train(args) -> int:
    sections = load_run_config(args.config, args.set, "train")
    train_cfg = build_config(TrainConfig, sections["train"])
    train_raw = _read_matrix(args.train_csv)
    model_cfg = build_config(ModelConfig, sections["model"],
                             channels=train_raw.shape[1])
    L, vf = model_cfg.window_length, train_cfg.val_fraction
    _need_rows(args.train_csv, train_raw, min_train_rows(model_cfg, train_cfg),
               f"training with val_fraction {vf} and window length {L}")
    z_train = standardize(train_raw, StandardizerStats.fit(train_raw))
    out = _out_dir(args)
    ckpt = train(z_train, model_cfg, train_cfg,
                 log_path=out / "training_log.csv")
    save_checkpoint(ckpt, out / "checkpoint.npz")
    print(f"trained {ckpt.epoch} best epoch, "
          f"val recon {ckpt.best_val_recon:.6f}; wrote {out}/checkpoint.npz")
    return EXIT_OK


def cmd_score(args) -> int:
    # the model config and the calibration split come from the checkpoint;
    # --train-csv is the calibration data and the standardizer's source
    sections = load_run_config(args.config, args.set, "score")
    ckpt = load_checkpoint(args.checkpoint)
    L = ckpt.model.cfg.window_length
    score_cfg = build_config(ScoringConfig, sections["scoring"],
                             window_length=L)
    channels = ckpt.model.cfg.channels

    def read(path, need: int, what: str):
        matrix = _read_matrix(path)
        if matrix.shape[1] != channels:
            raise ParseError(f"{path} has {matrix.shape[1]} columns, but "
                             f"checkpoint {args.checkpoint} has {channels} "
                             f"channels")
        _need_rows(path, matrix, need, f"{what} with window length {L}")
        return matrix

    vf = ckpt.train_cfg.val_fraction
    train_raw = read(args.train_csv, split_min_rows(vf, L, L),
                     f"calibrating on the checkpoint's val_fraction {vf} "
                     f"split")
    test_raw = read(args.test_csv, L, "scoring")
    labels = (None if args.labels_csv is None
              else read_labels(args.labels_csv, len(test_raw), args.test_csv))
    stats = StandardizerStats.fit(train_raw)
    fit_part, thresh_part = split_train_val(standardize(train_raw, stats),
                                            vf, min_length=L)
    scores = detect(ckpt.model, fit_part, thresh_part,
                    standardize(test_raw, stats), score_cfg)
    out = _out_dir(args)
    write_score_csv(out / "scores.csv", scores, y_true=labels)
    print(f"threshold {scores.threshold:.6f}; wrote {out}/scores.csv")
    return EXIT_OK


def cmd_eval(args) -> int:
    y_hat, labels = read_score_csv(args.scores_csv)
    if args.labels_csv:
        labels = read_labels(args.labels_csv, len(y_hat), args.scores_csv)
    elif labels is None:
        raise UsageError("eval needs --labels-csv or a y_true column in "
                         "--scores-csv")
    adjusted = point_adjust(y_hat, labels)
    report = compute_metrics(adjusted, labels)
    out = _out_dir(args)
    with open(out / "report.json", "w") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
    print(format_report_table([("point-adjusted", report)]))
    return EXIT_OK


def cmd_ablate(args) -> int:
    sections = load_run_config(args.config, args.set, "ablate")
    model_cfg = build_config(ModelConfig, sections["model"],
                             channels=args.channels)
    train_cfg = build_config(TrainConfig, sections["train"])
    score_cfg = build_config(ScoringConfig, sections["scoring"],
                             window_length=model_cfg.window_length)
    synth_spec = _synthetic_spec(args, ANOMALY_TYPES)
    # no axis sets window_length or val_fraction: one check covers each cell
    need, L = min_train_rows(model_cfg, train_cfg), model_cfg.window_length
    if args.length < need:
        raise UsageError(f"--length must be >= {need} for training with "
                         f"val_fraction {train_cfg.val_fraction} and window "
                         f"length {L}, got {args.length}")
    out = _out_dir(args)
    results = run_ablation(args.axis, [_coerce(v) for v in args.values],
                           synth_spec, model_cfg, train_cfg, score_cfg,
                           out / "ablation.csv")
    print(format_report_table(results))
    failed = [v for v, rep in results if isinstance(rep, str)]
    if failed:
        print(f"error: ablation cells failed: {failed}; see "
              f"{out}/ablation.csv", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="priorad",
        description="Prior-guided dual-attention anomaly detection",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_config(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--set", action="append", metavar="section.key=value",
                        help="config override, repeatable")

    def add_out(sp):
        sp.add_argument("--out", default=".",
                        help="output directory (default: the working "
                             "directory)")

    sp = sub.add_parser("synth", help="write a synthetic dataset")
    sp.add_argument("--type", default="all",
                    choices=list(ANOMALY_TYPES) + ["all"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--length", type=int, default=4000)
    sp.add_argument("--channels", type=int, default=3)
    add_out(sp)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("train", help="fit a model and save a checkpoint")
    sp.add_argument("--train-csv", required=True)
    add_config(sp)
    add_out(sp)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("score", help="score a test series")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--train-csv", required=True)
    sp.add_argument("--test-csv", required=True)
    sp.add_argument("--labels-csv",
                    help="test labels, written as the y_true column")
    add_config(sp)
    add_out(sp)
    sp.set_defaults(fn=cmd_score)

    sp = sub.add_parser("eval", help="point-adjust and report metrics")
    sp.add_argument("--scores-csv", required=True)
    sp.add_argument("--labels-csv")
    add_out(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("ablate", help="run an ablation axis on synthetic data")
    sp.add_argument("--axis", required=True, choices=list(ABLATION_AXES))
    sp.add_argument("--values", nargs="+", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--length", type=int, default=2000)
    sp.add_argument("--channels", type=int, default=3)
    add_config(sp)
    add_out(sp)
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
