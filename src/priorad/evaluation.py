"""Point-adjusted metrics, ablation runner, report formatting."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import (SyntheticSpec, StandardizerStats, standardize,
                   split_train_val, synth_generate, write_csv)
from .model import ModelConfig
from .scoring import ScoringConfig, detect, point_adjust
from .training import TrainConfig, train

# ablation axis -> the (config, field) its values set
ABLATION_AXES = {"phase_sync": ("model", "prior_mode"),
                 "enc_layers": ("model", "num_layers"),
                 "model_dim": ("model", "model_dim"),
                 "num_heads": ("model", "num_heads"),
                 "batch_size": ("train", "batch_size"),
                 "epochs": ("train", "max_epochs")}


@dataclass
class EvalReport:
    accuracy: float   # percent
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    flagged: bool  # set when precision degenerated to 0/0


def f1_from_pr(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (inputs and output in percent)."""
    if precision + recall <= 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def compute_metrics(y_hat, y_true) -> EvalReport:
    """Binary metrics in percent; positive class is the anomaly."""
    y_hat = np.asarray(y_hat, dtype=bool)
    y_true = np.asarray(y_true, dtype=bool)
    if y_hat.shape != y_true.shape:
        raise ad.ContractError(
            f"length mismatch: predictions {y_hat.shape}, labels {y_true.shape}"
        )
    tp = int(np.sum(y_hat & y_true))
    fp = int(np.sum(y_hat & ~y_true))
    tn = int(np.sum(~y_hat & ~y_true))
    fn = int(np.sum(~y_hat & y_true))
    flagged = (tp + fp) == 0
    precision = 0.0 if flagged else 100.0 * tp / (tp + fp)
    recall = 100.0 * tp / (tp + fn) if (tp + fn) > 0 else 0.0
    accuracy = 100.0 * (tp + tn) / max(len(y_true), 1)
    return EvalReport(accuracy, precision, recall,
                      f1_from_pr(precision, recall),
                      tp, fp, tn, fn, flagged)


# ---------------------------------------------------------------------------
# Ablation runner
# ---------------------------------------------------------------------------


def benchmark_configs(seed: int = 0, prior_mode: str = "full",
                      epochs: int = 10):
    """Desk-scale configuration for the synthetic benchmark suite.

    The prior pathway is trained by the pull-towards-series pass only
    (series_ascent off): the ascent term destabilizes at this scale and
    starves the reconstruction signal.
    """
    model_cfg = ModelConfig(window_length=25, channels=3, model_dim=32,
                            num_layers=1, num_heads=2, feedforward_dim=64,
                            seed=seed, prior_mode=prior_mode)
    train_cfg = TrainConfig(k=3.0, series_ascent=False, max_epochs=epochs,
                            patience=epochs, batch_size=128,
                            learning_rate=3e-3)
    score_cfg = ScoringConfig(temperature=10.0, anomaly_ratio=0.25,
                              window_length=model_cfg.window_length,
                              batch_size=128)
    return model_cfg, train_cfg, score_cfg


def run_synthetic_pipeline(spec: SyntheticSpec, model_cfg: ModelConfig,
                           train_cfg: TrainConfig, score_cfg: ScoringConfig):
    """Generate, train, score, point-adjust, and evaluate one variant.
    Returns the test series' Scores and their point-adjusted EvalReport."""
    raw_train, raw_test, labels = synth_generate(spec)
    stats = StandardizerStats.fit(raw_train)
    z_train = standardize(raw_train, stats)
    z_test = standardize(raw_test, stats)
    ckpt = train(z_train, model_cfg, train_cfg)
    fit_part, thresh_part = split_train_val(
        z_train, train_cfg.val_fraction, min_length=model_cfg.window_length
    )
    scores = detect(ckpt.model, fit_part, thresh_part, z_test, score_cfg)
    return scores, compute_metrics(point_adjust(scores.y_hat, labels), labels)


def run_ablation(axis: str, values: list, synth_spec: SyntheticSpec,
                 model_cfg: ModelConfig, train_cfg: TrainConfig,
                 score_cfg: ScoringConfig, csv_path):
    """Train and evaluate one variant per value of ``axis`` (a key of
    ABLATION_AXES) and write them to ``csv_path``; failures are recorded
    per cell and the run continues. Returns one (value, EvalReport | error
    str) pair per given value, in order: values that compare equal, such
    as 1 and True or a repeated value, keep a cell and a row each."""
    if axis not in ABLATION_AXES:
        raise ValueError(f"unknown ablation axis {axis!r}")
    if not values:
        raise ValueError("ablation values must be non-empty")
    section, name = ABLATION_AXES[axis]
    results = []
    for value in values:
        try:  # the value passes the field's checks, as a --set of it would
            cfgs = {"model": model_cfg, "train": train_cfg}
            cfgs[section] = dataclasses.replace(cfgs[section], **{name: value})
            rep = run_synthetic_pipeline(synth_spec, cfgs["model"],
                                         cfgs["train"], score_cfg)[1]
        except Exception as exc:  # record and continue
            rep = f"error: {exc}"
        results.append((value, rep))
    metrics = ("accuracy", "precision", "recall", "f1")
    write_csv(csv_path, ([axis, value, *(f"{getattr(rep, m):.4f}"
                                         for m in metrics), "ok"]
                         if isinstance(rep, EvalReport)
                         else [axis, value, *[""] * len(metrics), rep]
                         for value, rep in results),
              header=["axis", "value", *metrics, "status"])
    return results


def format_report_table(rows) -> str:
    """Aligned text table of (label, EvalReport | error str) pairs."""
    lines = [f"{'variant':<18} {'acc':>8} {'prec':>8} {'rec':>8} {'f1':>8}"]
    for label, rep in rows:
        if isinstance(rep, EvalReport):
            lines.append(f"{str(label):<18} {rep.accuracy:>8.2f} "
                         f"{rep.precision:>8.2f} {rep.recall:>8.2f} "
                         f"{rep.f1:>8.2f}")
        else:
            lines.append(f"{str(label):<18} {rep}")
    return "\n".join(lines)
