"""The three benchmark workloads.

Each workload has a ``setup(seed, workdir)`` that builds its inputs from the
seed alone, and a ``job(state)`` that does the measured work once and
returns a ``JobResult``. The benchmark repeats the job with the same seed,
so every job of a run must give bitwise the same quality figures.

All calls into priorad go through module attributes (``training.train``,
``scoring.detect`` ...) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from priorad import cli, data, evaluation, model, scoring, training
from priorad.model import ModelConfig
from priorad.training import TrainConfig

# Desk jobs train for 2 epochs, not the 10 of the acceptance run, so that
# two whole jobs fit in one run; the per-step cost is the same.
DESK_EPOCHS = 2
DESK_LENGTH = 4000
# 524 points split 419/105: 320 training windows (10 full batches of 32)
# and a validation tail just longer than one 100-point window.
PAPER_LENGTH = 524
PAPER_BATCH = 32
LONG_TRAIN_LENGTH = 4000
LONG_TEST_LENGTH = 20000
LONG_CKPT_EPOCHS = 2


@dataclass
class JobResult:
    phases: dict                       # phase name -> seconds
    quality: dict                      # figures that must repeat bitwise
    checks: dict = field(default_factory=dict)   # check name -> passed
    train_windows: int = 0
    test_points: int = 0


def _f1s(y_hat, labels) -> dict:
    adjusted = scoring.point_adjust(y_hat, labels)
    return {"pa_f1": evaluation.compute_metrics(adjusted, labels).f1,
            "pw_f1": evaluation.compute_metrics(y_hat, labels).f1}


def _score_checks(scores, test_len: int) -> dict:
    streams = (scores.r, scores.delta, scores.w, scores.e, scores.e_norm,
               scores.d_norm, scores.f)
    return {
        "score streams finite": all(np.isfinite(s).all() for s in streams),
        "one label per test point": len(scores.y_hat) == test_len,
        "threshold finite": scores.threshold is not None
                            and math.isfinite(scores.threshold),
    }


def _timed(phases: dict, name: str, fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    phases[name] = perf_counter() - t0
    return out


def _train_windows(fit, model_cfg, train_cfg) -> int:
    """Windows `train` steps through: every training window, every epoch."""
    return (len(fit) - model_cfg.window_length + 1) * train_cfg.max_epochs


def _synth(seed: int, length: int):
    spec = data.default_synthetic_spec(seed=seed, length=length, channels=3)
    return data.synth_generate(spec)


# ---------------------------------------------------------------------------
# desk_pipeline: benchmark_configs, train -> detect -> point-adjust -> F1
# ---------------------------------------------------------------------------


def desk_setup(seed: int, workdir):
    raw_train, raw_test, labels = _synth(seed, DESK_LENGTH)
    stats = data.StandardizerStats.fit(raw_train)
    z_train = data.standardize(raw_train, stats)
    z_test = data.standardize(raw_test, stats)
    model_cfg, train_cfg, score_cfg = evaluation.benchmark_configs(
        seed=seed, epochs=DESK_EPOCHS)
    fit, thresh = data.split_train_val(z_train, train_cfg.val_fraction,
                                       min_length=model_cfg.window_length)
    return dict(z_train=z_train, z_test=z_test, labels=labels, fit=fit,
                thresh=thresh, model_cfg=model_cfg, train_cfg=train_cfg,
                score_cfg=score_cfg,
                train_windows=_train_windows(fit, model_cfg, train_cfg))


def desk_job(s) -> JobResult:
    phases = {}
    ckpt = _timed(phases, "train", training.train, s["z_train"],
                  s["model_cfg"], s["train_cfg"])
    scores = _timed(phases, "detect", scoring.detect, ckpt.model, s["fit"],
                    s["thresh"], s["z_test"], s["score_cfg"])
    quality = _timed(phases, "evaluate", _f1s, scores.y_hat, s["labels"])
    quality["val_recon"] = ckpt.best_val_recon
    return JobResult(phases, quality,
                     checks=_score_checks(scores, len(s["z_test"])),
                     train_windows=s["train_windows"],
                     test_points=len(s["z_test"]))


# ---------------------------------------------------------------------------
# paper_shape_train: ModelConfig/TrainConfig defaults, B=32, ascent on
# ---------------------------------------------------------------------------


def paper_setup(seed: int, workdir):
    raw_train, _, _ = _synth(seed, PAPER_LENGTH)
    stats = data.StandardizerStats.fit(raw_train)
    z_train = data.standardize(raw_train, stats)
    model_cfg = ModelConfig(channels=3, seed=seed)
    train_cfg = TrainConfig(batch_size=PAPER_BATCH, max_epochs=1)
    fit, _ = data.split_train_val(z_train, train_cfg.val_fraction,
                                  min_length=model_cfg.window_length)
    return dict(z_train=z_train, model_cfg=model_cfg, train_cfg=train_cfg,
                train_windows=_train_windows(fit, model_cfg, train_cfg))


def paper_job(s) -> JobResult:
    phases = {}
    ckpt = _timed(phases, "train", training.train, s["z_train"],
                  s["model_cfg"], s["train_cfg"])
    return JobResult(phases, {"val_recon": ckpt.best_val_recon},
                     train_windows=s["train_windows"])


# ---------------------------------------------------------------------------
# long_score: a desk checkpoint from set-up scores a 20000-point series,
# once through scoring.detect and once through the `score` command
# ---------------------------------------------------------------------------


def long_setup(seed: int, workdir):
    raw_train, raw_test, labels = _synth(seed, LONG_TEST_LENGTH)
    raw_train = raw_train[:LONG_TRAIN_LENGTH]
    stats = data.StandardizerStats.fit(raw_train)
    z_train = data.standardize(raw_train, stats)
    z_test = data.standardize(raw_test, stats)
    model_cfg, train_cfg, score_cfg = evaluation.benchmark_configs(
        seed=seed, epochs=LONG_CKPT_EPOCHS)
    ckpt_path = workdir / "checkpoint.npz"
    training.save_checkpoint(training.train(z_train, model_cfg, train_cfg),
                             ckpt_path)
    np.savez(workdir / "standardizer.npz", mean=stats.mean, std=stats.std)
    paths = {}
    for name, matrix in (("train", raw_train), ("test", raw_test),
                         ("labels", labels.astype(float))):
        paths[name] = workdir / f"{name}.csv"
        data.write_csv(paths[name], matrix)
    fit, thresh = data.split_train_val(z_train, train_cfg.val_fraction,
                                       min_length=model_cfg.window_length)
    argv = ["score", "--checkpoint", str(ckpt_path),
            "--train-csv", str(paths["train"]),
            "--test-csv", str(paths["test"]),
            "--labels-csv", str(paths["labels"]),
            "--out", str(workdir / "score"),
            "--set", f"scoring.temperature={score_cfg.temperature}",
            "--set", f"scoring.anomaly_ratio={score_cfg.anomaly_ratio}",
            "--set", f"scoring.batch_size={score_cfg.batch_size}"]
    return dict(ckpt=training.load_checkpoint(ckpt_path), z_test=z_test,
                labels=labels, fit=fit, thresh=thresh, score_cfg=score_cfg,
                argv=argv, scores_csv=workdir / "score" / "scores.csv")


def _read_scores_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return (np.array([float(r["f"]) for r in rows]),
            np.array([int(r["y_hat"]) for r in rows], dtype=bool))


def long_job(s) -> JobResult:
    phases = {}
    scores = _timed(phases, "detect", scoring.detect, s["ckpt"].model,
                    s["fit"], s["thresh"], s["z_test"], s["score_cfg"])
    quality = _f1s(scores.y_hat, s["labels"])
    quality["val_recon"] = s["ckpt"].best_val_recon
    s["scores_csv"].unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = _timed(phases, "score", cli.main, s["argv"])
    checks = _score_checks(scores, len(s["z_test"]))
    checks["score command exits 0"] = rc == cli.EXIT_OK
    f_csv, y_csv = (_read_scores_csv(s["scores_csv"])
                    if s["scores_csv"].exists() else (np.array([]), None))
    checks["scores.csv has one row per test point"] = \
        len(f_csv) == len(s["z_test"])
    checks["scores.csv equals detect bitwise"] = (
        y_csv is not None and np.array_equal(f_csv, scores.f)
        and np.array_equal(y_csv, scores.y_hat))
    return JobResult(phases, quality, checks=checks,
                     test_points=len(s["z_test"]))


def losses_finite(breakdown) -> bool:
    return all(math.isfinite(getattr(breakdown, f))
               for f in training.LossBreakdown.FIELDS)


def recon_finite(out) -> bool:
    return bool(np.isfinite(out.recon.data).all())


@dataclass(frozen=True)
class Workload:
    setup: object
    job: object
    op_owner: object      # the timed unit of work is op_owner.op_attr
    op_attr: str
    op_check: object      # result of one op -> passed
    op_name: str
    # The highest percentile with at least ten ops beyond it in a run of
    # two jobs: 100 steps, 20 steps and about 850 forwards. It is fixed so
    # that runs with more jobs report the same percentile.
    tail_percentile: int


STEP = (training, "minmax_step", losses_finite, "two-pass training steps")
WORKLOADS = {
    "desk_pipeline": Workload(desk_setup, desk_job, *STEP, 90),
    "paper_shape_train": Workload(paper_setup, paper_job, *STEP, 50),
    "long_score": Workload(long_setup, long_job, model.PiModel, "forward",
                           recon_finite, "batch scoring forwards", 98),
}
