"""Two-pass min-max training with stop-gradient alternation.

Each step runs two sequential passes, each a forward, one backward and one
Adam update. A pass is a pair of coefficients (k_s, k_p) and descends

    recon + k_s * symKL(S || sg P) + k_p * symKL(P || sg S) + R

where sg is a stop-gradient and R holds smoothness, Hurst distillation,
and a small L2 stabilizer on the raw prior scores. A term whose
coefficient is zero is left out of the loss (its value is still logged).

    series_ascent   pass 1 (k_s, k_p)   pass 2 (k_s, k_p)
    on              (-k, 0)             (0, +k)
    off             (0, 0)              (0, +k)

Pass 1 pushes the series attention away from the frozen prior (or, with
series_ascent off, is a pure reconstruction update); pass 2 pulls the
prior towards the frozen series.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Tape, OptimizerState
from .model import (HURST_MIN_BLOCK, ConfigError, PiModel, ModelConfig,
                    ReconOutput, check_fields, estimate_hurst_rs)
from .data import split_min_rows, split_train_val, windows, write_csv

FORMAT_VERSION = 2  # checkpoint layout written by save_checkpoint
# windows per validation forward; fixed, because the batch sets the order in
# which the validation loss is summed
VAL_BATCH = 256


class DivergedError(RuntimeError):
    """Raised when a loss term becomes non-finite during a step."""


@dataclass
class TrainConfig:
    k: float = 3.0               # series-prior coupling weight
    lambda_reg: float = 0.1      # smoothness weight
    lambda_hurst: float = 0.01   # Hurst distillation weight
    lambda_score: float = 1e-4   # L2 stabilizer on raw prior scores
    learning_rate: float = 1e-4
    batch_size: int = 256
    max_epochs: int = 5
    patience: int = 3
    clip_norm: float = 5.0
    val_fraction: float = 0.2
    series_ascent: bool = True   # keep the -k*symKL term in pass 1

    def __post_init__(self):
        check_fields(self, {"batch_size": 1, "max_epochs": 1, "patience": 1,
                            "k": 0, "lambda_reg": 0, "lambda_hurst": 0,
                            "lambda_score": 0})
        for name in ("learning_rate", "clip_norm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, "
                                 f"got {getattr(self, name)}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), "
                             f"got {self.val_fraction}")


@dataclass
class LossBreakdown:
    recon: float
    sym_kl: float
    smooth: float
    hurst: float
    score_l2: float
    total_L1: float
    total_L2: float

    FIELDS = ("recon", "sym_kl", "smooth", "hurst", "score_l2",
              "total_L1", "total_L2")


@dataclass
class Checkpoint:
    model: PiModel
    train_cfg: TrainConfig
    epoch: int
    best_val_recon: float
    hurst_target: float


# ---------------------------------------------------------------------------
# Loss terms
# ---------------------------------------------------------------------------


def loss_reconstruction(x: Tensor, recon: Tensor) -> Tensor:
    """MSE averaged over time and channels (and batch if present)."""
    if x.shape != recon.shape:
        raise ad.ShapeError(
            f"reconstruction shape {recon.shape} != input {x.shape}"
        )
    return ad.mean_square(x - recon)


def loss_sym_kl(attention, frozen: str) -> Tensor:
    """Symmetric series-prior KL, summed over layers, heads, and rows, from
    the KL rows of each layer's ``ad.dual_attention``.

    ``frozen`` selects the stop-gradiented side: "prior" for the series
    update pass takes the rows whose gradient reaches S only, "series" for
    the prior update pass those whose gradient reaches P only. Either way
    the value is the same. Leading (batch) axes are averaged.
    """
    total = None
    for att in attention:
        if frozen == "prior":
            per_row = att.kl_series  # [..., H, L]
        elif frozen == "series":
            per_row = att.kl_prior
        else:
            raise ValueError(f"unknown frozen side {frozen!r}")
        summed = ad.tmean(ad.tsum(per_row, axis=(-2, -1)))
        total = summed if total is None else total + summed
    return total


def loss_smoothness(fields_per_layer) -> Tensor:
    """First-difference penalty on H and tau, summed over fields and layers."""
    total = None
    for f in fields_per_layer:
        for theta in (f.hurst, f.stiffness):
            L = theta.shape[-1]
            if L < 2:
                raise ad.ContractError("smoothness needs window length >= 2")
            diff = theta[..., 1:] - theta[..., :-1]
            term = ad.tmean(ad.tsum(ad.square(diff), axis=-1)
                            * (1.0 / (L - 1)))
            total = term if total is None else total + term
    return total


def loss_hurst_distill(fields_per_layer, target: float) -> Tensor:
    """Mean squared pull of the Hurst field towards the dataset target."""
    if not (0.0 < target < 1.0):
        raise ad.ContractError(f"Hurst target {target} outside (0, 1)")
    total = None
    for f in fields_per_layer:
        term = ad.mean_square(f.hurst - target)
        total = term if total is None else total + term
    return total


def loss_prior_score_l2(prior_scores) -> Tensor:
    """Mean squared magnitude of the unnormalized prior scores, summed over
    layers: each layer's mean is ``ReconOutput.prior_scores``' entry, which
    the layer's ``ad.dual_attention`` computes beside P."""
    total = None
    for term in prior_scores:
        total = term if total is None else total + term
    return total


def _regularizer(out: ReconOutput, cfg: TrainConfig, hurst_target: float):
    smooth = loss_smoothness(out.fields)
    hurst = loss_hurst_distill(out.fields, hurst_target)
    score = loss_prior_score_l2(out.prior_scores)
    reg = (cfg.lambda_reg * smooth + cfg.lambda_hurst * hurst
           + cfg.lambda_score * score)
    return reg, smooth, hurst, score


def _check_finite(**terms):
    for name, value in terms.items():
        if not np.isfinite(value):
            raise DivergedError(f"loss term {name!r} is non-finite: {value}")


# ---------------------------------------------------------------------------
# Steps and loop
# ---------------------------------------------------------------------------


def minmax_step(batch: np.ndarray, model: PiModel, opt: OptimizerState,
                cfg: TrainConfig, hurst_target: float) -> LossBreakdown:
    """One two-pass update on a batch of standardized windows [B, L, C].

    The loss terms are logged from pass 1; total_L2 is pass 2's loss.
    """
    x = Tensor(batch)
    passes = ((-cfg.k if cfg.series_ascent else 0.0, 0.0), (0.0, cfg.k))
    logged, totals = None, []
    for k_s, k_p in passes:
        opt.zero_grad()
        with Tape() as tape:
            out = model.forward(x)
            recon = loss_reconstruction(x, out.recon)
            total, sym = recon, None
            for coef, frozen in ((k_s, "prior"), (k_p, "series")):
                if coef:
                    sym = loss_sym_kl(out.attention, frozen=frozen)
                    total = total + coef * sym
            reg, smooth, hurst, score = _regularizer(out, cfg, hurst_target)
            total = total + reg
        if sym is None:  # off the tape: logged, never differentiated
            sym = loss_sym_kl(out.attention, frozen="prior")
        terms = dict(recon=recon.item(), sym_kl=sym.item(),
                     smooth=smooth.item(), hurst=hurst.item(),
                     score_l2=score.item())
        # read before the walk, which drops every value the tape recorded
        totals.append(total.item())
        _check_finite(**terms)
        tape.backward(total)
        opt.step()
        logged = logged or terms
    return LossBreakdown(**logged, total_L1=totals[0], total_L2=totals[1])


def validation_recon_loss(model: PiModel, val_windows: np.ndarray) -> float:
    total, count = 0.0, 0
    for i in range(0, len(val_windows), VAL_BATCH):
        b = np.ascontiguousarray(val_windows[i : i + VAL_BATCH])
        # only the reconstruction outlives the forward
        err = (model.forward(Tensor(b)).recon.data - b) ** 2
        total += err.mean(axis=(1, 2)).sum()
        count += len(b)
    return total / max(count, 1)


def dataset_hurst_target(train_series: np.ndarray) -> float:
    """Mean of per-channel R/S estimates, clamped inside (0, 1)."""
    est = [estimate_hurst_rs(train_series[:, c])[0]
           for c in range(train_series.shape[1])]
    return float(np.clip(np.mean(est), 0.01, 0.99))


def min_train_rows(model_cfg: ModelConfig, cfg: TrainConfig) -> int:
    """The fewest rows ``train`` splits: both sides take a window, and the
    fit side also feeds the Hurst estimate, which takes 4 blocks."""
    L = model_cfg.window_length
    return split_min_rows(cfg.val_fraction, max(L, 4 * HURST_MIN_BLOCK), L)


def train(train_series: np.ndarray, model_cfg: ModelConfig,
          cfg: TrainConfig, log_path=None) -> Checkpoint:
    """Fit on a standardized series; early stop on validation recon loss.

    Validation is carved chronologically from the tail of the series.
    Returns the checkpoint with the best validation reconstruction loss.
    """
    if len(train_series) == 0:
        raise ad.ContractError("empty training series")
    L = model_cfg.window_length
    tr, val = split_train_val(train_series, cfg.val_fraction, min_length=L)
    train_w = windows(tr, L)
    val_w = windows(val, L)

    hurst_target = dataset_hurst_target(tr)
    model = PiModel(model_cfg)
    opt = OptimizerState(model.parameters(), lr=cfg.learning_rate,
                         clip_norm=cfg.clip_norm)

    rng = np.random.default_rng(model_cfg.seed)
    log_rows = []
    # patience counts epochs without improvement over the best *trained*
    # epoch; the untrained initialization is not a baseline
    best = Checkpoint(model, cfg, epoch=0, best_val_recon=np.inf,
                      hurst_target=hurst_target)
    best_params = {k: v.data.copy() for k, v in model.params.items()}
    stale = 0
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_w))
        for i in range(0, len(order), cfg.batch_size):
            # fancy indexing gathers a contiguous copy out of the view
            batch = train_w[order[i : i + cfg.batch_size]]
            bd = minmax_step(batch, model, opt, cfg, hurst_target)
            step += 1
            log_rows.append([step] + [getattr(bd, f)
                                      for f in LossBreakdown.FIELDS])
        val_loss = validation_recon_loss(model, val_w)
        if val_loss < best.best_val_recon:
            best.best_val_recon = val_loss
            best.epoch = epoch
            best_params = {k: v.data.copy() for k, v in model.params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    for k, v in best_params.items():
        model.params[k].data = v
    if not np.isfinite(best.best_val_recon):
        best.best_val_recon = validation_recon_loss(model, val_w)
    if log_path is not None:
        write_csv(log_path, log_rows, header=["step", *LossBreakdown.FIELDS])
    return best


def save_checkpoint(ckpt: Checkpoint, path):
    """Write an .npz: a JSON ``__meta__`` record (format_version, the
    "model" and "train" configs, epoch, best_val_recon, hurst_target) and
    one ``param::<name>`` array per model parameter."""
    meta = {"format_version": FORMAT_VERSION,
            "model": dataclasses.asdict(ckpt.model.cfg),
            "train": dataclasses.asdict(ckpt.train_cfg),
            "epoch": ckpt.epoch,
            "best_val_recon": ckpt.best_val_recon,
            "hurst_target": ckpt.hurst_target}
    params = {f"param::{k}": v.data for k, v in ckpt.model.params.items()}
    np.savez(path, __meta__=np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8), **params)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``.

    Raises ConfigError naming the file if it is not an .npz archive that
    reads whole, its format version is not FORMAT_VERSION, a config or
    field is missing or invalid, or the stored parameters do not match the
    model's names and shapes or are not finite real float arrays (the
    error names the parameter).
    """
    def fail(problem):
        return ConfigError(f"checkpoint {path}: {problem}")

    try:
        # np.load leaves a path it opened open when the archive is broken
        with open(path, "rb") as fh, np.load(fh) as z:
            stored = {k: z[k] for k in z.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise fail(f"unreadable .npz archive: {exc!r}") from None
    try:
        meta = json.loads(bytes(stored.pop("__meta__")).decode())
    except (KeyError, ValueError) as exc:
        raise fail(f"unreadable __meta__ record: {exc!r}") from None
    if not isinstance(meta, dict):
        raise fail(f"unreadable __meta__ record: a "
                   f"{type(meta).__name__}, not an object")
    stored = {k[len("param::"):]: v for k, v in stored.items()
              if k.startswith("param::")}
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise fail(f"format_version {version!r} is not supported "
                   f"(expected {FORMAT_VERSION})")
    try:
        model = PiModel(ModelConfig(**meta["model"]))
        ckpt = Checkpoint(model, TrainConfig(**meta["train"]),
                          epoch=int(meta["epoch"]),
                          best_val_recon=float(meta["best_val_recon"]),
                          hurst_target=float(meta["hurst_target"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise fail(f"invalid metadata: {exc!r}") from None
    for problem, names in (("missing", set(model.params) - set(stored)),
                           ("unknown", set(stored) - set(model.params))):
        if names:
            raise fail(f"{problem} parameters {sorted(names)}")
    for name, value in stored.items():
        if value.shape != model.params[name].shape:
            raise fail(f"parameter {name!r} has shape {value.shape}, the "
                       f"model expects {model.params[name].shape}")
        if value.dtype.kind != "f":
            raise fail(f"parameter {name!r} has dtype {value.dtype}, "
                       f"not a real float dtype")
        if not np.isfinite(value).all():
            raise fail(f"parameter {name!r} holds a non-finite value")
        model.params[name].data = np.array(value, dtype=np.float64)
    return ckpt
