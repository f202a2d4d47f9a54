"""Inference scoring: streaming window scores, fusion, labels.

Per window: reconstruction error r, mismatch Delta (temperature-scaled
symmetric KL averaged over layers and heads), alignment weights w
(softmax of -Delta), and Energy e = w * r. ``window_streams`` forwards the
windows (a view of the series) batch by batch and projects each batch's
streams to the global timeline end-anchored before the next, so scoring
holds O(n * (C + 4)) numbers plus one batch. The streams are robustly
normalized against the training split, fused with a pointwise max, and
thresholded at a percentile of pooled calibration scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import (ParseError, binary_column, read_table, windows,
                   write_csv)
from .model import PiModel, check_fields

EPS_IQR = 1e-8
# scores.csv: one row per global index t; y_true follows when labels are given
SCORE_STREAMS = ("r", "delta", "w", "e", "e_norm", "d_norm", "f")
SCORE_COLUMNS = ("t", *SCORE_STREAMS, "y_hat", "y_true")


@dataclass
class ScoringConfig:
    temperature: float = 10.0
    anomaly_ratio: float = 1.0   # percent
    window_length: int = 100
    batch_size: int = 256

    def __post_init__(self):
        check_fields(self, {"batch_size": 1})
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, "
                             f"got {self.temperature}")
        if not (0.0 < self.anomaly_ratio < 100.0):
            raise ValueError(f"anomaly_ratio must be in (0, 100), "
                             f"got {self.anomaly_ratio}")


@dataclass
class NormStats:
    energy_med: float
    energy_iqr: float
    delta_med: float
    delta_iqr: float
    flagged: bool = False  # set when an IQR had to be floored

    @classmethod
    def fit(cls, energy: np.ndarray, delta: np.ndarray) -> "NormStats":
        e_med, e_iqr = _med_iqr(energy)
        d_med, d_iqr = _med_iqr(delta)
        flagged = e_iqr < EPS_IQR or d_iqr < EPS_IQR
        return cls(e_med, max(e_iqr, EPS_IQR), d_med, max(d_iqr, EPS_IQR),
                   flagged)


def _med_iqr(x: np.ndarray):
    q25, q50, q75 = np.percentile(x, [25.0, 50.0, 75.0])
    return float(q50), float(q75 - q25)


@dataclass
class ScoreSeries:
    r: np.ndarray        # reconstruction error
    delta: np.ndarray    # mismatch
    w: np.ndarray        # alignment weight of the window ending here
    e: np.ndarray        # Energy
    e_norm: np.ndarray
    d_norm: np.ndarray
    f: np.ndarray        # fused score
    y_hat: np.ndarray | None = None
    threshold: float | None = None


# ---------------------------------------------------------------------------
# Window-level operations
# ---------------------------------------------------------------------------


def mismatch_delta(attention, temperature: float) -> np.ndarray:
    """Delta_i = T * mean over layers/heads of symmetric row KL, [..., L],
    from the KL rows of each layer's ``ad.dual_attention``."""
    total = None
    n_mats = 0
    for att in attention:
        kl = att.kl_series.data  # [..., H, L]
        term = kl.sum(axis=-2)
        n_mats += kl.shape[-2]
        total = term if total is None else total + term
    return temperature * total / n_mats


def alignment_weights(delta: np.ndarray) -> np.ndarray:
    """Window-local softmax of -Delta over the last axis."""
    z = -(delta - delta.min(axis=-1, keepdims=True))
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def energy(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    return w * r


def robust_normalize(stream: np.ndarray, med: float, iqr: float
                     ) -> np.ndarray:
    """max(0, (x - med) / IQR); IQR is floored at EPS_IQR upstream."""
    return np.maximum(0.0, (stream - med) / max(iqr, EPS_IQR))


def fuse(e_norm: np.ndarray, d_norm: np.ndarray) -> np.ndarray:
    return np.maximum(e_norm, d_norm)


def threshold_and_label(f_train: np.ndarray, f_thresh: np.ndarray,
                        f_test: np.ndarray, anomaly_ratio: float):
    """Percentile threshold on pooled calibration scores; strict labels."""
    if not (0.0 < anomaly_ratio < 100.0):
        raise ad.ContractError("anomaly_ratio must be in (0, 100)")
    pool = np.concatenate([np.ravel(f_train), np.ravel(f_thresh)])
    if pool.size == 0:
        raise ad.ContractError("empty calibration pool")
    tau = float(np.percentile(pool, 100.0 - anomaly_ratio,
                              method="linear"))
    return tau, f_test > tau


def point_adjust(y_hat: np.ndarray, y_true: np.ndarray) -> np.ndarray:
    """Mark a whole ground-truth segment positive if any point in it is.

    Predictions outside segments are untouched. Idempotent and monotone.
    """
    y_hat = np.asarray(y_hat, dtype=bool)
    y_true = np.asarray(y_true, dtype=bool)
    if y_hat.shape != y_true.shape:
        raise ad.ContractError(
            f"length mismatch: predictions {y_hat.shape}, "
            f"labels {y_true.shape}"
        )
    adjusted = y_hat.copy()
    n = len(y_true)
    i = 0
    while i < n:
        if y_true[i]:
            j = i
            while j < n and y_true[j]:
                j += 1
            if adjusted[i:j].any():
                adjusted[i:j] = True
            i = j
        else:
            i += 1
    return adjusted


# ---------------------------------------------------------------------------
# Series-level pipeline
# ---------------------------------------------------------------------------


def window_streams(model: PiModel, series: np.ndarray, cfg: ScoringConfig):
    """Global-timeline (r, delta, w, e) for one series, one batch at a time.

    Each batch of windows is forwarded, reduced to its per-window streams
    [B, L] and projected end-anchored: index t >= L-1 takes the last
    position of the window ending at t, and earlier indices take the first
    window's interior positions. Only the four length-n streams outlive a
    batch. The alignment weights are window-local, so the batch size does
    not change a bit of the result.
    """
    L = cfg.window_length
    n = len(series)
    wins = windows(series, L)
    streams = tuple(np.empty(n) for _ in range(4))
    for i in range(0, len(wins), cfg.batch_size):
        b = np.ascontiguousarray(wins[i : i + cfg.batch_size])
        out = model.forward(Tensor(b))
        r = ((out.recon.data - b) ** 2).mean(axis=-1)
        delta = mismatch_delta(out.attention, cfg.temperature)
        del out  # the next batch's forward runs with none of this one's
        w = alignment_weights(delta)
        for stream, per_window in zip(streams, (r, delta, w, energy(w, r))):
            if i == 0:
                stream[: L - 1] = per_window[0, : L - 1]
            stream[i + L - 1 : i + L - 1 + len(b)] = per_window[:, L - 1]
    return streams


def fit_norm_stats(streams) -> NormStats:
    """Median/IQR of Energy and mismatch from calibration window_streams."""
    _, delta, _, e = streams
    return NormStats.fit(e, delta)


def normalize_streams(streams, stats: NormStats) -> ScoreSeries:
    """Normalize and fuse one series' ``window_streams`` (no thresholding)."""
    r, delta, w, e = streams
    e_norm = robust_normalize(e, stats.energy_med, stats.energy_iqr)
    d_norm = robust_normalize(delta, stats.delta_med, stats.delta_iqr)
    return ScoreSeries(r, delta, w, e, e_norm, d_norm, fuse(e_norm, d_norm))


def score_series(model: PiModel, series: np.ndarray, cfg: ScoringConfig,
                 stats: NormStats) -> ScoreSeries:
    """Full scoring pipeline on one series (no thresholding)."""
    return normalize_streams(window_streams(model, series, cfg), stats)


def detect(model: PiModel, train_series: np.ndarray,
           thresh_series: np.ndarray, test_series: np.ndarray,
           cfg: ScoringConfig) -> ScoreSeries:
    """Calibrate on train + threshold splits, then score and label test.

    Each split is forwarded once: the train split's streams give both the
    normalization statistics and its calibration scores.
    """
    fit = window_streams(model, train_series, cfg)
    stats = fit_norm_stats(fit)
    f_train = normalize_streams(fit, stats).f
    f_thresh = score_series(model, thresh_series, cfg, stats).f
    scores = score_series(model, test_series, cfg, stats)
    tau, y_hat = threshold_and_label(f_train, f_thresh, scores.f,
                                     cfg.anomaly_ratio)
    scores.threshold = tau
    scores.y_hat = y_hat
    return scores


def write_score_csv(path, scores: ScoreSeries, y_true=None):
    """One row per global index: t, the seven streams, y_hat[, y_true];
    scores that ``detect`` did not label are a ContractError."""
    if scores.y_hat is None:
        raise ad.ContractError("scores without y_hat; detect labels them")
    cols = SCORE_COLUMNS if y_true is not None else SCORE_COLUMNS[:-1]
    labels = () if y_true is None else (map(int, y_true),)
    write_csv(path, zip(range(len(scores.f)),
                        *(getattr(scores, name) for name in SCORE_STREAMS),
                        map(int, scores.y_hat), *labels, strict=True),
              header=cols)


def read_score_csv(path):
    """(y_hat, y_true or None) from a scores.csv.

    The header must name each column, from SCORE_COLUMNS, at most once and
    include y_hat. Raises ParseError naming the file, and the data row and
    column of a y_hat or y_true entry that is not 0 or 1.
    """
    header, matrix = read_table(path)
    if header is None:
        raise ParseError(f"{path}: no header line naming the columns")
    unknown = [c for c in header if c not in SCORE_COLUMNS]
    if unknown or len(set(header)) != len(header) or "y_hat" not in header:
        raise ParseError(f"{path}: columns {header} are not distinct names "
                         f"from {list(SCORE_COLUMNS)} including 'y_hat'")
    y_hat, y_true = (
        binary_column(path, matrix[:, header.index(name)],
                      f"column {name!r}") if name in header else None
        for name in ("y_hat", "y_true"))
    return y_hat, y_true
