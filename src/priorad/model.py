"""Dual-attention reconstruction network.

Each encoder layer produces a data-driven series attention S and a
prior attention P built from fractal, Gaussian, and phase kernels whose
per-position parameters (Hurst field H_i, stiffness tau_i) are predicted
from encoder features. A linear head reconstructs the input window.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class ConfigError(ValueError):
    """Raised on inconsistent model configuration or input shapes."""


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool,
                "str": str}


def check_fields(cfg, lows: dict) -> None:
    """Raise ConfigError naming the first field of the config dataclass
    ``cfg`` whose value lacks its declared type or is not finite (a NaN or
    infinite float, or an int too large for a float), then the first field
    named in ``lows`` whose value is below its bound there. An int field
    takes no bool or float, a float field takes an int but no bool, and a
    bool field takes only a bool."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not (isinstance(value, _FIELD_TYPES[f.type])
                and isinstance(value, bool) == (f.type == "bool")):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        try:
            finite = f.type not in ("int", "float") or math.isfinite(value)
        except OverflowError:  # an int that no float can hold
            finite = False
        if not finite:
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
    for name, low in lows.items():
        if getattr(cfg, name) < low:
            raise ConfigError(f"{name} must be >= {low}, "
                              f"got {getattr(cfg, name)}")


TAU_FLOOR = 0.5
# R/S block sizes: HURST_NUM_SCALES log-spaced sizes from HURST_MIN_BLOCK
HURST_MIN_BLOCK, HURST_NUM_SCALES = 16, 6

# full: one prior head per series head; single_head: one shared by all heads;
# no_phase: the uniform causal prior, which no parameter reaches
PRIOR_MODES = ("full", "no_phase", "single_head")


@dataclass
class ModelConfig:
    window_length: int = 100
    channels: int = 1
    model_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    feedforward_dim: int = 128
    seed: int = 0
    prior_mode: str = "full"  # one of PRIOR_MODES

    def __post_init__(self):
        check_fields(self, {"window_length": 2, "channels": 1, "model_dim": 1,
                            "num_layers": 1, "num_heads": 1,
                            "feedforward_dim": 1, "seed": 0})
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.prior_mode not in PRIOR_MODES:
            raise ConfigError(f"prior_mode must be one of {PRIOR_MODES}, "
                              f"got {self.prior_mode!r}")


@dataclass
class PriorFields:
    """Per-layer prior parameters after squashing to their valid ranges."""

    hurst: Tensor        # [..., L] in (0, 1)
    stiffness: Tensor    # [..., L] > 0
    mix_weights: Tensor  # [n_ph, 3] rows sum to 1 (fractal, gaussian, phase)
    phase_period: Tensor  # [n_ph] > 1
    phase_gain: Tensor    # [n_ph] >= 0


@dataclass
class AttentionStack:
    """Row-stochastic attentions per layer: lists of [..., H, L, L] tensors,
    from ``PiModel.attention_maps``."""

    series: list = field(default_factory=list)
    prior: list = field(default_factory=list)


@dataclass
class LayerAttention:
    """What a forward keeps of one layer's ``ad.dual_attention``: its KL
    rows and prior score, all that training and scoring read. It holds no
    context, q, k or prior; ``PiModel.attention_maps`` remakes S and P."""

    kl_series: Tensor  # symmetric KL per row, [..., H, L]
    kl_prior: Tensor   # the same rows, whose gradient reaches P only
    score: Tensor      # mean square of the prior logits, a scalar


@dataclass
class ReconOutput:
    recon: Tensor              # [..., L, C]
    attention: list            # LayerAttention per layer
    fields: list               # PriorFields per layer

    @property
    def prior_scores(self) -> list:
        """Per layer, mean(logits²) of the prior: a scalar."""
        return [a.score for a in self.attention]


def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Fixed sin/cos positional table of shape [length, dim]."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def causal_mask(length: int) -> np.ndarray:
    """Boolean [L, L] mask permitting j <= i."""
    return np.tril(np.ones((length, length), dtype=bool))


def lag_matrix(length: int) -> np.ndarray:
    """delta[i, j] = max(i - j, 0), the causal lag."""
    i = np.arange(length)[:, None]
    j = np.arange(length)[None, :]
    return np.maximum(i - j, 0).astype(np.float64)


class PiModel:
    """Encoder stack with series and prior attention pathways."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self._init_params()
        self.pos_enc = sinusoidal_encoding(cfg.window_length, cfg.model_dim)
        self.mask = causal_mask(cfg.window_length)
        self.lags = lag_matrix(cfg.window_length)

    # parameter setup -------------------------------------------------------

    def _add(self, name: str, value: np.ndarray) -> Tensor:
        t = Tensor(value, requires_grad=True)
        self.params[name] = t
        return t

    def _init_params(self):
        cfg = self.cfg
        rng = np.random.default_rng(cfg.seed)

        def xavier(shape):
            fan = shape[-2] + shape[-1] if len(shape) >= 2 else shape[-1] + 1
            return rng.normal(0.0, np.sqrt(2.0 / fan), size=shape)

        D, F, C = cfg.model_dim, cfg.feedforward_dim, cfg.channels
        self._add("embed.W", xavier((C, D)))
        self._add("embed.b", np.zeros(D))
        n_prior_heads = 1 if cfg.prior_mode == "single_head" else cfg.num_heads
        for l in range(cfg.num_layers):
            p = f"layer{l}."
            for proj in ("Wq", "Wk", "Wv", "Wo"):
                self._add(p + proj, xavier((D, D)))
            self._add(p + "bo", np.zeros(D))
            self._add(p + "ln1.g", np.ones(D))
            self._add(p + "ln1.b", np.zeros(D))
            self._add(p + "ln2.g", np.ones(D))
            self._add(p + "ln2.b", np.zeros(D))
            self._add(p + "ff.W1", xavier((D, F)))
            self._add(p + "ff.b1", np.zeros(F))
            self._add(p + "ff.W2", xavier((F, D)))
            self._add(p + "ff.b2", np.zeros(D))
            # per-position field head: features -> (raw H, raw tau)
            hid = max(8, D // 2)
            self._add(p + "field.W1", xavier((D, hid)))
            self._add(p + "field.b1", np.zeros(hid))
            self._add(p + "field.W2", xavier((hid, 2)) * 0.1)
            self._add(p + "field.b2", np.array([0.0, 1.0]))
            # per-head kernel mixture and phase template
            self._add(p + "mix_logits", np.zeros((n_prior_heads, 3)))
            periods = np.exp(
                rng.uniform(np.log(4.0), np.log(max(4.01, cfg.window_length)),
                            size=n_prior_heads)
            )
            self._add(p + "phase_period_raw", np.log(np.expm1(periods - 1.0)))
            self._add(p + "phase_gain_raw", np.zeros(n_prior_heads))
        self._add("head.W", xavier((D, C)))
        self._add("head.b", np.zeros(C))

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def series_param_names(self) -> list[str]:
        """Parameters belonging to the data-driven (series) pathway."""
        return [n for n in self.params if not self._is_prior_param(n)]

    def prior_param_names(self) -> list[str]:
        return [n for n in self.params if self._is_prior_param(n)]

    @staticmethod
    def _is_prior_param(name: str) -> bool:
        return (".field." in name or "mix_logits" in name
                or "phase_period" in name or "phase_gain" in name)

    # forward pieces ---------------------------------------------------------

    def embed_window(self, window: Tensor) -> Tensor:
        """Linear channel projection plus fixed positional encoding, of one
        window [L, C] or a batch [B, L, C]."""
        if window.ndim not in (2, 3):
            raise ConfigError(f"window must be [L, C] or [B, L, C], got "
                              f"shape {window.shape}")
        if window.shape[-1] != self.cfg.channels:
            raise ConfigError(
                f"window has {window.shape[-1]} channels, "
                f"config expects {self.cfg.channels}"
            )
        if window.shape[-2] != self.cfg.window_length:
            raise ConfigError(
                f"window length {window.shape[-2]} != "
                f"config {self.cfg.window_length}"
            )
        x = ad.linear(window, self.params["embed.W"], self.params["embed.b"])
        return x + Tensor(self.pos_enc)

    def series_attention(self, features: Tensor, layer: int, prior):
        """Causal multi-head scaled dot-product attention, met with the
        ``prior`` in ``ad.dual_attention``, which splits the projections
        into the prior's heads and merges them back.

        Returns the layer's LayerAttention, the op's ``maps`` and its
        context projected by Wo, [..., L, D]. The context itself is freed
        on return.
        """
        p = f"layer{layer}."
        q, k, v = (ad.matmul(features, self.params[p + w])
                   for w in ("Wq", "Wk", "Wv"))
        att = ad.dual_attention(q, k, v, self.mask, prior)
        out = ad.linear(att.context, self.params[p + "Wo"],
                        self.params[p + "bo"])
        return (LayerAttention(att.kl_series, att.kl_prior, att.score),
                att.maps, out)

    def prior_fields(self, features: Tensor, layer: int) -> PriorFields:
        """Predict per-position H/tau and expose per-head kernel parameters.

        The field head is a position-wise feed-forward (``ad.feed_forward``)
        from the features to the raw (H, tau) pair. Features are detached so
        the prior pathway owns its parameters: the symmetric-KL gradients in
        the prior-update pass never leak into the encoder weights.
        """
        p = f"layer{layer}."
        raw = ad.feed_forward(ad.stop_gradient(features), *(
            self.params[p + "field." + n] for n in ("W1", "b1", "W2", "b2")))
        hurst = ad.sigmoid(raw[..., 0])
        stiffness = ad.softplus(raw[..., 1]) + TAU_FLOOR
        mix = ad.masked_softmax_rows(self.params[p + "mix_logits"], True)
        period = ad.softplus(self.params[p + "phase_period_raw"]) + 1.0
        gain = ad.softplus(self.params[p + "phase_gain_raw"])
        return PriorFields(hurst, stiffness, mix, period, gain)

    def prior_attention(self, fields: PriorFields):
        """The prior that ``ad.dual_attention`` meets the series attention
        with: the kernel mixture of ``fields`` (``KernelPrior``), with one
        prior head per series head, or in ``single_head`` mode one head
        broadcast over them. In ``no_phase`` mode it is ``UniformPrior``:
        zero logits, whose P is uniform over j <= i, that no parameter reaches.
        """
        if self.cfg.prior_mode == "no_phase":
            return UniformPrior((fields.hurst.shape[:-1] or (1,))
                                + (self.cfg.num_heads,) + self.mask.shape)
        return KernelPrior(fields, self.lags, self.cfg.num_heads)

    # full forward -----------------------------------------------------------

    def _attention(self, x: Tensor, l: int) -> tuple:
        """Layer ``l``'s attention on ``x``: returns x plus its projected
        context, the layer's LayerAttention and PriorFields, and its dual
        attention's ``maps``, which holds q and k. The layer's normed input
        and context are freed on return."""
        p = f"layer{l}."
        normed = ad.layer_norm(x, self.params[p + "ln1.g"],
                               self.params[p + "ln1.b"])
        fields = self.prior_fields(normed, l)
        att, maps, ctx = self.series_attention(normed, l,
                                               self.prior_attention(fields))
        return x + ctx, att, fields, maps

    def _feed_forward(self, x: Tensor, l: int) -> Tensor:
        """Layer ``l``'s feed-forward on ``x``, added to it."""
        p = f"layer{l}."
        normed = ad.layer_norm(x, self.params[p + "ln2.g"],
                               self.params[p + "ln2.b"])
        ff = [self.params[p + "ff." + n] for n in ("W1", "b1", "W2", "b2")]
        return x + ad.feed_forward(normed, *ff)

    def forward(self, window: Tensor) -> ReconOutput:
        """Run the encoder stack and reconstruction head on windows
        [..., L, C]: one window [L, C] or a batch [B, L, C]. The output
        keeps of each layer only its KL rows, score and fields."""
        x = self.embed_window(window)
        attention = []
        all_fields = []
        for l in range(self.cfg.num_layers):
            x, att, fields, maps = self._attention(x, l)
            del maps  # q and k: freed before the feed-forward runs
            x = self._feed_forward(x, l)
            attention.append(att)
            all_fields.append(fields)

        recon = ad.linear(x, self.params["head.W"], self.params["head.b"])
        return ReconOutput(recon, attention, all_fields)

    def attention_maps(self, window: Tensor) -> AttentionStack:
        """The series and prior attention S and P [..., H, L, L] of every
        layer for ``window``, for inspection: training and scoring never
        make them whole. The layers run through ``forward``'s code, and each
        layer's S and P are recomputed whole, off the tape, before the next
        layer runs."""
        stack = AttentionStack()
        x = self.embed_window(window)
        for l in range(self.cfg.num_layers):
            x, _, _, maps = self._attention(x, l)
            S, P = maps()
            stack.series.append(Tensor(S))
            stack.prior.append(Tensor(P))
            x = self._feed_forward(x, l)
        return stack


@dataclass(frozen=True)
class UniformPrior:
    """Zero logits over ``shape`` [n, H, L, L], the logits prior
    ``ad.dual_attention`` takes in ``no_phase`` mode: their masked softmax
    is 1.0 / (the row's permitted count), the uniform causal attention, and
    their score 0.0. With no inputs, the op records no output that depends
    on it, and never calls a backward."""

    shape: tuple
    inputs = ()

    def scratch(self, sl) -> list:
        return []

    def logits_into(self, sl, out):
        out.fill(0.0)
        return out


class KernelPrior:
    """The prior attention's logits for one layer's fields, a block of
    windows at a time: the logits prior ``ad.dual_attention`` takes.

    Per head h and lag delta = i - j >= 0 the logit mixes
    fractal   -(2 - 2 H_i) ln(1 + delta),
    gaussian  -delta^2 / (2 tau_i^2),
    phase     kappa_h cos(2 pi delta / p_h)
    with convex weights. The per-position kernels are built as [n, 1, L, L]
    and broadcast against the per-head parameters shaped [heads, 1, 1]; a
    single window is a batch of one. The logits cover the ``series_heads``
    heads of the series attention: its own heads are those, or one head
    broadcast over them (single_head mode).

    Replaces the prior kernel chain (25 primitive nodes: reshape, mul, sub,
    neg, square, div, cos, getitem, add) and single_head's broadcast add
    over the series heads. The logits are never kept: the backward
    recomputes them, with the kernels, from ``lags``. It evaluates the
    chain's backward expressions in reverse tape order, reducing through
    ``_unbroadcast`` at the same points, so its gradients are bitwise equal
    to the chain's.
    """

    def __init__(self, fields: PriorFields, lags: np.ndarray,
                 series_heads: int):
        hurst, tau, mix = fields.hurst, fields.stiffness, fields.mix_weights
        period, gain = fields.phase_period, fields.phase_gain
        self.inputs = (hurst, tau, mix, period, gain)  # PriorFields' order
        # the inputs' shapes, taken now: the tape's walk drops their data
        # before backward runs
        self._shapes = [t.shape for t in self.inputs]
        self.heads = period.shape[0]
        L = lags.shape[-1]
        lead = hurst.shape[:-1] or (1,)
        self.series_heads = series_heads
        self.shape = lead + (series_heads, L, L)
        self._row = lead + (1, L, 1)  # a per-position field indexes the row
        self._head = (self.heads, 1, 1)
        self._h_row = hurst.data.reshape(self._row)
        self._tau_row = tau.data.reshape(self._row)
        self._period = period.data.reshape(self._head)
        self._gain = gain.data.reshape(self._head)
        self._m = [mix.data[:, c].reshape(self._head) for c in range(3)]
        self._log_lag, self._neg_sq = np.log1p(lags), -(lags * lags)
        self._turns = lags * (2.0 * np.pi)
        self._mixed_phase = self._m[2] * self._head_kernels()[0]

    def _head_kernels(self):
        angle = self._turns / self._period
        wave = np.cos(angle)
        return self._gain * wave, angle, wave

    def _kernels(self, sl, fractal, gaussian):
        """The per-position kernels of the windows in block ``sl``, written
        in ``fractal`` and ``gaussian``; returns 2 tau² per row."""
        tau_sq2 = 2.0 * (self._tau_row[sl] * self._tau_row[sl])
        np.multiply(-(2.0 - 2.0 * self._h_row[sl]), self._log_lag,
                    out=fractal)
        np.divide(self._neg_sq, tau_sq2, out=gaussian)
        return tau_sq2

    def _arrays(self, sl, heads):
        """One [n, h, L, L] array for the n windows of block ``sl`` per
        entry h of ``heads``."""
        return [np.empty(self._h_row[sl].shape[:-3] + (h,) + self.shape[-2:])
                for h in heads]

    def scratch(self, sl) -> list:
        """The fractal and Gaussian kernels and a product for block sl,
        and, when one head is broadcast over the series heads, its logits."""
        heads = (1, 1, self.heads)
        if self.heads != self.series_heads:
            heads += (1,)
        return self._arrays(sl, heads)

    def logits_into(self, sl, out, fractal, gaussian, product, own=None):
        """m0 * fractal + m1 * gaussian + mixed_phase for block ``sl`` over
        the series heads, in ``out``, which is returned. One head is made in
        ``own`` and broadcast by adding zeros, which also turns a -0.0 into
        +0.0, as the chain's broadcast add did."""
        z = out if own is None else own
        self._kernels(sl, fractal, gaussian)
        m0, m1, _ = self._m
        np.multiply(m0, fractal, out=z)
        np.add(z, np.multiply(m1, gaussian, out=product), out=z)
        np.add(z, self._mixed_phase, out=z)
        if own is None:
            return out
        return np.add(own, np.zeros((self.series_heads, 1, 1)), out=out)

    def backward(self, blocks, logits_grad):
        """The fields' gradients, from ``logits_grad(sl, z)``: the logits'
        gradient of block ``sl`` given its logits ``z`` over the series
        heads, summed here over those heads when one head was broadcast.

        One loop over ``blocks`` on the calling thread that makes its own
        block arrays: the chain's sums over the batch are carried from
        block to block in numpy's row order (``ad._add_rows``).
        """
        hurst, tau, mix, period, gain = self.inputs
        hurst_shape, tau_shape, mix_shape, period_shape, gain_shape = \
            self._shapes
        unb = ad._unbroadcast
        m0, m1, m2 = self._m
        shape = self._mixed_phase.shape
        # G and, for the mixture, G times each kernel summed over the batch
        g_sum = np.zeros(shape)
        fr_sum = np.zeros(shape) if mix.requires_grad else None
        ga_sum = np.zeros(shape) if mix.requires_grad else None
        g_tau = np.empty(tau_shape) if tau.requires_grad else None
        g_hurst = np.empty(hurst_shape) if hurst.requires_grad else None
        log_lag, neg_sq = self._log_lag, self._neg_sq
        tau_row = self._tau_row

        for sl in blocks:
            fractal, gaussian, *rest = self.scratch(sl)
            z = self._arrays(sl, (self.series_heads,))[0]
            self.logits_into(sl, z, fractal, gaussian, *rest)
            rest = None
            Gb = logits_grad(sl, z)
            z = None
            if self.heads != self.series_heads:
                Gb = Gb.sum(axis=-3, keepdims=True)
            tau_sq2 = 2.0 * (tau_row[sl] * tau_row[sl])
            ad._add_rows(g_sum, Gb)
            if mix.requires_grad:
                ad._add_rows(fr_sum, Gb * fractal)
                ad._add_rows(ga_sum, Gb * gaussian)
            if tau.requires_grad:
                g = unb(Gb * m1, gaussian.shape)
                g = unb(-g * neg_sq / (tau_sq2 * tau_sq2), tau_sq2.shape)
                g_tau.reshape(self._row)[sl] = g * 2.0 * 2.0 * tau_row[sl]
            if hurst.requires_grad:
                # neg, then sub from 2.0: two exact negations
                g = unb(unb(Gb * m0, fractal.shape) * log_lag, tau_sq2.shape)
                g_hurst.reshape(self._row)[sl] = g * 2.0
            # the block's arrays: freed before the next block's are made
            Gb = fractal = gaussian = None
        # made after the loop, so that they add nothing to its peak
        phase, angle, wave = self._head_kernels()
        g_phase = unb(g_sum, phase.shape)  # the phase term has no batch
        g_mix = g_period = g_gain = None
        head = self._head
        if mix.requires_grad:
            # the chain summed one zero-filled getitem scatter per column,
            # which turns a -0.0 into +0.0, as + 0.0 does
            g_mix = np.concatenate(
                [unb(fr_sum, head), unb(ga_sum, head),
                 unb(g_phase * phase, head)],
                axis=-1).reshape(mix_shape) + 0.0
        g = g_phase * m2
        if gain.requires_grad:
            g_gain = unb(g * wave, head).reshape(gain_shape)
        if period.requires_grad:
            g = -(g * self._gain) * np.sin(angle)
            g = -g * self._turns / (self._period * self._period)
            g_period = unb(g, head).reshape(period_shape)
        return g_hurst, g_tau, g_mix, g_period, g_gain


# ---------------------------------------------------------------------------
# Hurst estimator
# ---------------------------------------------------------------------------


def estimate_hurst_rs(series):
    """Rescaled-range Hurst estimate, clamped to (0.01, 0.99).

    Slope of log(R/S) vs log(block size) over logarithmically spaced block
    sizes. Constant input returns (0.5, flagged=True). The R/S statistic is
    exactly invariant to positive rescaling of the input.

    Returns (estimate, flagged).
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    T = x.size
    if T < 4 * HURST_MIN_BLOCK:
        raise ad.ContractError(
            f"series length {T} < 4 * HURST_MIN_BLOCK ({4 * HURST_MIN_BLOCK})"
        )
    if np.ptp(x) == 0.0:
        return 0.5, True
    sizes = np.unique(
        np.round(np.exp(np.linspace(np.log(HURST_MIN_BLOCK), np.log(T // 4),
                                    HURST_NUM_SCALES))).astype(int)
    )
    log_n, log_rs = [], []
    for n in sizes:
        k = T // n
        blocks = x[: k * n].reshape(k, n)
        dev = blocks - blocks.mean(axis=1, keepdims=True)
        z = np.cumsum(dev, axis=1)
        r = z.max(axis=1) - z.min(axis=1)
        s = blocks.std(axis=1)
        ok = s > 0
        if not ok.any():
            continue
        rs = (r[ok] / s[ok]).mean()
        if rs > 0:
            log_n.append(np.log(n))
            log_rs.append(np.log(rs))
    if len(log_n) < 2:
        return 0.5, True
    slope = np.polyfit(log_n, log_rs, 1)[0]
    return float(np.clip(slope, 0.01, 0.99)), False
