"""Dual-attention reconstruction network.

Each encoder layer produces a data-driven series attention S and a
prior attention P built from fractal, Gaussian, and phase kernels whose
per-position parameters (Hurst field H_i, stiffness tau_i) are predicted
from encoder features. A linear head reconstructs the input window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class ConfigError(ValueError):
    """Raised on inconsistent model configuration or input shapes."""


TAU_FLOOR = 0.5

# full: one prior head per series head; single_head: one shared by all heads;
# no_phase: the uniform causal prior, trained with k = 0 (apply_ablation_value)
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
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.prior_mode not in PRIOR_MODES:
            raise ConfigError(f"prior_mode must be one of {PRIOR_MODES}")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads


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
    """Row-stochastic attentions per layer: lists of [..., H, L, L] tensors."""

    series: list = field(default_factory=list)
    prior: list = field(default_factory=list)


@dataclass
class ReconOutput:
    recon: Tensor              # [..., L, C]
    attn: AttentionStack
    fields: list               # PriorFields per layer
    prior_logits: list         # raw pre-softmax prior scores per layer


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
        """Linear channel projection plus fixed positional encoding."""
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
        x = ad.matmul(window, self.params["embed.W"]) + self.params["embed.b"]
        return x + Tensor(self.pos_enc)

    def _layer_norm(self, x: Tensor, g: Tensor, b: Tensor) -> Tensor:
        mu = ad.tmean(x, axis=-1, keepdims=True)
        xc = x - mu
        var = ad.tmean(ad.square(xc), axis=-1, keepdims=True)
        return g * (xc / ad.sqrt(var + 1e-6)) + b

    def _split_heads(self, x: Tensor) -> Tensor:
        """[..., L, D] -> [..., H, L, d]."""
        H, d = self.cfg.num_heads, self.cfg.head_dim
        x = ad.reshape(x, x.shape[:-1] + (H, d))
        return ad.transpose(x, _swap_axes(x.ndim, -3, -2))

    def _merge_heads(self, x: Tensor) -> Tensor:
        """[..., H, L, d] -> [..., L, D]."""
        x = ad.transpose(x, _swap_axes(x.ndim, -3, -2))
        return ad.reshape(x, x.shape[:-2] + (self.cfg.model_dim,))

    def series_attention(self, features: Tensor, layer: int):
        """Causal multi-head scaled dot-product attention.

        Returns (S, context) where S is [..., H, L, L] row-stochastic.
        """
        p = f"layer{layer}."
        q = self._split_heads(ad.matmul(features, self.params[p + "Wq"]))
        k = self._split_heads(ad.matmul(features, self.params[p + "Wk"]))
        v = self._split_heads(ad.matmul(features, self.params[p + "Wv"]))
        scale = 1.0 / np.sqrt(self.cfg.head_dim)
        logits = ad.matmul(q, ad.transpose(k, _swap_axes(k.ndim, -2, -1))) * scale
        S = ad.masked_softmax_rows(logits, self.mask)
        ctx = self._merge_heads(ad.matmul(S, v))
        ctx = ad.matmul(ctx, self.params[p + "Wo"]) + self.params[p + "bo"]
        return S, ctx

    def prior_fields(self, features: Tensor, layer: int) -> PriorFields:
        """Predict per-position H/tau and expose per-head kernel parameters.

        Features are detached so the prior pathway owns its parameters: the
        symmetric-KL gradients in the prior-update pass never leak into the
        encoder weights.
        """
        p = f"layer{layer}."
        feats = ad.stop_gradient(features)
        h1 = ad.relu(
            ad.matmul(feats, self.params[p + "field.W1"]) + self.params[p + "field.b1"]
        )
        raw = ad.matmul(h1, self.params[p + "field.W2"]) + self.params[p + "field.b2"]
        hurst = ad.sigmoid(raw[..., 0])
        stiffness = ad.softplus(raw[..., 1]) + TAU_FLOOR
        mix = ad.masked_softmax_rows(self.params[p + "mix_logits"], True)
        period = ad.softplus(self.params[p + "phase_period_raw"]) + 1.0
        gain = ad.softplus(self.params[p + "phase_gain_raw"])
        return PriorFields(hurst, stiffness, mix, period, gain)

    def prior_attention(self, fields: PriorFields):
        """Row-stochastic causal prior attention [..., H, L, L].

        Per head h and lag delta = i - j >= 0 the logit mixes
        fractal   -(2 - 2 H_i) ln(1 + delta),
        gaussian  -delta^2 / (2 tau_i^2),
        phase     kappa_h cos(2 pi delta / p_h)
        with convex weights, then a causal row softmax. The per-position
        kernels are built once as [..., 1, L, L] and broadcast against the
        per-head parameters shaped [n_ph, 1, 1].

        In ``no_phase`` mode the logits are zeros: P is uniform over j <= i.
        """
        L, H = self.cfg.window_length, self.cfg.num_heads
        if self.cfg.prior_mode == "no_phase":
            logits = Tensor(np.zeros(fields.hurst.shape[:-1] + (H, L, L)))
            return ad.masked_softmax_rows(logits, self.mask), logits
        delta = Tensor(self.lags)  # [L, L]
        n_ph = fields.phase_period.shape[0]

        # per-position fields index the row: [..., L] -> [..., 1, L, 1]
        def row_field(t: Tensor) -> Tensor:
            return ad.reshape(t, t.shape[:-1] + (1, L, 1))

        def per_head(t: Tensor) -> Tensor:
            return ad.reshape(t, (n_ph, 1, 1))

        h_row = row_field(fields.hurst)
        tau_row = row_field(fields.stiffness)

        log_lag = Tensor(np.log1p(self.lags))
        fractal = -(2.0 - 2.0 * h_row) * log_lag
        gaussian = -ad.square(delta) / (2.0 * ad.square(tau_row))
        ph = ad.cos(delta * (2.0 * np.pi) / per_head(fields.phase_period))
        phase = per_head(fields.phase_gain) * ph

        mix = fields.mix_weights
        logits = (per_head(mix[:, 0]) * fractal
                  + per_head(mix[:, 1]) * gaussian
                  + per_head(mix[:, 2]) * phase)
        if n_ph != H:
            # single_head: one prior head shared by every series head; the
            # broadcast sums the head gradients before the kernel backward
            logits = logits + Tensor(np.zeros((H, 1, 1)))
        if not np.isfinite(logits.data).all():
            raise ad.NumericError("non-finite prior kernel logits")
        P = ad.masked_softmax_rows(logits, self.mask)
        return P, logits

    # full forward -----------------------------------------------------------

    def forward(self, window: Tensor) -> ReconOutput:
        """Run the encoder stack and reconstruction head on windows
        [..., L, C]: one window [L, C] or a batch [B, L, C]."""
        cfg = self.cfg
        x = self.embed_window(window)
        stack = AttentionStack()
        all_fields = []
        all_logits = []
        for l in range(cfg.num_layers):
            p = f"layer{l}."
            normed = self._layer_norm(
                x, self.params[p + "ln1.g"], self.params[p + "ln1.b"]
            )
            S, ctx = self.series_attention(normed, l)
            x = x + ctx
            normed2 = self._layer_norm(
                x, self.params[p + "ln2.g"], self.params[p + "ln2.b"]
            )
            ff = ad.matmul(
                ad.relu(ad.matmul(normed2, self.params[p + "ff.W1"])
                        + self.params[p + "ff.b1"]),
                self.params[p + "ff.W2"],
            ) + self.params[p + "ff.b2"]
            x = x + ff

            fields = self.prior_fields(normed, l)
            P, logits = self.prior_attention(fields)
            stack.series.append(S)
            stack.prior.append(P)
            all_fields.append(fields)
            all_logits.append(logits)

        recon = ad.matmul(x, self.params["head.W"]) + self.params["head.b"]
        return ReconOutput(recon, stack, all_fields, all_logits)


def _swap_axes(ndim: int, a: int, b: int) -> tuple:
    """Axis permutation of ``ndim`` axes that exchanges axes ``a`` and ``b``."""
    axes = list(range(ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return tuple(axes)


# ---------------------------------------------------------------------------
# Hurst estimator
# ---------------------------------------------------------------------------


def estimate_hurst_rs(series, min_block: int = 16, num_scales: int = 6):
    """Rescaled-range Hurst estimate, clamped to (0.01, 0.99).

    Slope of log(R/S) vs log(block size) over logarithmically spaced block
    sizes. Constant input returns (0.5, flagged=True). The R/S statistic is
    exactly invariant to positive rescaling of the input.

    Returns (estimate, flagged).
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    T = x.size
    if T < 4 * min_block:
        raise ad.ContractError(
            f"series length {T} < 4 * min_block ({4 * min_block})"
        )
    if np.ptp(x) == 0.0:
        return 0.5, True
    sizes = np.unique(
        np.round(np.exp(np.linspace(np.log(min_block), np.log(T // 4),
                                    num_scales))).astype(int)
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
