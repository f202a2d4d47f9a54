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
    prior_scores: list         # per layer, mean(logits²) of the prior: a scalar


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
        x = ad.linear(window, self.params["embed.W"], self.params["embed.b"])
        return x + Tensor(self.pos_enc)

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
        S = ad.attention_scores(q, k, self.mask)
        ctx = self._merge_heads(ad.matmul(S, v))
        return S, ad.linear(ctx, self.params[p + "Wo"], self.params[p + "bo"])

    def prior_fields(self, features: Tensor, layer: int) -> PriorFields:
        """Predict per-position H/tau and expose per-head kernel parameters.

        Features are detached so the prior pathway owns its parameters: the
        symmetric-KL gradients in the prior-update pass never leak into the
        encoder weights.
        """
        p = f"layer{layer}."
        feats = ad.stop_gradient(features)
        h1 = ad.relu(ad.linear(feats, self.params[p + "field.W1"],
                               self.params[p + "field.b1"]))
        raw = ad.linear(h1, self.params[p + "field.W2"],
                        self.params[p + "field.b2"])
        hurst = ad.sigmoid(raw[..., 0])
        stiffness = ad.softplus(raw[..., 1]) + TAU_FLOOR
        mix = ad.masked_softmax_rows(self.params[p + "mix_logits"], True)
        period = ad.softplus(self.params[p + "phase_period_raw"]) + 1.0
        gain = ad.softplus(self.params[p + "phase_gain_raw"])
        return PriorFields(hurst, stiffness, mix, period, gain)

    def prior_attention(self, fields: PriorFields):
        """Row-stochastic causal prior attention P [..., H, L, L] and the
        mean square of its logits, a scalar.

        Per head h and lag delta = i - j >= 0 the logit mixes
        fractal   -(2 - 2 H_i) ln(1 + delta),
        gaussian  -delta^2 / (2 tau_i^2),
        phase     kappa_h cos(2 pi delta / p_h)
        with convex weights, then a causal row softmax; ``prior_softmax``
        computes both outputs. In ``single_head`` mode the one prior head is
        broadcast over the H series heads.

        In ``no_phase`` mode P is uniform over j <= i, broadcast from one
        [L, L] array, and neither output depends on a parameter.
        """
        L, H = self.cfg.window_length, self.cfg.num_heads
        if self.cfg.prior_mode == "no_phase":
            uniform = self.mask / self.mask.sum(axis=-1, keepdims=True)
            shape = fields.hurst.shape[:-1] + (H, L, L)
            return Tensor(np.broadcast_to(uniform, shape)), Tensor(0.0)
        return prior_softmax(fields, self.lags, self.mask, H)

    # full forward -----------------------------------------------------------

    def forward(self, window: Tensor) -> ReconOutput:
        """Run the encoder stack and reconstruction head on windows
        [..., L, C]: one window [L, C] or a batch [B, L, C]."""
        cfg = self.cfg
        x = self.embed_window(window)
        stack = AttentionStack()
        all_fields = []
        all_scores = []
        for l in range(cfg.num_layers):
            p = f"layer{l}."
            normed = ad.layer_norm(
                x, self.params[p + "ln1.g"], self.params[p + "ln1.b"]
            )
            S, ctx = self.series_attention(normed, l)
            x = x + ctx
            normed2 = ad.layer_norm(
                x, self.params[p + "ln2.g"], self.params[p + "ln2.b"]
            )
            hidden = ad.relu(ad.linear(normed2, self.params[p + "ff.W1"],
                                       self.params[p + "ff.b1"]))
            x = x + ad.linear(hidden, self.params[p + "ff.W2"],
                              self.params[p + "ff.b2"])

            fields = self.prior_fields(normed, l)
            P, score = self.prior_attention(fields)
            stack.series.append(S)
            stack.prior.append(P)
            all_fields.append(fields)
            all_scores.append(score)

        recon = ad.linear(x, self.params["head.W"], self.params["head.b"])
        return ReconOutput(recon, stack, all_fields, all_scores)


def prior_softmax(fields: PriorFields, lags: np.ndarray, mask: np.ndarray,
                  heads: int):
    """The prior attention P [..., heads, L, L], the causal row softmax of
    the prior kernel mixture logits, and the score mean(logits²).

    The per-position kernels are built as [..., 1, L, L] and broadcast
    against the per-head parameters shaped [n_ph, 1, 1]; with one prior
    head (single_head) the logits are then broadcast over the ``heads``
    series heads, and the mean runs over the broadcast logits.

    Replaces the prior kernel chain (25 primitive nodes: reshape, mul, sub,
    neg, square, div, cos, getitem, add), the single_head broadcast
    ``add``, ``masked_softmax_rows`` and ``mean_square``. The logits are
    never kept: P is computed in their memory, and the backward recomputes
    them, with the kernels, from ``lags``. It evaluates the chain's
    backward expressions in reverse tape order, reducing through
    ``_unbroadcast`` at the same points, so its gradients are bitwise
    equal to the chain's. The score is the whole-array sum the chain's
    ``mean_square`` took; a blocked sum would round differently.

    P and the score are two tape nodes over the fields, recorded score
    first, that share one backward. P's node runs it with both gradients:
    the score's is final by then, because every consumer of the score is
    recorded after both nodes, and P's node clears it. When P gets no
    gradient (it is reached only through ``stop_gradient``), the tape
    skips P's node and the score's node runs the backward alone.

    Both directions work through the batch in blocks (``ad._blockwise``);
    a single window is a batch of one. The backward builds the logits'
    gradient G head by head, so that a block's scratch holds one
    [heads, L, L] array per window. The chain's sums over the batch are
    carried from block to block on the calling thread, in numpy's row
    order (``ad._add_rows``). A block holding a non-finite logit raises
    NumericError once written.
    """
    hurst, tau, mix = fields.hurst, fields.stiffness, fields.mix_weights
    period, gain = fields.phase_period, fields.phase_gain
    L = lags.shape[-1]
    lead = hurst.shape[:-1] or (1,)
    row = lead + (1, L, 1)  # a per-position field indexes the row
    head = (period.shape[0], 1, 1)
    # single_head: the chain's broadcast add, which also turns -0.0 to +0.0
    broadcast = np.zeros((heads, 1, 1)) if head[0] != heads else None
    h_row, tau_row = hurst.data.reshape(row), tau.data.reshape(row)
    period_h, gain_h = period.data.reshape(head), gain.data.reshape(head)
    m0, m1, m2 = (mix.data[:, c].reshape(head) for c in range(3))
    log_lag, neg_sq = np.log1p(lags), -(lags * lags)
    turns = lags * (2.0 * np.pi)

    def head_kernels():
        angle = turns / period_h
        wave = np.cos(angle)
        return gain_h * wave, angle, wave

    def kernels(sl, fractal, gaussian):
        """The per-position kernels of the windows in block ``sl``, written
        in ``fractal`` and ``gaussian``; returns 2 tau² per row."""
        tau_sq2 = 2.0 * (tau_row[sl] * tau_row[sl])
        np.multiply(-(2.0 - 2.0 * h_row[sl]), log_lag, out=fractal)
        np.divide(neg_sq, tau_sq2, out=gaussian)
        return tau_sq2

    def mixture(fractal, gaussian, mixed_phase, out, product, h=...):
        """The logits m0 * fractal + m1 * gaussian + mixed_phase, in out;
        of prior head ``h`` alone if given."""
        np.multiply(m0[h], fractal, out=out)
        np.add(out, np.multiply(m1[h], gaussian, out=product), out=out)
        return np.add(out, mixed_phase, out=out)

    def block_arrays(sl, heads, dtype=np.float64):
        """Scratch for block ``sl``, made on the calling thread: one
        [n, h, L, L] array per entry h of ``heads`` for its n windows."""
        return [np.empty(h_row[sl].shape[:-3] + (h, L, L), dtype)
                for h in heads]

    n_ph = period.shape[0]
    mixed_phase = m2 * head_kernels()[0]
    logits = np.empty(lead + mixed_phase.shape)

    def forward_block(sl, fractal, gaussian, product, finite):
        kernels(sl, fractal, gaussian)
        mixture(fractal, gaussian, mixed_phase, logits[sl], product)
        if not np.isfinite(logits[sl], out=finite).all():
            raise ad.NumericError("non-finite prior kernel logits")

    ad._blockwise(logits, forward_block, lambda sl: (
        block_arrays(sl, (1, 1, n_ph)) + block_arrays(sl, (n_ph,), bool)))
    if broadcast is not None:
        logits = logits + broadcast
    inv_n = 1.0 / float(logits.size)
    score = Tensor((logits * logits).sum() * inv_n)
    P = ad._softmax_rows_(logits, mask)  # P owns the logits' memory
    out = Tensor(P.reshape(hurst.shape[:-1] + P.shape[1:]))

    def backward(gP, g_score):
        """The fields' gradients from P's and the score's; either can be
        None. Per block, the logits' gradient is the score's then the
        softmax's, as the tape added them; single_head sums the heads
        after that add."""
        unb = ad._unbroadcast
        mixed_phase = m2 * head_kernels()[0]
        # mean_square's backward scale, g * inv_n * 2.0 in its order
        c = None if g_score is None else g_score * inv_n * 2.0
        gP = None if gP is None else gP.reshape(P.shape)
        # G and, for the mixture, G times each kernel summed over the batch
        g_sum = np.zeros(mixed_phase.shape)
        fr_sum = np.zeros(mixed_phase.shape) if mix.requires_grad else None
        ga_sum = np.zeros(mixed_phase.shape) if mix.requires_grad else None
        g_tau = np.empty(tau.shape) if tau.requires_grad else None
        g_hurst = np.empty(hurst.shape) if hurst.requires_grad else None

        def block(sl, fractal, gaussian, g_heads, acc, t):
            """G for block ``sl`` and the block's kernels, for the caller to
            carry into the batch sums; writes the block's tau and H
            gradients. G is built head by head in g_heads [n, heads, L, L],
            with acc and t [n, 1, L, L] for one head's terms."""
            tau_sq2 = kernels(sl, fractal, gaussian)
            if gP is not None:
                ad._softmax_grad_into(gP[sl], P[sl], g_heads)
            for h in range(heads if c is not None else 0):
                if h < n_ph:  # single_head's one mixture serves every head
                    mixture(fractal, gaussian, mixed_phase[h], acc, t,
                            h=h)
                    if broadcast is not None:
                        np.add(acc, 0.0, out=acc)
                    np.multiply(c, acc, out=acc)
                dst = g_heads[..., h:h + 1, :, :]
                if gP is None:
                    np.copyto(dst, acc)
                else:
                    np.add(acc, dst, out=dst)
            Gb = g_heads if broadcast is None else np.sum(
                g_heads, axis=-3, keepdims=True, out=acc)

            def per_position(weight):
                """unb(Gb * weight, fractal.shape): with n_ph heads, their
                sum, taken as numpy sums an axis, from +0.0 in head order."""
                if n_ph == 1:
                    return np.multiply(Gb, weight, out=t)
                acc.fill(0.0)
                for h in range(n_ph):
                    np.multiply(Gb[..., h:h + 1, :, :], weight[h], out=t)
                    np.add(acc, t, out=acc)
                return acc

            if tau.requires_grad:
                g = per_position(m1)
                np.negative(g, out=g)
                np.multiply(g, neg_sq, out=g)
                g = unb(np.divide(g, tau_sq2 * tau_sq2, out=g), tau_sq2.shape)
                g_tau.reshape(row)[sl] = g * 2.0 * 2.0 * tau_row[sl]
            if hurst.requires_grad:
                # neg, then sub from 2.0: two exact negations
                g = per_position(m0)
                g = unb(np.multiply(g, log_lag, out=g), tau_sq2.shape)
                g_hurst.reshape(row)[sl] = g * 2.0
            return Gb, fractal, gaussian

        product = np.empty(mixed_phase.shape) if mix.requires_grad else None

        def carry(result):
            Gb, fractal, gaussian = result
            ad._add_rows(g_sum, Gb)
            if mix.requires_grad:
                # _add_rows of Gb * fractal and of Gb * gaussian, one
                # window's product at a time
                for G, fr, ga in zip(Gb, fractal, gaussian):
                    np.add(fr_sum, np.multiply(G, fr, out=product), out=fr_sum)
                    np.add(ga_sum, np.multiply(G, ga, out=product), out=ga_sum)

        ad._blockwise(P, block,
                      lambda sl: block_arrays(sl, (1, 1, heads, 1, 1)), carry)
        # made after the loop, so that they add nothing to its peak
        phase, angle, wave = head_kernels()
        g_phase = unb(g_sum, phase.shape)  # the phase term has no batch
        g_mix = g_period = g_gain = None
        if mix.requires_grad:
            # the chain summed one zero-filled getitem scatter per column,
            # which turns a -0.0 into +0.0, as + 0.0 does
            g_mix = np.concatenate(
                [unb(fr_sum, head), unb(ga_sum, head),
                 unb(g_phase * phase, head)], axis=-1).reshape(mix.shape) + 0.0
        g = g_phase * m2
        if gain.requires_grad:
            g_gain = unb(g * wave, head).reshape(gain.shape)
        if period.requires_grad:
            g = -(g * gain_h) * np.sin(angle)
            g = -g * turns / (period_h * period_h)
            g_period = unb(g, head).reshape(period.shape)
        return g_hurst, g_tau, g_mix, g_period, g_gain

    def score_backward(g):
        # runs only when P got no gradient, so its node was skipped
        return backward(None, g)

    def p_backward(g):
        g_score, score.grad = score.grad, None
        return backward(g, g_score)

    inputs = (hurst, tau, mix, period, gain)
    ad._record(score, inputs, score_backward)
    return ad._record(out, inputs, p_backward), score


def _swap_axes(ndim: int, a: int, b: int) -> tuple:
    """Axis permutation of ``ndim`` axes that exchanges axes ``a`` and ``b``."""
    axes = list(range(ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return tuple(axes)


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
