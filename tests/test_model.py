import re

import numpy as np
import pytest

import priorad.autodiff as ad
from priorad.autodiff import Tensor, Tape
from priorad.evaluation import benchmark_configs
from priorad.model import (
    PRIOR_MODES, ModelConfig, PiModel, PriorFields, ConfigError, KernelPrior,
    causal_mask, lag_matrix, sinusoidal_encoding, estimate_hurst_rs,
    TAU_FLOOR,
)
from priorad.training import (
    Checkpoint, TrainConfig, load_checkpoint, save_checkpoint,
)


def small_cfg(**kw):
    base = dict(window_length=16, channels=3, model_dim=16, num_layers=1,
                num_heads=2, feedforward_dim=32, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def make_fields(L, hurst, tau, mix, period=8.0, gain=1.0):
    """Hand-built prior fields for kernel fixtures (single prior head)."""
    return PriorFields(
        hurst=Tensor(np.full(L, hurst)),
        stiffness=Tensor(np.full(L, tau)),
        mix_weights=Tensor(np.array([mix])),
        phase_period=Tensor(np.array([period])),
        phase_gain=Tensor(np.array([gain])),
    )


def prior_dual_attention(model, fields):
    """The model's dual attention with the ``KernelPrior`` of ``fields``
    (one window), against queries and keys of zeros: its series attention
    S is uniform over j <= i."""
    zeros = Tensor(np.zeros((model.cfg.window_length, model.cfg.num_heads)))
    return ad.dual_attention(zeros, zeros, zeros, model.mask,
                             KernelPrior(fields, model.lags,
                                         model.cfg.num_heads))


def prior_of(model, fields):
    """The prior attention P [H, L, L] of ``fields``, as the model's dual
    attention makes it."""
    return prior_dual_attention(model, fields).maps()[1]


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        small_cfg(model_dim=10, num_heads=3)


@pytest.mark.parametrize("field, value, low", [
    ("window_length", 1, 2), ("channels", 0, 1), ("model_dim", 0, 1),
    ("num_layers", 0, 1), ("num_heads", 0, 1), ("feedforward_dim", 0, 1),
    ("seed", -1, 0)])
def test_config_rejects_out_of_range_values(field, value, low):
    # checked before model_dim % num_heads, which num_heads=0 would break
    with pytest.raises(ConfigError,
                       match=f"^{field} must be >= {low}, got {value}$"):
        small_cfg(**{field: value})
    small_cfg(**{field: low if field != "model_dim" else 2})


def test_lag_and_mask_helpers():
    lags = lag_matrix(4)
    assert lags[3, 0] == 3 and lags[2, 2] == 0
    m = causal_mask(4)
    assert m[1, 1] and not m[1, 2]


def test_embed_zero_window_is_positional_encoding():
    cfg = small_cfg()
    model = PiModel(cfg)
    out = model.embed_window(Tensor(np.zeros((cfg.window_length, cfg.channels))))
    pe = sinusoidal_encoding(cfg.window_length, cfg.model_dim)
    np.testing.assert_allclose(out.data, pe + model.params["embed.b"].data,
                               atol=1e-12)


def test_embed_channel_mismatch():
    model = PiModel(small_cfg())
    with pytest.raises(ConfigError):
        model.embed_window(Tensor(np.zeros((16, 5))))


def test_forward_shapes_and_row_stochastic():
    cfg = small_cfg()
    model = PiModel(cfg)
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(cfg.window_length, cfg.channels)))
    out = model.forward(w)
    assert out.recon.shape == w.shape
    attn = model.attention_maps(w)
    tri = ~causal_mask(cfg.window_length)
    for stack in (attn.series, attn.prior):
        assert len(stack) == cfg.num_layers
        for a in stack:
            assert a.shape == (cfg.num_heads, cfg.window_length,
                               cfg.window_length)
            np.testing.assert_allclose(a.data.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all(a.data[..., tri] == 0.0)


@pytest.mark.parametrize("shape", [(16,), (2, 3, 16, 3)],
                         ids=["one_axis", "four_axes"])
def test_forward_rejects_a_window_that_is_not_one_or_a_batch(shape):
    """Only [L, C] and [B, L, C] are windows: anything else raises
    ConfigError naming its shape before any op is recorded."""
    model = PiModel(small_cfg())
    with Tape() as tape:
        with pytest.raises(ConfigError, match=re.escape(f"got shape {shape}")):
            model.forward(Tensor(np.zeros(shape)))
    assert tape.nodes == []


# the nodes a taped forward records at desk shape (benchmark_configs: one
# layer, two heads), per prior mode
DESK_FORWARD_NODES = {"full": 26, "no_phase": 24, "single_head": 26}


@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_forward_records_no_head_split_or_relu_node(prior_mode):
    """dual_attention splits and merges the heads, and the field head is a
    feed-forward: a taped forward records no reshape, transpose or relu
    node, each named as the benchmark's tracer names it, by its backward's
    ``__qualname__``."""
    cfg = benchmark_configs(prior_mode=prior_mode)[0]
    model = PiModel(cfg)
    window = np.zeros((4, cfg.window_length, cfg.channels))
    with Tape() as tape:
        model.forward(Tensor(window))
    ops = {fn.__qualname__.split(".")[0] for _, _, fn in tape.nodes}
    assert ops & {"reshape", "transpose", "relu"} == set()
    assert len(tape.nodes) == DESK_FORWARD_NODES[prior_mode]


@pytest.mark.parametrize("prior_mode", ["full", "no_phase"])
def test_forward_rejects_a_batch_of_no_windows(prior_mode):
    cfg = small_cfg(prior_mode=prior_mode)
    window = Tensor(np.zeros((0, cfg.window_length, cfg.channels)))
    with pytest.raises(ad.ShapeError, match="at least one window"):
        PiModel(cfg).forward(window)


def test_forward_batched_matches_single():
    cfg = small_cfg()
    model = PiModel(cfg)
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(3, cfg.window_length, cfg.channels))
    out_b = model.forward(Tensor(batch))
    out_1 = model.forward(Tensor(batch[1]))
    np.testing.assert_allclose(out_b.recon.data[1], out_1.recon.data,
                               atol=1e-10)
    np.testing.assert_allclose(
        model.attention_maps(Tensor(batch)).series[0].data[1],
        model.attention_maps(Tensor(batch[1])).series[0].data, atol=1e-10)


def test_series_row_zero_is_self():
    model = PiModel(small_cfg())
    rng = np.random.default_rng(2)
    attn = model.attention_maps(Tensor(rng.normal(size=(16, 3))))
    for a in attn.series + attn.prior:
        np.testing.assert_array_equal(a.data[:, 0, 0], 1.0)
        assert np.all(a.data[:, 0, 1:] == 0.0)


def test_prior_field_ranges():
    cfg = small_cfg()
    model = PiModel(cfg)
    rng = np.random.default_rng(3)
    feats = model.embed_window(Tensor(rng.normal(size=(16, 3))))
    f = model.prior_fields(feats, 0)
    assert np.all((f.hurst.data > 0) & (f.hurst.data < 1))
    assert np.all(f.stiffness.data >= TAU_FLOOR)
    np.testing.assert_allclose(f.mix_weights.data.sum(axis=-1), 1.0,
                               atol=1e-12)
    assert np.all(f.phase_period.data > 1.0)
    assert np.all(f.phase_gain.data >= 0.0)


def test_fractal_kernel_row_fixture():
    # pure fractal mixing, H = 0.5, row 3 of a length-4 window:
    # logits -ln(1+delta) for delta = 3,2,1,0 -> weights prop. 1/4,1/3,1/2,1
    cfg = small_cfg(window_length=4)
    model = PiModel(cfg)
    fields = make_fields(4, hurst=0.5, tau=1.0, mix=[1.0, 0.0, 0.0])
    P = prior_of(model, fields)
    raw = np.array([0.25, 1 / 3, 0.5, 1.0])
    np.testing.assert_allclose(P[0, 3], raw / raw.sum(), atol=1e-12)


def test_fractal_hurst_one_is_causal_uniform():
    # H = 1 zeroes the fractal exponent: all permitted lags equal
    cfg = small_cfg(window_length=6)
    model = PiModel(cfg)
    fields = make_fields(6, hurst=1.0, tau=1.0, mix=[1.0, 0.0, 0.0])
    P = prior_of(model, fields)
    np.testing.assert_allclose(P[0, 5], np.full(6, 1 / 6), atol=1e-12)


def test_gaussian_kernel_self_focus_and_flat_limits():
    cfg = small_cfg(window_length=8)
    model = PiModel(cfg)
    tight = make_fields(8, hurst=0.5, tau=0.5, mix=[0.0, 1.0, 0.0])
    P = prior_of(model, tight)
    assert np.all(P[0, np.arange(8), np.arange(8)] ==
                  P[0].max(axis=-1))

    flat = make_fields(8, hurst=0.5, tau=10.0 * 8, mix=[0.0, 1.0, 0.0])
    Pf = prior_of(model, flat)
    uniform = causal_mask(8) / causal_mask(8).sum(axis=-1, keepdims=True)
    tv = 0.5 * np.abs(Pf[0] - uniform).sum(axis=-1).max()
    assert tv < 0.02


def test_phase_kernel_periodicity():
    # pure phase mixing concentrates mass at lags that are multiples of p_h
    L = 13
    cfg = small_cfg(window_length=13, channels=3)
    model = PiModel(cfg)
    fields = make_fields(L, hurst=0.5, tau=1.0, mix=[0.0, 0.0, 1.0],
                         period=4.0, gain=3.0)
    P = prior_of(model, fields)
    row = P[0, L - 1]
    on_phase = row[[L - 1, L - 5, L - 9]]  # lags 0, 4, 8
    off_phase = row[[L - 3, L - 7]]        # lags 2, 6
    assert on_phase.min() > off_phase.max() * 5


def test_prior_gradients_reach_fields():
    # finite differences through H and tau via hand-built field tensors, of
    # the prior KL's distance from P to the uniform causal attention S
    cfg = small_cfg(window_length=6)
    model = PiModel(cfg)
    mix = Tensor(np.array([[0.5, 0.4, 0.1]]))
    period = Tensor(np.array([5.0]))
    gain = Tensor(np.array([0.7]))

    def loss(hurst, tau):
        fields = PriorFields(hurst, tau, mix, period, gain)
        return ad.tsum(prior_dual_attention(model, fields).kl_prior)

    def loss_at(hvals, tvals):
        return loss(Tensor(hvals), Tensor(tvals)).item()

    h0 = np.full(6, 0.4)
    t0 = np.full(6, 2.0)
    h = Tensor(h0.copy(), requires_grad=True)
    t = Tensor(t0.copy(), requires_grad=True)
    with Tape() as tape:
        total = loss(h, t)
    tape.backward(total)

    step = 1e-5
    for i in (0, 3, 5):
        hp, hm = h0.copy(), h0.copy()
        hp[i] += step
        hm[i] -= step
        fd = (loss_at(hp, t0) - loss_at(hm, t0)) / (2 * step)
        assert abs(h.grad[i] - fd) < 1e-4 * max(abs(fd), 1.0)
        tp, tm = t0.copy(), t0.copy()
        tp[i] += step
        tm[i] -= step
        fd = (loss_at(h0, tp) - loss_at(h0, tm)) / (2 * step)
        assert abs(t.grad[i] - fd) < 1e-4 * max(abs(fd), 1.0)


def test_series_prior_param_partition():
    model = PiModel(small_cfg())
    series = set(model.series_param_names())
    prior = set(model.prior_param_names())
    assert series.isdisjoint(prior)
    assert series | prior == set(model.params.keys())
    assert any("field." in n for n in prior)
    assert any("phase_period" in n for n in prior)


def test_no_phase_mode_uses_uniform_prior():
    cfg = small_cfg(prior_mode="no_phase")
    model = PiModel(cfg)
    rng = np.random.default_rng(4)
    uniform = causal_mask(16) / causal_mask(16).sum(axis=-1, keepdims=True)
    for shape in ((16, 3), (4, 16, 3)):
        attn = model.attention_maps(Tensor(rng.normal(size=shape)))
        for P in attn.prior:
            assert P.shape == shape[:-2] + (2, 16, 16)
            assert np.array_equal(P.data, np.broadcast_to(uniform, P.shape))


@pytest.mark.parametrize("shape", [(16, 3), (4, 16, 3)],
                         ids=["window", "batch"])
def test_no_phase_mode_records_nothing_for_the_prior(shape):
    """UniformPrior has no inputs: a taped forward records neither output
    that depends on the prior, and the score reads exactly 0.0."""
    model = PiModel(small_cfg(prior_mode="no_phase", num_layers=2))
    x = Tensor(np.random.default_rng(6).normal(size=shape))
    with Tape():
        out = model.forward(x)
    for att in out.attention:
        assert att.kl_series._cell is not None
        assert att.kl_prior._cell is None and att.score._cell is None
        assert att.score.data.tobytes() == np.float64(0.0).tobytes()


def test_single_head_mode_shares_prior_across_heads():
    cfg = small_cfg(prior_mode="single_head")
    model = PiModel(cfg)
    rng = np.random.default_rng(5)
    attn = model.attention_maps(Tensor(rng.normal(size=(16, 3))))
    for P in attn.prior:
        np.testing.assert_array_equal(P.data[0], P.data[1])


@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in logaddexp:RuntimeWarning")
@pytest.mark.parametrize("mode", ["full", "single_head"])
def test_non_finite_prior_logits_raise(mode, monkeypatch):
    """A NaN field bias makes every prior logit NaN; a NaN in the last
    window of a batch spread over one window per block reaches the last
    block only. Both raise NumericError."""
    rng = np.random.default_rng(7)
    model = PiModel(small_cfg(prior_mode=mode))
    model.params["layer0.field.b1"].data[0] = np.nan
    for shape in ((16, 3), (3, 16, 3)):
        with pytest.raises(ad.NumericError, match="non-finite prior kernel"), \
                np.errstate(invalid="ignore"):
            model.forward(Tensor(rng.normal(size=shape)))
    model = PiModel(small_cfg(prior_mode=mode))
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    batch = rng.normal(size=(3, 16, 3))
    model.forward(Tensor(batch))
    batch[-1, 5, 0] = np.nan
    with pytest.raises(ad.NumericError, match="non-finite prior kernel"):
        model.forward(Tensor(batch))


def test_forward_deterministic():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(16, 3))
    r1 = PiModel(small_cfg()).forward(Tensor(w)).recon.data
    r2 = PiModel(small_cfg()).forward(Tensor(w)).recon.data
    assert np.array_equal(r1, r2)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = small_cfg(num_layers=2)
    model = PiModel(cfg)
    ckpt = Checkpoint(model=model, train_cfg=TrainConfig(), epoch=0,
                      best_val_recon=1.5, hurst_target=0.5)
    path = tmp_path / "model.npz"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path).model
    assert loaded.cfg == cfg
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data)
    w = Tensor(np.random.default_rng(8).normal(size=(16, 3)))
    assert np.array_equal(model.forward(w).recon.data,
                          loaded.forward(w).recon.data)


# ---------------------------------------------------------------------------
# rescaled-range Hurst estimator
# ---------------------------------------------------------------------------


def test_hurst_white_noise_half():
    ests = []
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=4096)
        h, flagged = estimate_hurst_rs(x)
        assert not flagged
        ests.append(h)
    ests = np.asarray(ests)
    assert np.all(np.abs(ests - 0.5) < 0.1)


def test_hurst_trending_above_noise():
    rng = np.random.default_rng(0)
    walk = np.cumsum(rng.normal(size=4096))
    h_walk, _ = estimate_hurst_rs(walk)
    h_noise, _ = estimate_hurst_rs(rng.normal(size=4096))
    assert h_walk > h_noise + 0.2


def test_hurst_antipersistent_below_half():
    rng = np.random.default_rng(1)
    noise = rng.normal(size=4097)
    x = np.diff(noise)  # strongly anti-correlated increments
    h, _ = estimate_hurst_rs(x)
    assert h < 0.45


def test_hurst_constant_series_flagged():
    h, flagged = estimate_hurst_rs(np.ones(512))
    assert h == 0.5 and flagged


def test_hurst_scale_invariance_exact():
    x = np.random.default_rng(2).normal(size=2048)
    h, _ = estimate_hurst_rs(x)
    # power-of-two rescaling is exact in binary floating point
    for c in (2.0, 0.5, 1024.0):
        hc, _ = estimate_hurst_rs(c * x)
        assert hc == h


def test_hurst_short_series_rejected():
    with pytest.raises(ad.ContractError):
        estimate_hurst_rs(np.zeros(10))


def test_hurst_clamped_to_open_interval():
    # near-perfect trend pushes the raw slope high; output stays in (0,1)
    t = np.linspace(0, 1, 1024)
    h, _ = estimate_hurst_rs(t + 1e-9 * np.random.default_rng(3).normal(size=1024))
    assert 0.01 <= h <= 0.99
