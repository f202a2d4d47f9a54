import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import priorad.autodiff as ad
from priorad.autodiff import Tensor, Tape, OptimizerState
from priorad.cli import main
from priorad.model import ConfigError, ModelConfig, PiModel, PriorFields
from priorad.training import (
    Checkpoint, DivergedError, LossBreakdown, TrainConfig,
    dataset_hurst_target, load_checkpoint, loss_hurst_distill,
    loss_prior_score_l2, loss_reconstruction, loss_smoothness, loss_sym_kl,
    minmax_step,
    save_checkpoint, train, validation_recon_loss,
)


def small_cfg(**kw):
    base = dict(window_length=16, channels=2, model_dim=16, num_layers=1,
                num_heads=2, feedforward_dim=32, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def sine_series(n=600, channels=2, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    out = np.stack([np.sin(2 * np.pi * t / 20 + c) for c in range(channels)],
                   axis=1)
    out += rng.normal(0, noise, out.shape)
    return (out - out.mean(axis=0)) / out.std(axis=0)


class FakeFields:
    def __init__(self, hurst, stiffness):
        self.hurst = Tensor(np.asarray(hurst, dtype=np.float64))
        self.stiffness = Tensor(np.asarray(stiffness, dtype=np.float64))


def fake_attention(series, prior):
    """Per layer, the KL rows of the given S and P, made by sym_kl_rows as
    dual_attention makes them."""
    layers = []
    for s, p in zip(series, prior):
        kl = ad.sym_kl_rows(Tensor(np.asarray(s)[None]),
                            Tensor(np.asarray(p)[None]))
        layers.append(SimpleNamespace(kl_series=kl, kl_prior=kl))
    return layers


# ---------------------------------------------------------------------------
# loss fixtures
# ---------------------------------------------------------------------------


def test_recon_loss_fixtures():
    x = Tensor(np.zeros((2, 1)))
    assert loss_reconstruction(x, Tensor(np.zeros((2, 1)))).item() == 0.0
    assert loss_reconstruction(x, Tensor(np.ones((2, 1)))).item() == 1.0
    resid = Tensor(np.array([[1.0], [3.0]]))
    np.testing.assert_allclose(loss_reconstruction(x, resid).item(), 5.0)


def test_recon_loss_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        loss_reconstruction(Tensor(np.zeros((2, 1))),
                            Tensor(np.zeros((2, 2))))


def test_smoothness_fixtures():
    const = FakeFields(np.full(4, 0.5), np.full(4, 2.0))
    assert loss_smoothness([const]).item() == 0.0
    alt = FakeFields(np.array([0.0, 1.0, 0.0, 1.0]), np.full(4, 2.0))
    np.testing.assert_allclose(loss_smoothness([alt]).item(), 1.0)
    # quadratic homogeneity in the field differences
    scaled = FakeFields(3.0 * np.array([0.0, 1.0, 0.0, 1.0]), np.full(4, 2.0))
    np.testing.assert_allclose(loss_smoothness([scaled]).item(), 9.0)


def test_smoothness_needs_two_positions():
    with pytest.raises(ad.ContractError):
        loss_smoothness([FakeFields(np.ones(1), np.ones(1))])


def test_hurst_distill_fixtures():
    f = FakeFields(np.full(8, 0.5), np.ones(8))
    assert loss_hurst_distill([f], 0.5).item() == 0.0
    f2 = FakeFields(np.full(8, 0.3), np.ones(8))
    np.testing.assert_allclose(loss_hurst_distill([f2], 0.5).item(), 0.04)
    # invariant to position permutation
    f3 = FakeFields(np.array([0.2, 0.4, 0.6, 0.8]), np.ones(4))
    f4 = FakeFields(np.array([0.8, 0.2, 0.4, 0.6]), np.ones(4))
    assert (loss_hurst_distill([f3], 0.5).item()
            == loss_hurst_distill([f4], 0.5).item())


def test_hurst_distill_rejects_bad_target():
    with pytest.raises(ad.ContractError):
        loss_hurst_distill([FakeFields(np.ones(4) * 0.5, np.ones(4))], 1.5)


def test_sym_kl_identity_and_fixture():
    rows = np.array([[1.0, 0.0], [0.5, 0.5]])
    attn = fake_attention([rows], [rows.copy()])
    np.testing.assert_allclose(
        loss_sym_kl(attn, frozen="prior").item(), 0.0, atol=1e-9)

    other = np.array([[1.0, 0.0], [0.25, 0.75]])
    attn2 = fake_attention([rows], [other])
    got = loss_sym_kl(attn2, frozen="prior").item()
    np.testing.assert_allclose(got, 0.2746, atol=1e-4)


def test_sym_kl_rejects_unknown_side():
    rows = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError):
        loss_sym_kl(fake_attention([rows], [rows]), frozen="both")


def test_sym_kl_sign_structure():
    """d(L1)/d(symKL) = -k and d(L2)/d(symKL) = +k around the same point."""
    model = PiModel(small_cfg())
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(16, 2)))

    def losses(k):
        out = model.forward(x)
        recon = loss_reconstruction(x, out.recon)
        sym = loss_sym_kl(out.attention, frozen="prior")
        return (recon.item() - k * sym.item(),
                recon.item() + k * sym.item(), sym.item())

    l1_a, l2_a, sym = losses(3.0)
    l1_b, l2_b, _ = losses(3.0 + 1e-3)
    np.testing.assert_allclose((l1_b - l1_a) / 1e-3, -sym, rtol=1e-6)
    np.testing.assert_allclose((l2_b - l2_a) / 1e-3, sym, rtol=1e-6)


def test_stop_gradient_asymmetry_exact_zeros():
    model = PiModel(small_cfg())
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 16, 2)))

    # pass-1 style: prior frozen -> symKL gradient on prior params is zero
    for p in model.parameters():
        p.grad = None
    with Tape() as tape:
        out = model.forward(x)
        sym = loss_sym_kl(out.attention, frozen="prior")
    tape.backward(sym)
    for name in model.prior_param_names():
        g = model.params[name].grad
        assert g is None or np.all(g == 0.0), name
    assert any(model.params[n].grad is not None
               and np.any(model.params[n].grad != 0.0)
               for n in model.series_param_names())

    # pass-2 style: series frozen -> symKL gradient on series params is zero
    for p in model.parameters():
        p.grad = None
    with Tape() as tape:
        out = model.forward(x)
        sym = loss_sym_kl(out.attention, frozen="series")
    tape.backward(sym)
    for name in model.series_param_names():
        g = model.params[name].grad
        assert g is None or np.all(g == 0.0), name
    assert any(model.params[n].grad is not None
               and np.any(model.params[n].grad != 0.0)
               for n in model.prior_param_names())


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------


def test_minmax_step_reduces_recon_on_tiny_batch():
    series = sine_series(seed=2)
    model = PiModel(small_cfg())
    opt = OptimizerState(model.parameters(), lr=1e-3, clip_norm=5.0)
    cfg = TrainConfig(k=0.1, learning_rate=1e-3, max_epochs=1)
    batch = np.stack([series[i:i + 16] for i in range(0, 64, 4)])
    first = None
    for _ in range(50):
        bd = minmax_step(batch, model, opt, cfg, hurst_target=0.5)
        if first is None:
            first = bd.recon
    assert bd.recon < 0.5 * first


def test_minmax_step_k_zero_decouples():
    """With k=0 both passes optimize the same objective."""
    series = sine_series(seed=3)
    batch = np.stack([series[i:i + 16] for i in range(0, 32, 8)])

    def run(k):
        model = PiModel(small_cfg())
        opt = OptimizerState(model.parameters(), lr=1e-3, clip_norm=5.0)
        cfg = TrainConfig(k=k, max_epochs=1)
        return minmax_step(batch, model, opt, cfg, 0.5)

    bd = run(0.0)
    np.testing.assert_allclose(bd.total_L1, bd.recon + bd.total_L1
                               - bd.recon)  # finite
    # L1 and L2 differ only by the sign of k*symKL; with k=0 they evaluate
    # the same quantity at the two sequential parameter states
    bd2 = run(0.0)
    assert bd.total_L1 == bd2.total_L1  # deterministic too


def test_minmax_step_losses_finite_and_nonnegative_terms():
    series = sine_series(seed=4)
    batch = np.stack([series[i:i + 16] for i in range(0, 32, 8)])
    model = PiModel(small_cfg())
    opt = OptimizerState(model.parameters(), lr=1e-4, clip_norm=5.0)
    bd = minmax_step(batch, model, opt, TrainConfig(), 0.5)
    for name in ("recon", "sym_kl", "smooth", "hurst", "score_l2"):
        v = getattr(bd, name)
        assert np.isfinite(v) and v >= 0.0, name


def _reference_step(batch, model, opt, cfg, hurst_target):
    """The two-pass update written out pass by pass.

    Pass 1 descends recon - k1*symKL(S || sg P) + R with k1 = k when
    series_ascent is on, else 0; pass 2 descends recon + k*symKL(P || sg S)
    + R. Both KL terms stay in the loss even when their weight is zero.
    """
    x = Tensor(batch)
    k1 = cfg.k if cfg.series_ascent else 0.0
    for sign, k, frozen in ((-1.0, k1, "prior"), (1.0, cfg.k, "series")):
        opt.zero_grad()
        with Tape() as tape:
            out = model.forward(x)
            recon = loss_reconstruction(x, out.recon)
            sym = loss_sym_kl(out.attention, frozen=frozen)
            reg = (cfg.lambda_reg * loss_smoothness(out.fields)
                   + cfg.lambda_hurst * loss_hurst_distill(out.fields,
                                                           hurst_target)
                   + cfg.lambda_score * loss_prior_score_l2(out.prior_scores))
            loss = (recon - k * sym if sign < 0 else recon + k * sym) + reg
        tape.backward(loss)
        opt.step()


@pytest.mark.parametrize("tcfg", [
    dict(k=3.0, series_ascent=True),
    dict(k=3.0, series_ascent=False),
    dict(k=0.0, series_ascent=True),
], ids=["ascent_on", "ascent_off", "k_zero"])
def test_minmax_step_matches_two_pass_reference_bitwise(tcfg):
    series = sine_series(seed=14)
    batch = np.stack([series[i:i + 16] for i in range(0, 64, 8)])
    cfg = TrainConfig(learning_rate=1e-3, **tcfg)
    runs = []
    for step_fn in (minmax_step, _reference_step):
        model = PiModel(small_cfg())
        opt = OptimizerState(model.parameters(), lr=cfg.learning_rate,
                             clip_norm=cfg.clip_norm)
        for _ in range(2):
            step_fn(batch, model, opt, cfg, 0.6)
        runs.append((model, opt))
    (model, opt), (ref_model, ref_opt) = runs
    for name, p in model.params.items():
        assert np.array_equal(p.data, ref_model.params[name].data), name
    for i in range(len(opt.params)):
        assert np.array_equal(opt.m[i], ref_opt.m[i]), i
        assert np.array_equal(opt.v[i], ref_opt.v[i]), i


@pytest.mark.filterwarnings(
    "ignore:overflow encountered in multiply:RuntimeWarning")
def test_diverged_step_raises_with_term_name():
    model = PiModel(small_cfg())
    opt = OptimizerState(model.parameters(), lr=1e-4)
    bad = np.full((1, 16, 2), 1e200)  # recon error overflows to inf
    with pytest.raises(DivergedError, match="recon"):
        minmax_step(bad, model, opt, TrainConfig(), 0.5)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(k=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("max_epochs", 0), ("learning_rate", 0.0),
    ("learning_rate", -1.0), ("clip_norm", 0.0), ("val_fraction", 0.0),
    ("val_fraction", 1.0), ("k", -1.0), ("lambda_reg", -0.1),
    ("lambda_hurst", -1.0), ("lambda_score", -1e-9), ("k", float("nan")),
    ("learning_rate", float("inf")), ("lambda_reg", float("nan")),
    ("learning_rate", 10 ** 400), ("batch_size", 10 ** 400)])
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be .*, got {value}"):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def quick_tcfg(**kw):
    base = dict(k=0.0, max_epochs=2, batch_size=64, learning_rate=1e-3,
                patience=3)
    base.update(kw)
    return TrainConfig(**base)


def test_train_best_checkpoint_contract():
    series = sine_series(seed=7)
    ck = train(series, small_cfg(), quick_tcfg(max_epochs=3))
    # returned model reproduces the recorded best validation loss
    L = 16
    val = series[int(round(len(series) * 0.8)):]
    val_w = np.stack([val[i:i + L] for i in range(len(val) - L + 1)])
    got = validation_recon_loss(ck.model, val_w)
    np.testing.assert_allclose(got, ck.best_val_recon, rtol=1e-10)


def test_train_reproducible_bitwise(tmp_path):
    series = sine_series(seed=8)
    log1 = tmp_path / "log1.csv"
    log2 = tmp_path / "log2.csv"
    ck1 = train(series, small_cfg(), quick_tcfg(), log_path=log1)
    ck2 = train(series, small_cfg(), quick_tcfg(), log_path=log2)
    assert log1.read_text() == log2.read_text()
    for name, p in ck1.model.params.items():
        assert np.array_equal(p.data, ck2.model.params[name].data)


def test_training_log_columns(tmp_path):
    series = sine_series(seed=9)
    log = tmp_path / "log.csv"
    train(series, small_cfg(), quick_tcfg(max_epochs=1), log_path=log)
    header = log.read_text().splitlines()[0].split(",")
    for col in ("step", "recon", "sym_kl", "smooth", "hurst",
                "total_L1", "total_L2"):
        assert col in header


def test_early_stop_counts_from_first_trained_epoch(monkeypatch):
    """patience=1 with strictly worsening validation -> exactly 2 epochs."""
    import priorad.training as tr
    calls = {"n": 0}

    def fake_val(model, val_windows, batch_size=256):
        calls["n"] += 1
        return float(calls["n"])  # strictly worsening

    monkeypatch.setattr(tr, "validation_recon_loss", fake_val)
    series = sine_series(seed=10)
    ck = tr.train(series, small_cfg(), quick_tcfg(max_epochs=10, patience=1))
    assert ck.epoch == 1           # best is the first trained epoch
    assert calls["n"] == 2         # stopped after the second evaluation


def test_train_rejects_empty_series():
    with pytest.raises(ad.ContractError):
        train(np.zeros((0, 2)), small_cfg(), quick_tcfg())


def test_checkpoint_roundtrip(tmp_path):
    series = sine_series(seed=11)
    tcfg = quick_tcfg(max_epochs=1)
    ck = train(series, small_cfg(num_layers=2), tcfg)
    path = tmp_path / "ck.npz"
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    assert back.model.cfg == ck.model.cfg
    assert back.train_cfg == tcfg
    assert back.epoch == ck.epoch
    assert back.best_val_recon == ck.best_val_recon
    assert back.hurst_target == ck.hurst_target
    for name, p in ck.model.params.items():
        assert np.array_equal(p.data, back.model.params[name].data)
    w = Tensor(np.random.default_rng(8).normal(size=(16, 2)))
    assert np.array_equal(ck.model.forward(w).recon.data,
                          back.model.forward(w).recon.data)
    # parameters and metadata only: no optimizer state
    with np.load(path) as z:
        assert set(z.files) == {"__meta__"} | {f"param::{n}"
                                               for n in ck.model.params}


def _rewrite_checkpoint(src, dst, edit):
    """Copy an .npz checkpoint, letting ``edit(meta, arrays)`` change it."""
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(bytes(arrays.pop("__meta__")).decode())
    edit(meta, arrays)
    np.savez(dst, __meta__=np.frombuffer(json.dumps(meta).encode(),
                                         dtype=np.uint8), **arrays)


def _as_format_1(meta, arrays):
    """The layout written before format 2: config, extra, Adam moments."""
    extra = {k: meta.pop(k) for k in ("epoch", "best_val_recon",
                                      "hurst_target")}
    config = meta.pop("model")
    meta.clear()
    meta.update(format_version=1, config=config, extra=extra)
    arrays["extra::step_count"] = np.array(3.0)
    for i, name in enumerate(n for n in list(arrays) if n.startswith("param")):
        arrays[f"extra::m_{i}"] = np.zeros_like(arrays[name])
        arrays[f"extra::v_{i}"] = np.zeros_like(arrays[name])


def _drop_param(meta, arrays):
    del arrays["param::layer0.Wq"]


def _reshape_param(meta, arrays):
    arrays["param::head.b"] = np.zeros(3)


def _unknown_param(meta, arrays):
    arrays["param::layer9.Wq"] = np.zeros((16, 16))


def _nan_param(meta, arrays):
    arrays["param::head.W"][0, 0] = np.nan


def _string_param(meta, arrays):
    arrays["param::head.b"] = np.full(arrays["param::head.b"].shape, "a")


def _bad_config(meta, arrays):
    meta["model"]["dropout"] = 0.1


def _meta_not_object(src, dst):
    """Valid JSON in __meta__, but a list where an object belongs."""
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["__meta__"] = np.frombuffer(b"[1, 2]", dtype=np.uint8)
    np.savez(dst, **arrays)


def _not_npz(src, dst):
    dst.write_text("1.0,2.0\n3.0,4.0\n")


def _truncated(src, dst):
    dst.write_bytes(src.read_bytes()[:2000])


def _empty(src, dst):
    dst.write_bytes(b"")


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "ck.npz"
    save_checkpoint(train(sine_series(seed=11), small_cfg(),
                          quick_tcfg(max_epochs=1)), path)
    return path


def _rewritten(edit):
    return lambda src, dst: _rewrite_checkpoint(src, dst, edit)


@pytest.mark.parametrize("write, problem", [
    (_rewritten(_as_format_1), "format_version 1 is not supported"),
    (_rewritten(_drop_param), r"missing parameters \['layer0.Wq'\]"),
    (_rewritten(_unknown_param), r"unknown parameters \['layer9.Wq'\]"),
    (_rewritten(_reshape_param), r"'head.b' has shape \(3,\)"),
    (_rewritten(_nan_param), "parameter 'head.W' holds a non-finite value"),
    (_rewritten(_string_param),
     "parameter 'head.b' has dtype <U1, not a real float dtype"),
    (_rewritten(_bad_config), "dropout"),
    (_meta_not_object, "unreadable __meta__ record: a list, not an object"),
    (_not_npz, "unreadable .npz archive: ValueError"),
    (_truncated, "unreadable .npz archive: BadZipFile"),
    (_empty, "unreadable .npz archive: EOFError"),
], ids=["format_1", "dropped_param", "unknown_param", "reshaped_param",
        "nan_param", "string_param", "bad_config", "meta_not_object",
        "not_npz", "truncated", "empty"])
def test_load_checkpoint_rejects(saved_checkpoint, tmp_path, capsys, write,
                                 problem):
    bad = tmp_path / "bad.npz"
    write(saved_checkpoint, bad)
    with pytest.raises(ConfigError, match=re.escape(str(bad))) as err:
        load_checkpoint(bad)
    assert re.search(problem, str(err.value))
    assert main(["score", "--checkpoint", str(bad), "--train-csv", "x",
                 "--test-csv", "y", "--labels-csv", "z",
                 "--out", str(tmp_path)]) == 1
    assert f"checkpoint {bad}" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


def test_non_collapse_after_training():
    """Trained series and prior attentions keep a measurable gap."""
    series = sine_series(seed=12)
    ck = train(series, small_cfg(), quick_tcfg(k=3.0, series_ascent=False))
    w = Tensor(series[:16])
    out = ck.model.forward(w)
    gap = loss_sym_kl(out.attention, frozen="prior").item()
    assert gap > 0.0


def test_dataset_hurst_target_in_range():
    series = sine_series(n=800, seed=13)
    t = dataset_hurst_target(series)
    assert 0.01 <= t <= 0.99
