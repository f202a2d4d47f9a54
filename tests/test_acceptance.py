"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line; the expensive synthetic runs share
trained models through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

import priorad.autodiff as ad
from priorad.autodiff import Tensor, Tape
from priorad.data import (ANOMALY_TYPES, StandardizerStats,
                          default_synthetic_spec, standardize, synth_generate)
from priorad.evaluation import (benchmark_configs, f1_from_pr,
                                run_synthetic_pipeline)
from priorad.model import ModelConfig, PiModel, causal_mask, estimate_hurst_rs
from priorad.scoring import (ScoringConfig, alignment_weights, detect, fuse,
                             mismatch_delta, point_adjust, robust_normalize)
from priorad.training import (TrainConfig, loss_reconstruction, loss_sym_kl,
                              train, save_checkpoint, load_checkpoint,
                              _regularizer)

from chains import FixedLogitsPrior, reference_dual_attention


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def tiny_model():
    cfg = ModelConfig(window_length=16, channels=3, model_dim=16,
                      num_layers=1, num_heads=2, feedforward_dim=32, seed=0)
    return PiModel(cfg)


def detection_run(seed, kinds, epochs=10, prior_mode="full"):
    """One synthetic suite through the pipeline ``priorad ablate`` runs;
    returns (spec, scores, point-adjusted metrics)."""
    spec = default_synthetic_spec(seed=seed, length=4000, channels=3,
                                  kinds=kinds)
    return (spec, *run_synthetic_pipeline(spec, *benchmark_configs(
        seed=seed, prior_mode=prior_mode, epochs=epochs)))


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


_REAL_STOP_GRADIENT = ad.stop_gradient


class _FrozenStopGrad:
    """Replay stop_gradient outputs captured at the base point.

    Finite differences must hold detached values constant: autodiff sees
    no flow through a stop_gradient, so the FD reference has to evaluate
    the loss with those tensors pinned at their unperturbed values.
    Call order is deterministic, so a simple replay list suffices.
    """

    def __init__(self):
        self.recording = True
        self.cache = []
        self.pos = 0
        self._orig = _REAL_STOP_GRADIENT

    def __call__(self, a):
        if self.recording:
            self.cache.append(a.data.copy())
            return self._orig(a)
        out = self.cache[self.pos % len(self.cache)]
        self.pos += 1
        return Tensor(out)


def test_criterion_01_gradient_suite(monkeypatch):
    """The fused op's parameter gradients equal the chain of single ops'
    bitwise, and the chain's match finite differences. The differences run
    through the chain, whose stop_gradient outputs are replayed at their
    values at the base point, so that the frozen side stays constant."""
    start = time.time()
    model = tiny_model()
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 16, 3)))
    tcfg = TrainConfig(k=3.0)

    def full_loss(sign, frozen):
        out = model.forward(x)
        recon = loss_reconstruction(x, out.recon)
        sym = loss_sym_kl(out.attention, frozen=frozen)
        reg, *_ = _regularizer(out, tcfg, hurst_target=0.5)
        return recon + sign * tcfg.k * sym + reg

    def gradients(sign, frozen):
        for p in model.parameters():
            p.grad = None
        with Tape() as tape:
            loss = full_loss(sign, frozen)
        tape.backward(loss)
        return {name: (p.grad.copy() if p.grad is not None
                       else np.zeros_like(p.data))
                for name, p in model.params.items()}

    worst = 0.0
    same = True
    step = 1e-5
    for sign, frozen in ((-1.0, "prior"), (+1.0, "series")):
        fused = gradients(sign, frozen)
        with monkeypatch.context() as m:
            m.setattr(ad, "dual_attention", reference_dual_attention)
            shim = _FrozenStopGrad()
            m.setattr(ad, "stop_gradient", shim)
            grads = gradients(sign, frozen)
            same &= all(fused[name].tobytes() == g.tobytes()
                        for name, g in grads.items())
            shim.recording = False
            for name, p in model.params.items():
                flat = p.data.reshape(-1)
                for idx in rng.choice(flat.size, size=min(2, flat.size),
                                      replace=False):
                    orig = flat[idx]
                    shim.pos = 0
                    flat[idx] = orig + step
                    up = full_loss(sign, frozen).item()
                    shim.pos = 0
                    flat[idx] = orig - step
                    down = full_loss(sign, frozen).item()
                    flat[idx] = orig
                    fd = (up - down) / (2 * step)
                    got = grads[name].reshape(-1)[idx]
                    # mixed tolerance: below ~1e-5 the FD quotient itself
                    # is dominated by roundoff, so floor the denominator
                    worst = max(worst,
                                abs(got - fd) / max(abs(fd), abs(got), 1e-5))
    elapsed = time.time() - start
    report(1, "gradient suite", worst < 1e-4 and same and elapsed < 60,
           f"max rel err {worst:.2e}, fused equals chain bitwise: {same}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. distribution invariants
# ---------------------------------------------------------------------------


def test_criterion_02_distribution_invariants(monkeypatch):
    model = tiny_model()
    rng = np.random.default_rng(1)
    ok = True
    detail = []
    tri = ~causal_mask(16)
    for i in range(4):
        batch = Tensor(rng.normal(size=(250, 16, 3)))
        attn = model.attention_maps(batch)
        for stack in (attn.series, attn.prior):
            for a in stack:
                ok &= bool(np.abs(a.data.sum(axis=-1) - 1.0).max() <= 1e-6)
                ok &= bool(np.all(a.data[..., tri] == 0.0))
        delta = mismatch_delta(model.forward(batch).attention,
                               temperature=10.0)
        ok &= bool(np.all(delta >= 0.0))
        w = alignment_weights(delta)
        ok &= bool(np.abs(w.sum(axis=-1) - 1.0).max() <= 1e-9)
    # forced S = P gives zero mismatch: each layer's prior is the
    # fixed-logits prior whose P is its series attention
    window = Tensor(rng.normal(size=(16, 3)))
    series = iter(model.attention_maps(window).series)
    monkeypatch.setattr(model, "prior_attention",
                        lambda fields: FixedLogitsPrior(next(series).data))
    forced = mismatch_delta(model.forward(window).attention, temperature=10.0)
    ok &= bool(np.abs(forced).max() < 1e-10)
    report(2, "distribution invariants", ok,
           f"1000 windows, forced-delta max {np.abs(forced).max():.1e}")


# ---------------------------------------------------------------------------
# 3. stop-gradient asymmetry
# ---------------------------------------------------------------------------


def test_criterion_03_stop_gradient_asymmetry():
    model = tiny_model()
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 16, 3)))
    ok = True
    for frozen, frozen_names in (("prior", model.prior_param_names()),
                                 ("series", model.series_param_names())):
        for p in model.parameters():
            p.grad = None
        with Tape() as tape:
            out = model.forward(x)
            sym = loss_sym_kl(out.attention, frozen=frozen)
        tape.backward(sym)
        for name in frozen_names:
            g = model.params[name].grad
            ok &= g is None or bool(np.all(g == 0.0))
    report(3, "stop-gradient asymmetry", ok, "exact zeros both passes")


# ---------------------------------------------------------------------------
# 4. equation fixtures
# ---------------------------------------------------------------------------


def test_criterion_04_equation_fixtures():
    ok = True
    w = alignment_weights(np.array([0.0, np.log(2.0)]))
    ok &= bool(np.abs(w - [2 / 3, 1 / 3]).max() <= 1e-12)
    ok &= robust_normalize(np.array([5.0]), 5.0, 2.0)[0] == 0.0
    ok &= robust_normalize(np.array([7.0]), 5.0, 2.0)[0] == 1.0
    ok &= bool(np.array_equal(fuse(np.array([1.0, 0.2]), np.array([0.3, 2.0])),
                              [1.0, 2.0]))
    f1 = f1_from_pr(97.37, 98.80)
    ok &= abs(f1 - 98.08) <= 0.01
    report(4, "equation fixtures", ok, f"F1(97.37, 98.80) = {f1:.4f}")


# ---------------------------------------------------------------------------
# 5. point-adjust oracle
# ---------------------------------------------------------------------------


def test_criterion_05_point_adjust_oracle():
    rng = np.random.default_rng(3)

    def brute(y_hat, y_true):
        out = y_hat.copy()
        n = len(y_true)
        for s in range(n):
            if y_true[s] and (s == 0 or not y_true[s - 1]):
                e = s
                while e < n and y_true[e]:
                    e += 1
                if out[s:e].any():
                    out[s:e] = True
        return out

    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 201))
        y_true = rng.random(n) < rng.uniform(0.05, 0.4)
        y_hat = rng.random(n) < rng.uniform(0.02, 0.3)
        got = point_adjust(y_hat, y_true)
        ok &= bool(np.array_equal(got, brute(y_hat, y_true)))
        ok &= bool(np.array_equal(point_adjust(got, y_true), got))
    report(5, "point-adjust oracle", ok, "500 random pairs + idempotence")


# ---------------------------------------------------------------------------
# 6–7. synthetic end-to-end and mechanism checks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_suite_runs():
    start = time.time()
    runs = {seed: detection_run(seed, kinds=ANOMALY_TYPES)
            for seed in (0, 1, 2)}
    return runs, time.time() - start


@pytest.mark.slow
def test_criterion_06_synthetic_end_to_end(full_suite_runs):
    runs, elapsed = full_suite_runs
    ok = elapsed < 600
    details = [f"{elapsed:.0f}s"]
    for seed, (spec, scores, metrics) in runs.items():
        hits = sum(1 for s in spec.segments
                   if scores.y_hat[s.start:s.start + s.length].any())
        ok &= metrics.f1 >= 90.0 and hits == len(spec.segments)
        details.append(f"seed {seed}: F1 {metrics.f1:.1f}, "
                       f"{hits}/{len(spec.segments)} segments")
    report(6, "synthetic end-to-end", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_07_mechanism_checks():
    L = 25
    spec, scores, _ = detection_run(0, kinds=("seasonal",))
    seg = spec.segments[0]
    near = scores.d_norm[max(0, seg.start - L): seg.start + seg.length + L]
    nominal = np.r_[scores.d_norm[: seg.start - L],
                    scores.d_norm[seg.start + seg.length + L:]]
    ratio_ok = near.max() >= 5.0 * max(float(np.median(nominal)), 1e-12)

    spec_p, scores_p, _ = detection_run(0, kinds=("point",))
    targets = [s.start for s in spec_p.segments]
    argmax = int(np.argmax(scores_p.e_norm))
    point_ok = any(abs(argmax - t) <= L for t in targets)
    report(7, "mechanism checks", ratio_ok and point_ok,
           f"seasonal peak/median ratio ok {ratio_ok}, "
           f"energy argmax {argmax} vs onset {targets}")


# ---------------------------------------------------------------------------
# 8. ablation direction
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_08_ablation_direction():
    ok = True
    details = []
    for seed in (1, 2, 3):
        f1 = {}
        for mode in ("full", "no_phase", "single_head"):
            _, _, metrics = detection_run(seed, kinds=("seasonal", "trend"),
                                          epochs=14, prior_mode=mode)
            f1[mode] = metrics.f1
        direction = f1["no_phase"] < f1["full"]
        between = (min(f1["no_phase"], f1["full"]) <= f1["single_head"]
                   <= max(f1["no_phase"], f1["full"]))
        close = abs(f1["single_head"] - f1["full"]) <= 2.0
        ok &= direction and (between or close)
        details.append(f"seed {seed}: full {f1['full']:.1f}, "
                       f"no_phase {f1['no_phase']:.1f}, "
                       f"single_head {f1['single_head']:.1f}")
    report(8, "ablation direction", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. determinism & persistence
# ---------------------------------------------------------------------------


def test_criterion_09_determinism_and_persistence(tmp_path):
    spec = default_synthetic_spec(seed=5, length=800, channels=3,
                                  kinds=("point",))
    raw_train, raw_test, _ = synth_generate(spec)
    stats = StandardizerStats.fit(raw_train)
    z_train = standardize(raw_train, stats)
    z_test = standardize(raw_test, stats)
    mcfg = ModelConfig(window_length=16, channels=3, model_dim=16,
                       num_layers=1, num_heads=2, feedforward_dim=32, seed=0)
    tcfg = TrainConfig(k=3.0, series_ascent=False, max_epochs=2,
                       batch_size=64, learning_rate=1e-3)
    scfg = ScoringConfig(temperature=10.0, anomaly_ratio=1.0,
                         window_length=16, batch_size=64)

    logs = []
    ckpts = []
    for i in (0, 1):
        log = tmp_path / f"log{i}.csv"
        ckpts.append(train(z_train, mcfg, tcfg, log_path=log))
        logs.append(log.read_text())
    log_ok = logs[0] == logs[1]

    f_direct = detect(ckpts[0].model, z_train, z_train, z_test, scfg).f
    path = tmp_path / "ck.npz"
    save_checkpoint(ckpts[0], path)
    reloaded = load_checkpoint(path)
    f_reloaded = detect(reloaded.model, z_train, z_train, z_test, scfg).f
    score_ok = bool(np.array_equal(f_direct, f_reloaded))
    report(9, "determinism & persistence", log_ok and score_ok,
           f"log bitwise {log_ok}, f-stream bitwise {score_ok}")


# ---------------------------------------------------------------------------
# 10. Hurst estimator
# ---------------------------------------------------------------------------


def test_criterion_10_hurst_estimator():
    ests = []
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=4096)
        h, flagged = estimate_hurst_rs(x)
        ests.append(h)
    ests = np.asarray(ests)
    noise_ok = bool(np.all(np.abs(ests - 0.5) < 0.1))

    x = np.random.default_rng(99).normal(size=2048)
    h0, _ = estimate_hurst_rs(x)
    scale_ok = all(estimate_hurst_rs(c * x)[0] == h0
                   for c in (2.0, 0.5, 1024.0))
    report(10, "hurst estimator", noise_ok and scale_ok,
           f"white-noise range [{ests.min():.3f}, {ests.max():.3f}], "
           f"scale-exact {scale_ok}")
