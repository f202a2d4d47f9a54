import numpy as np
import pytest

import priorad.autodiff as ad
from priorad import scoring
from priorad.autodiff import Tensor
from priorad.model import ModelConfig, PiModel
from priorad.scoring import (
    EPS_IQR, NormStats, ScoreSeries, ScoringConfig, alignment_weights,
    detect, energy, fuse, mismatch_delta, point_adjust, project_to_timeline,
    raw_streams, robust_normalize, score_series, threshold_and_label,
    window_streams, write_score_csv,
)


def test_alignment_weights_fixture():
    w = alignment_weights(np.array([0.0, np.log(2.0)]))
    np.testing.assert_allclose(w, [2 / 3, 1 / 3], atol=1e-12)


def test_alignment_weights_sum_and_order():
    rng = np.random.default_rng(0)
    d = rng.random((50, 20)) * 5
    w = alignment_weights(d)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)
    # larger mismatch -> smaller weight within each window
    for row_d, row_w in zip(d, w):
        order = np.argsort(row_d)
        assert np.all(np.diff(row_w[order]) <= 1e-15)


def test_alignment_weights_stable_for_huge_mismatch():
    w = alignment_weights(np.array([0.0, 5000.0, 10000.0]))
    assert np.isfinite(w).all()
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)


def test_energy_is_elementwise_product():
    w = np.array([0.25, 0.75])
    r = np.array([4.0, 2.0])
    np.testing.assert_array_equal(energy(w, r), [1.0, 1.5])


def test_robust_normalize_fixture():
    med, iqr = 2.0, 3.0
    assert robust_normalize(np.array([med]), med, iqr)[0] == 0.0
    assert robust_normalize(np.array([med + iqr]), med, iqr)[0] == 1.0
    assert robust_normalize(np.array([med - 10]), med, iqr)[0] == 0.0


def test_robust_normalize_floors_iqr():
    out = robust_normalize(np.array([1.0 + EPS_IQR]), 1.0, 0.0)
    np.testing.assert_allclose(out, [1.0])


def test_norm_stats_flags_degenerate_iqr():
    stats = NormStats.fit(np.ones(100), np.arange(100.0))
    assert stats.flagged
    assert stats.energy_iqr == EPS_IQR


def test_fuse_is_pointwise_max():
    a = np.array([1.0, 0.0, 3.0])
    b = np.array([0.5, 2.0, 3.0])
    np.testing.assert_array_equal(fuse(a, b), [1.0, 2.0, 3.0])


def test_threshold_percentile_fixture():
    # pooled scores 1..100, ratio 5 -> tau at the 95th linear percentile
    pool = np.arange(1.0, 101.0)
    tau, y = threshold_and_label(pool[:50], pool[50:],
                                 np.array([95.0, 95.1, 96.0]), 5.0)
    np.testing.assert_allclose(tau, np.percentile(pool, 95.0))
    np.testing.assert_array_equal(y, [False, True, True])


def test_threshold_strictly_greater():
    pool = np.zeros(10)
    tau, y = threshold_and_label(pool, pool, np.array([0.0, 0.1]), 1.0)
    assert tau == 0.0
    np.testing.assert_array_equal(y, [False, True])


def test_threshold_rejects_bad_ratio():
    with pytest.raises(ad.ContractError):
        threshold_and_label(np.ones(4), np.ones(4), np.ones(4), 0.0)


# ---------------------------------------------------------------------------
# point adjustment
# ---------------------------------------------------------------------------


def brute_force_adjust(y_hat, y_true):
    """Independent oracle: expand hits over each contiguous true segment."""
    y_hat = np.asarray(y_hat, bool).copy()
    y_true = np.asarray(y_true, bool)
    n = len(y_true)
    for start in range(n):
        if y_true[start] and (start == 0 or not y_true[start - 1]):
            end = start
            while end < n and y_true[end]:
                end += 1
            if any(y_hat[t] for t in range(start, end)):
                for t in range(start, end):
                    y_hat[t] = True
    return y_hat


def test_point_adjust_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(1, 201))
        y_true = rng.random(n) < 0.15
        y_hat = rng.random(n) < 0.1
        got = point_adjust(y_hat, y_true)
        np.testing.assert_array_equal(got, brute_force_adjust(y_hat, y_true))


def test_point_adjust_idempotent_and_monotone():
    rng = np.random.default_rng(7)
    y_true = rng.random(300) < 0.2
    y_hat = rng.random(300) < 0.1
    once = point_adjust(y_hat, y_true)
    np.testing.assert_array_equal(point_adjust(once, y_true), once)
    assert np.all(once >= y_hat)  # never removes a positive


def test_point_adjust_untouched_outside_segments():
    y_true = np.array([0, 0, 1, 1, 0, 0], bool)
    y_hat = np.array([1, 0, 0, 1, 0, 1], bool)
    out = point_adjust(y_hat, y_true)
    np.testing.assert_array_equal(out, [1, 0, 1, 1, 0, 1])


def test_point_adjust_miss_leaves_segment_negative():
    y_true = np.array([0, 1, 1, 0], bool)
    y_hat = np.zeros(4, bool)
    np.testing.assert_array_equal(point_adjust(y_hat, y_true), y_hat)


def test_point_adjust_shape_mismatch():
    with pytest.raises(ad.ContractError):
        point_adjust(np.zeros(3, bool), np.zeros(4, bool))


# ---------------------------------------------------------------------------
# timeline projection
# ---------------------------------------------------------------------------


def test_projection_enumerated_small_case():
    # n = L + 1 gives two windows; check every output index by hand
    L, n = 4, 5
    per_window = np.array([[10.0, 11.0, 12.0, 13.0],
                           [20.0, 21.0, 22.0, 23.0]])
    out = project_to_timeline(per_window, n, L)
    np.testing.assert_array_equal(out, [10.0, 11.0, 12.0, 13.0, 23.0])


def test_projection_stride_one_tail():
    rng = np.random.default_rng(1)
    L, n = 6, 30
    per_window = rng.random((n - L + 1, L))
    out = project_to_timeline(per_window, n, L)
    for t in range(L - 1, n):
        assert out[t] == per_window[t - L + 1, L - 1]


def test_projection_rejects_wrong_cover():
    with pytest.raises(ad.ContractError):
        project_to_timeline(np.zeros((3, 4)), 10, 4)


# ---------------------------------------------------------------------------
# model-backed streams
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_model():
    cfg = ModelConfig(window_length=12, channels=2, model_dim=8,
                      num_layers=1, num_heads=2, feedforward_dim=16, seed=0)
    return PiModel(cfg)


def tiny_scfg(**kw):
    base = dict(temperature=1.0, anomaly_ratio=5.0, window_length=12,
                batch_size=16)
    base.update(kw)
    return ScoringConfig(**base)


def test_mismatch_delta_zero_when_attentions_equal(tiny_model):
    rng = np.random.default_rng(3)
    out = tiny_model.forward(Tensor(rng.normal(size=(12, 2))))
    out.attn.prior = [Tensor(S.data.copy()) for S in out.attn.series]
    delta = mismatch_delta(out.attn, temperature=10.0)
    np.testing.assert_allclose(delta, 0.0, atol=1e-10)
    assert np.all(mismatch_delta(out.attn, 10.0) >= 0.0)


def test_mismatch_delta_nonnegative_and_scales_with_temperature(tiny_model):
    rng = np.random.default_rng(4)
    out = tiny_model.forward(Tensor(rng.normal(size=(12, 2))))
    d1 = mismatch_delta(out.attn, 1.0)
    d10 = mismatch_delta(out.attn, 10.0)
    assert np.all(d1 >= 0.0)
    np.testing.assert_allclose(d10, 10.0 * d1, atol=1e-12)


def test_window_streams_shapes_and_weight_sum(tiny_model):
    rng = np.random.default_rng(5)
    series = rng.normal(size=(40, 2))
    cfg = tiny_scfg()
    r, delta, w, e = window_streams(tiny_model, series, cfg)
    k = 40 - 12 + 1
    assert r.shape == delta.shape == w.shape == e.shape == (k, 12)
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(r >= 0.0) and np.all(delta >= 0.0)


def test_raw_streams_cover_series(tiny_model):
    rng = np.random.default_rng(6)
    series = rng.normal(size=(35, 2))
    r, delta, w, e = raw_streams(tiny_model, series, tiny_scfg())
    assert len(r) == len(delta) == len(w) == len(e) == 35
    np.testing.assert_allclose(e, w * r, atol=1e-15)


def test_detect_end_to_end_contracts(tiny_model):
    rng = np.random.default_rng(8)
    train = rng.normal(size=(60, 2))
    thresh = rng.normal(size=(40, 2))
    test = rng.normal(size=(50, 2))
    scores = detect(tiny_model, train, thresh, test, tiny_scfg())
    assert scores.y_hat.dtype == bool and len(scores.y_hat) == 50
    assert scores.threshold is not None
    np.testing.assert_array_equal(scores.y_hat, scores.f > scores.threshold)
    assert np.all(scores.f >= 0.0)


def test_detect_forwards_each_split_once(tiny_model, monkeypatch):
    """One window_streams call per split, with the same streams and
    threshold as fitting the statistics on a separate forward."""
    rng = np.random.default_rng(12)
    train, thresh, test = (rng.normal(size=(n, 2)) for n in (60, 40, 50))
    cfg = tiny_scfg()
    _, delta, _, e = raw_streams(tiny_model, train, cfg)
    stats = NormStats.fit(e, delta)
    f_train = score_series(tiny_model, train, cfg, stats).f
    f_thresh = score_series(tiny_model, thresh, cfg, stats).f
    want = score_series(tiny_model, test, cfg, stats)
    tau, y_hat = threshold_and_label(f_train, f_thresh, want.f,
                                     cfg.anomaly_ratio)

    lengths = []

    def counted(model, series, cfg):
        lengths.append(len(series))
        return window_streams(model, series, cfg)

    monkeypatch.setattr(scoring, "window_streams", counted)
    got = detect(tiny_model, train, thresh, test, cfg)
    assert lengths == [60, 40, 50]
    for name in ("r", "delta", "w", "e", "e_norm", "d_norm", "f"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert np.array_equal(got.y_hat, y_hat)
    assert got.threshold == tau


def test_score_series_deterministic(tiny_model):
    rng = np.random.default_rng(9)
    series = rng.normal(size=(40, 2))
    cfg = tiny_scfg()
    stats = NormStats(0.0, 1.0, 0.0, 1.0)
    s1 = score_series(tiny_model, series, cfg, stats)
    s2 = score_series(tiny_model, series, cfg, stats)
    assert np.array_equal(s1.f, s2.f)


def test_score_csv_roundtrip(tmp_path, tiny_model):
    rng = np.random.default_rng(10)
    series = rng.normal(size=(30, 2))
    scores = detect(tiny_model, series, series, series, tiny_scfg())
    path = tmp_path / "scores.csv"
    write_score_csv(path, scores, y_true=np.zeros(30, int))
    back = np.genfromtxt(path, delimiter=",", names=True)
    assert len(back) == 30
    np.testing.assert_array_equal(back["f"], scores.f)  # repr round-trips
    np.testing.assert_array_equal(back["y_hat"].astype(bool), scores.y_hat)


def test_series_shorter_than_window_rejected(tiny_model):
    with pytest.raises(ad.ContractError):
        window_streams(tiny_model, np.zeros((5, 2)), tiny_scfg())
