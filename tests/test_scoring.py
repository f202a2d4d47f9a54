import tracemalloc

import numpy as np
import pytest

import priorad.autodiff as ad
from priorad import scoring
from priorad.autodiff import Tensor
from priorad.model import ModelConfig, PiModel
from priorad.scoring import (
    EPS_IQR, NormStats, ScoreSeries, ScoringConfig, alignment_weights,
    detect, energy, fuse, mismatch_delta, point_adjust, read_score_csv,
    robust_normalize, score_series, threshold_and_label, window_streams,
    write_score_csv,
)
from priorad.data import ParseError, SplitError
from priorad.evaluation import benchmark_configs

from chains import FixedLogitsPrior


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


def test_mismatch_delta_zero_when_attentions_equal(tiny_model, monkeypatch):
    """Each layer's prior is the fixed-logits prior whose P is its series
    attention."""
    rng = np.random.default_rng(3)
    window = Tensor(rng.normal(size=(12, 2)))
    series = iter(tiny_model.attention_maps(window).series)
    monkeypatch.setattr(tiny_model, "prior_attention",
                        lambda fields: FixedLogitsPrior(next(series).data))
    out = tiny_model.forward(window)
    delta = mismatch_delta(out.attention, temperature=10.0)
    np.testing.assert_allclose(delta, 0.0, atol=1e-10)
    assert np.all(mismatch_delta(out.attention, 10.0) >= 0.0)


def test_mismatch_delta_nonnegative_and_scales_with_temperature(tiny_model):
    rng = np.random.default_rng(4)
    out = tiny_model.forward(Tensor(rng.normal(size=(12, 2))))
    d1 = mismatch_delta(out.attention, 1.0)
    d10 = mismatch_delta(out.attention, 10.0)
    assert np.all(d1 >= 0.0)
    np.testing.assert_allclose(d10, 10.0 * d1, atol=1e-12)


def _stacked_streams(model, series, cfg):
    """The composition ``window_streams`` replaced, kept as its reference:
    stack every window, compute the [K, L] per-window streams batch by
    batch, then project each to the timeline end-anchored."""
    L = cfg.window_length
    wins = np.stack([series[i : i + L] for i in range(len(series) - L + 1)])
    rs, deltas = [], []
    for i in range(0, len(wins), cfg.batch_size):
        b = wins[i : i + cfg.batch_size]
        out = model.forward(Tensor(b))
        rs.append(((out.recon.data - b) ** 2).mean(axis=-1))
        deltas.append(mismatch_delta(out.attention, cfg.temperature))
    r, delta = np.concatenate(rs), np.concatenate(deltas)
    w = alignment_weights(delta)
    projected = []
    for per_window in (r, delta, w, energy(w, r)):
        stream = np.empty(len(series))
        stream[: L - 1] = per_window[0, : L - 1]
        stream[L - 1 :] = per_window[:, L - 1]
        projected.append(stream)
    return projected


@pytest.mark.parametrize("mode", ["full", "no_phase", "single_head"])
def test_window_streams_match_stacked_reference_bitwise(mode):
    cfg = ModelConfig(window_length=12, channels=2, model_dim=8,
                      num_layers=2, num_heads=2, feedforward_dim=16, seed=1,
                      prior_mode=mode)
    model = PiModel(cfg)
    series = np.random.default_rng(5).normal(size=(40, 2))
    k = 40 - 12 + 1
    for batch_size in (1, 7, k - 1, k, k + 1):
        scfg = tiny_scfg(batch_size=batch_size)
        got = window_streams(model, series, scfg)
        want = _stacked_streams(model, series, scfg)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert g.shape == (40,) and g.tobytes() == w.tobytes()


def test_window_streams_memory_does_not_grow_with_window_count(tiny_model):
    """Streaming keeps the four length-n streams and one batch: ten times
    the points add far less than 16 doubles a point (the stacked windows
    and [K, L] streams took 12 * (2 + 4) doubles a window)."""
    cfg = tiny_scfg(batch_size=128)
    peaks = []
    for n in (4000, 40000):
        series = np.random.default_rng(n).normal(size=(n, 2))
        tracemalloc.start()
        window_streams(tiny_model, series, cfg)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 36000 * 16 * 8


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
    _, delta, _, e = window_streams(tiny_model, train, cfg)
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


def test_desk_detect_bitwise_with_one_and_two_workers(monkeypatch):
    """At desk scale a batch of 128 windows spans several blocks, which two
    workers run two at a time."""
    model_cfg, _, cfg = benchmark_configs()
    model = PiModel(model_cfg)
    rng = np.random.default_rng(19)
    train, thresh, test = (rng.normal(size=(n, 3)) for n in (300, 200, 300))
    blocks, made = ad._blocks, []

    def counted(n, window_bytes):  # the blocks dual_attention makes
        out = blocks(n, window_bytes)
        made.append((n, len(out)))
        return out

    monkeypatch.setattr(ad, "_blocks", counted)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(ad, "WORKERS", workers)
        made.clear()
        scores = detect(model, train, thresh, test, cfg)
        runs.append(scores.f.tobytes() + scores.y_hat.tobytes())
        full = [count for n, count in made if n == cfg.batch_size]
        assert full and min(full) > 2
    assert runs[0] == runs[1]


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


def test_write_score_csv_rejects_unlabelled_scores(tmp_path, tiny_model):
    # score_series leaves y_hat None; a y_hat column of zeros would be wrong
    scores = score_series(tiny_model, np.zeros((30, 2)), tiny_scfg(),
                          NormStats(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ad.ContractError, match="y_hat"):
        write_score_csv(tmp_path / "scores.csv", scores)
    assert not (tmp_path / "scores.csv").exists()


def test_read_score_csv_reads_what_write_score_csv_writes(tmp_path,
                                                          tiny_model):
    rng = np.random.default_rng(11)
    series = rng.normal(size=(30, 2))
    scores = detect(tiny_model, series, series, series, tiny_scfg())
    y_true = np.arange(30) % 3 == 0
    path = tmp_path / "scores.csv"
    write_score_csv(path, scores, y_true=y_true)
    y_hat, back = read_score_csv(path)
    assert np.array_equal(y_hat, scores.y_hat)
    assert np.array_equal(back, y_true)
    write_score_csv(path, scores)
    assert read_score_csv(path)[1] is None


@pytest.mark.parametrize("text, message", [
    ("t,y_hat\n0,0\n1,2\n", "column 'y_hat' at row 1 is 2, expected 0 or 1"),
    ("t,y_hat,y_true\n0,0,1\n1,1,0.5\n",
     "column 'y_true' at row 1 is 0.5, expected 0 or 1"),
    ("t,y_hat\n0,0\n1,nan\n", "non-finite cell at row 1, column 1: nan"),
    ("t,y_hat\n0,0\n1\n", "ragged row 1: 1 cells, expected 2"),
    ("t,f\n0,0.5\n", "including 'y_hat'"),
    ("t,y_hat,score\n0,0,1\n", "are not distinct names"),
    ("t,y_hat,y_hat\n0,0,1\n", "are not distinct names"),
    ("0,1\n1,0\n", "no header line"),
], ids=["y_hat_2", "y_true_half", "nan", "ragged", "no_y_hat",
        "unknown_column", "repeated_column", "no_header"])
def test_read_score_csv_rejects(tmp_path, text, message):
    path = tmp_path / "scores.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        read_score_csv(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def test_scoring_config_rejects_empty_batches():
    with pytest.raises(ValueError, match="batch_size"):
        ScoringConfig(batch_size=0)


def test_series_shorter_than_window_rejected(tiny_model):
    with pytest.raises(SplitError, match="series length 5 < window length"):
        window_streams(tiny_model, np.zeros((5, 2)), tiny_scfg())
