import numpy as np
import pytest

from priorad.data import (
    ANOMALY_TYPES, AnomalySegment, ParseError, SplitError, StandardizerStats,
    SyntheticSpec, default_synthetic_spec, read_labels, read_table,
    split_min_rows, split_train_val,
    standardize, synth_generate, windows, write_csv, _read_matrix,
)


def test_standardize_roundtrip():
    rng = np.random.default_rng(0)
    train = rng.normal(loc=3.0, scale=2.0, size=(500, 4))
    stats = StandardizerStats.fit(train)
    z = standardize(train, stats)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)


def test_standardize_constant_channel_floored():
    train = np.ones((100, 2))
    stats = StandardizerStats.fit(train)
    assert np.all(stats.std == 1e-8)
    assert np.isfinite(standardize(train, stats)).all()


def test_windows_count_and_content():
    series = np.arange(20.0).reshape(10, 2)
    w = windows(series, 4)
    assert w.shape == (7, 4, 2)
    np.testing.assert_array_equal(w[0], series[:4])
    np.testing.assert_array_equal(w[-1], series[6:])


def test_windows_are_a_read_only_view():
    series = np.arange(20.0).reshape(10, 2)
    w = windows(series, 4)
    assert np.shares_memory(w, series)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0, 0] = 1.0


def test_standardize_rejects_another_width():
    stats = StandardizerStats.fit(np.arange(12.0).reshape(4, 3))
    with pytest.raises(ValueError, match="3 channels"):
        standardize(np.zeros((5, 1)), stats)


def test_windows_too_short():
    with pytest.raises(SplitError):
        windows(np.zeros((3, 1)), 5)


def test_split_train_val_chronological():
    series = np.arange(10.0)[:, None]
    tr, val = split_train_val(series, 0.2)
    assert len(tr) == 8 and len(val) == 2
    np.testing.assert_array_equal(val[:, 0], [8.0, 9.0])


def test_split_rejects_degenerate():
    with pytest.raises(SplitError):
        split_train_val(np.zeros((10, 1)), 0.2, min_length=5)
    with pytest.raises(SplitError):
        split_train_val(np.zeros((10, 1)), 1.5)


def test_split_min_rows_is_the_fewest_rows_split_accepts():
    for val_fraction in (0.05, 0.2, 0.25, 0.3, 0.5, 0.7, 0.95):
        for min_length in (1, 5, 16, 25, 100):
            need = split_min_rows(val_fraction, min_length, min_length)
            with pytest.raises(SplitError):
                split_train_val(np.zeros((need - 1, 1)), val_fraction,
                                min_length)
            for n in range(need, need + 50):
                split_train_val(np.zeros((n, 1)), val_fraction, min_length)
    assert split_min_rows(0.2, 16, 16) == 78  # 78 -> 62/16, 77 -> 62/15
    # train's fit side also takes the Hurst estimate's 64 rows
    assert split_min_rows(0.2, 64, 16) == 80  # 80 -> 64/16, 79 -> 63/16
    assert split_min_rows(0.5, 64, 16) == 127  # round(63.5) == 64


@pytest.mark.parametrize("val_fraction", [0.05, 0.2, 0.5, 0.7])
@pytest.mark.parametrize("fit_rows, val_rows", [(64, 16), (64, 100), (5, 25)])
def test_split_min_rows_takes_a_minimum_for_each_side(val_fraction, fit_rows,
                                                      val_rows):
    def sides(n):
        fit, val = split_train_val(np.zeros((n, 1)), val_fraction)
        return len(fit) >= fit_rows and len(val) >= val_rows

    need = split_min_rows(val_fraction, fit_rows, val_rows)
    assert not sides(need - 1)
    assert all(sides(n) for n in range(need, need + 50))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def test_read_matrix_header_autodetect(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("x,y\n1,2\n3,4\n")
    m = _read_matrix(p)
    np.testing.assert_array_equal(m, [[1, 2], [3, 4]])
    p2 = tmp_path / "b.csv"
    p2.write_text("1,2\n3,4\n")
    np.testing.assert_array_equal(_read_matrix(p2), m)


def test_read_matrix_reports_bad_cell(tmp_path):
    p = tmp_path / "bad.csv"
    for content, message in [
        ("1,2\n3,oops\n", "non-numeric cell at row 1, column 1: 'oops'"),
        ("1,2\n3,nan\n", "non-finite cell at row 1, column 1: nan"),
        ("1,inf\n3,4\n", "non-finite cell at row 0, column 1: inf"),
        ("1,2\n-inf,4\n", "non-finite cell at row 1, column 0: -inf"),
        # data rows count from 0, the header and blank lines left out
        ("x,y\n1,2\n\n3,a\n", "non-numeric cell at row 1, column 1: 'a'"),
        ("x,y\n1,2\n\n3,nan\n", "non-finite cell at row 1, column 1: nan"),
        ("x,y\n1,2\n\n3\n", "ragged row 1: 1 cells, expected 2"),
    ]:
        p.write_text(content)
        with pytest.raises(ParseError) as info:
            _read_matrix(p)
        assert str(info.value) == f"{p}: {message}"


def test_read_matrix_ragged_row(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(ParseError, match="ragged"):
        _read_matrix(p)


def test_read_labels_validation(tmp_path):
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n")
    np.testing.assert_array_equal(read_labels(labels, 2, "test.csv"),
                                  [False, True])

    for content, message in [("0\n2\n",
                              r"labels\.csv: label at row 1 is 2, expected"),
                             ("label\n1\n0.5\n", "label at row 1 is 0.5,"),
                             ("0,1\n1,0\n", "single column"),
                             ("0\n", "labels.csv has 1 labels, but "
                                     "test.csv has 2 rows")]:
        labels.write_text(content)
        with pytest.raises(ParseError, match=message):
            read_labels(labels, 2, "test.csv")


def test_write_csv_rereads_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.normal(size=(50, 3))
    p = tmp_path / "m.csv"
    write_csv(p, m, header=["a", "b", "c"])
    assert p.read_bytes().startswith(b"a,b,c\r\n")
    back = _read_matrix(p)
    assert np.array_equal(back, m)  # repr() round-trips float64 exactly
    write_csv(p, m[:, 0])  # a vector is one column
    assert np.array_equal(_read_matrix(p), m[:, :1])
    # a float cell, NumPy's too, is its exact repr; any other as csv writes it
    write_csv(p, [[3, np.int64(4), 0.1, np.float64(1.5), "ok", True]])
    assert p.read_bytes() == b"3,4,0.1,1.5,ok,True\r\n"


def test_read_table_returns_header_and_checks_its_width(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1,2\n3,4\n")
    header, m = read_table(p)
    assert header == ["x", "y"]
    np.testing.assert_array_equal(m, [[1, 2], [3, 4]])
    p.write_text("1,2\n3,4\n")
    assert read_table(p)[0] is None
    p.write_text("\na,b\n1,2\n3,4\n")  # blank lines before the header
    header, m = read_table(p)
    assert header == ["a", "b"]
    np.testing.assert_array_equal(m, [[1, 2], [3, 4]])
    p.write_text("1,2\na,b\n")  # a name line after data is an error
    with pytest.raises(ParseError, match="non-numeric cell at row 1"):
        read_table(p)
    p.write_text("x,y,z\n1,2\n")
    with pytest.raises(ParseError, match="header has 3 columns, rows have 2"):
        read_table(p)


def test_read_table_drops_a_byte_order_mark(tmp_path):
    """A UTF-8 BOM before a matrix does not make its first row a header."""
    bom = b"\xef\xbb\xbf"
    p = tmp_path / "bom.csv"
    p.write_bytes(bom + b"1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    header, m = read_table(p)
    assert header is None
    np.testing.assert_array_equal(m, [[1, 2], [3, 4], [5, 6]])
    p.write_bytes(bom + "x,\u00e9t\u00e9\n1,2\n".encode())
    header, m = read_table(p)
    assert header == ["x", "\u00e9t\u00e9"]
    np.testing.assert_array_equal(m, [[1, 2]])


# ---------------------------------------------------------------------------
# synthetic benchmark
# ---------------------------------------------------------------------------


def test_spec_validates_segments():
    with pytest.raises(ValueError, match="out of bounds"):
        SyntheticSpec(length=100,
                      segments=[AnomalySegment("point", 90, 20, 1.0)])
    with pytest.raises(ValueError, match="overlaps"):
        SyntheticSpec(length=100,
                      segments=[AnomalySegment("point", 10, 20, 1.0),
                                AnomalySegment("trend", 15, 10, 1.0)])
    with pytest.raises(ValueError, match="unknown anomaly"):
        AnomalySegment("wiggle", 0, 5, 1.0)


def test_synthetic_sizes_are_checked():
    for kwargs, need in ((dict(channels=0), "channels must be >= 1, got 0"),
                         (dict(length=-1), "length must be >= 1, got -1"),
                         (dict(seed=-1), "seed must be >= 0, got -1")):
        with pytest.raises(ValueError, match=need):
            SyntheticSpec(**kwargs)
    # the fewest rows that fit every requested kind: n + 1 for n >= 2 kinds
    for kinds, need in ((ANOMALY_TYPES, 6), (("seasonal", "trend"), 3),
                        (("point",), 1)):
        with pytest.raises(ValueError, match=f"length must be >= {need}"):
            default_synthetic_spec(kinds=kinds, length=need - 1)
        synth_generate(default_synthetic_spec(kinds=kinds, length=need))
    with pytest.raises(ValueError, match="channels must be >= 1"):
        default_synthetic_spec(channels=0)


def test_synth_deterministic_bitwise():
    a = synth_generate(default_synthetic_spec(seed=3, length=1000))
    b = synth_generate(default_synthetic_spec(seed=3, length=1000))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = synth_generate(default_synthetic_spec(seed=4, length=1000))
    assert not np.array_equal(a[0], c[0])


def test_synth_labels_exactly_on_segments():
    spec = default_synthetic_spec(seed=0, length=2000)
    _, _, labels = synth_generate(spec)
    want = np.zeros(2000, bool)
    for s in spec.segments:
        want[s.start:s.start + s.length] = True
    np.testing.assert_array_equal(labels, want)
    assert {s.kind for s in spec.segments} == set(ANOMALY_TYPES)


def test_synth_train_is_clean_and_periodic():
    spec = default_synthetic_spec(seed=0, length=2000)
    train, _, _ = synth_generate(spec)
    # autocorrelation at the common period of both sinusoids stays high
    p = int(spec.base_period * 2)  # lcm of periods P/4 and P/1.5
    x = train[:, 0] - train[:, 0].mean()
    ac = (x[:-p] * x[p:]).mean() / x.var()
    assert ac > 0.8


def test_point_anomaly_is_a_large_spike():
    spec = SyntheticSpec(length=1000, segments=[
        AnomalySegment("point", 500, 1, 25.0)])
    _, test, _ = synth_generate(spec)
    clean_spec = SyntheticSpec(length=1000, segments=[])
    _, clean, _ = synth_generate(clean_spec)
    diff = np.abs(test - clean).max(axis=1)
    assert np.argmax(diff) == 500
    np.testing.assert_allclose(diff[500], 25.0 * spec.noise_sigma, atol=1e-9)
    assert diff[:500].max() == 0.0 and diff[501:].max() == 0.0


def test_collective_anomaly_is_flat():
    spec = SyntheticSpec(length=1000, segments=[
        AnomalySegment("collective", 400, 50, 15.0)])
    _, test, _ = synth_generate(spec)
    seg = test[400:450]
    assert np.ptp(seg, axis=0).max() == 0.0
    assert np.abs(seg[0] - test[399]).min() > 1.0 * spec.noise_sigma


def test_trend_anomaly_ramps_and_recovers():
    spec = SyntheticSpec(length=1000, segments=[
        AnomalySegment("trend", 300, 100, 30.0)])
    _, test, _ = synth_generate(spec)
    _, clean, _ = synth_generate(SyntheticSpec(length=1000, segments=[]))
    drift = (test - clean)[:, 0]
    assert abs(drift[300]) < 1e-9                      # ramp starts at zero
    np.testing.assert_allclose(drift[399], 30.0 * 0.1, atol=1e-9)
    assert np.abs(drift[400:]).max() == 0.0            # recovers after


def test_seasonal_anomaly_shifts_phase_by_half_period():
    # magnitude 1.0 advances the phase by pi: the dominant sinusoid flips
    # sign, so correlation with the clean draw over the segment is negative
    spec = SyntheticSpec(length=2000, segments=[
        AnomalySegment("seasonal", 1000, 140, 1.0)], noise_sigma=0.01)
    _, test, _ = synth_generate(spec)
    _, clean, _ = synth_generate(SyntheticSpec(length=2000, segments=[],
                                               noise_sigma=0.01))
    seg_t = test[1000:1140, 0]
    seg_c = clean[1000:1140, 0]
    corr = np.corrcoef(seg_t, seg_c)[0, 1]
    assert corr < -0.5
    pre = np.corrcoef(test[800:1000, 0], clean[800:1000, 0])[0, 1]
    assert pre > 0.9


def test_contextual_anomaly_offsets_within_range():
    spec = SyntheticSpec(length=1000, segments=[
        AnomalySegment("contextual", 600, 60, 8.0)])
    _, test, _ = synth_generate(spec)
    _, clean, _ = synth_generate(SyntheticSpec(length=1000, segments=[]))
    seg = slice(600, 660)
    shift = test[seg] - clean[seg]
    assert shift.min() >= 0.0
    assert np.median(shift) >= 3.0 * spec.noise_sigma - 1e-9
    assert test[seg].max() <= test.max()  # clipped into the global range
