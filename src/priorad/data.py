"""Dataset ingestion, standardization, windowing, and synthetic benchmarks.

The synthetic generator produces C channels of two superposed sinusoids
with fixed per-channel phase offsets plus Gaussian noise, and injects the
five canonical anomaly types: point, contextual, collective, seasonal
(phase break), and trend.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

ANOMALY_TYPES = ("point", "contextual", "collective", "seasonal", "trend")


class ParseError(ValueError):
    """Raised on malformed dataset files, with row/column location."""


class SplitError(ValueError):
    """Raised when a split would leave a side shorter than a window."""


@dataclass
class StandardizerStats:
    mean: np.ndarray  # per channel
    std: np.ndarray   # per channel, floored at 1e-8

    @classmethod
    def fit(cls, train: np.ndarray) -> "StandardizerStats":
        return cls(
            mean=train.mean(axis=0),
            std=np.maximum(train.std(axis=0), 1e-8),
        )


def standardize(data: np.ndarray, stats: StandardizerStats) -> np.ndarray:
    """(data - mean) / std per channel of a [n, C] matrix; a C other than
    the standardizer's is a ValueError, never a broadcast."""
    if data.ndim != 2 or data.shape[1] != len(stats.mean):
        raise ValueError(f"data of shape {data.shape} does not have the "
                         f"standardizer's {len(stats.mean)} channels")
    return (data - stats.mean) / stats.std


def read_table(path):
    """Read a CSV of finite numbers as (header, [rows, columns] float64).

    A first non-blank line that does not parse as numbers is the header,
    returned as a list of names (None when there is none). Rows in error
    messages count data rows from 0, header and blank lines excluded.
    """
    header, rows = None, []
    # utf-8-sig drops a byte-order mark, which would otherwise turn the
    # first row into a header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            vals = []
            for c, cell in enumerate(row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    if header is None and not rows:
                        header = row
                        break
                    raise ParseError(
                        f"{path}: non-numeric cell at row {len(rows)}, "
                        f"column {c}: {cell!r}"
                    ) from None
            else:
                rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0])
    if header is not None and len(header) != width:
        raise ParseError(f"{path}: header has {len(header)} columns, "
                         f"rows have {width}")
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"{path}: ragged row {r}: {len(row)} cells, expected {width}"
            )
    matrix = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        r, c = bad[0]
        raise ParseError(
            f"{path}: non-finite cell at row {r}, column {c}: {matrix[r, c]}"
        )
    return header, matrix


def _read_matrix(path) -> np.ndarray:
    """``read_table`` without the header."""
    return read_table(path)[1]


def binary_column(path, values: np.ndarray, what: str) -> np.ndarray:
    """``values`` as a bool array; ParseError names the first entry that
    is not 0 or 1 by its data row, calling the column ``what``."""
    bad = np.flatnonzero((values != 0.0) & (values != 1.0))
    if bad.size:
        r = int(bad[0])
        raise ParseError(
            f"{path}: {what} at row {r} is {values[r]:g}, expected 0 or 1"
        )
    return values == 1.0


def read_labels(path, rows: int, rows_from) -> np.ndarray:
    """Read a single 0/1 label column (optional header) as a bool array of
    one label per row of the file ``rows_from``, which has ``rows`` rows.

    Rows in error messages count data rows from 0, header excluded.
    """
    labels = _read_matrix(path)
    if labels.shape[1] != 1:
        raise ParseError(
            f"{path}: labels must be a single column, got {labels.shape[1]}"
        )
    if len(labels) != rows:
        raise ParseError(f"{path} has {len(labels)} labels, but {rows_from} "
                         f"has {rows} rows")
    return binary_column(path, labels[:, 0], "label")


def windows(series: np.ndarray, length: int) -> np.ndarray:
    """All K = n - L + 1 overlapping windows [K, L, C] of ``series`` [n, C]
    as a read-only view: nothing is copied, so callers gather a batch into
    an array of its own before forwarding it."""
    n = len(series)
    if n < length:
        raise SplitError(f"series length {n} < window length {length}")
    return np.lib.stride_tricks.sliding_window_view(
        series, length, axis=0).swapaxes(-1, -2)


def split_train_val(series: np.ndarray, val_fraction: float,
                    min_length: int = 1):
    """Chronological split: validation is the final fraction of the series."""
    if not (0.0 < val_fraction < 1.0):
        raise SplitError("val_fraction must be in (0, 1)")
    cut = int(round(len(series) * (1.0 - val_fraction)))
    train, val = series[:cut], series[cut:]
    if len(train) < min_length or len(val) < min_length:
        raise SplitError(
            f"split {len(train)}/{len(val)} leaves a side shorter than "
            f"{min_length}"
        )
    return train, val


def split_min_rows(val_fraction: float, fit_rows: int, val_rows: int) -> int:
    """The fewest rows that ``split_train_val`` splits into a fit side of
    ``fit_rows`` rows or more and a validation side of ``val_rows`` or more.
    Both sides grow with the row count, so the search counts up from below
    the real-number bound on it."""
    keep = 1.0 - val_fraction
    n = int(max((fit_rows - 0.5) / keep, (val_rows - 0.5) / val_fraction)) - 1
    while not fit_rows <= round(n * keep) <= n - val_rows:
        n += 1
    return n


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------


@dataclass
class AnomalySegment:
    kind: str
    start: int
    length: int
    magnitude: float

    def __post_init__(self):
        if self.kind not in ANOMALY_TYPES:
            raise ValueError(f"unknown anomaly type {self.kind!r}")


@dataclass
class SyntheticSpec:
    length: int = 4000
    channels: int = 3
    noise_sigma: float = 0.1
    base_period: float = 100.0   # sets the two sinusoid periods P/4, P/1.5
    segments: list = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        for name, value, low in (("length", self.length, 1),
                                 ("channels", self.channels, 1),
                                 ("seed", self.seed, 0)):
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        segs = sorted(self.segments, key=lambda s: s.start)
        prev_end = -1
        for s in segs:
            if s.start < 0 or s.start + s.length > self.length:
                raise ValueError(f"segment {s} out of bounds")
            if s.start <= prev_end:
                raise ValueError(f"segment {s} overlaps its predecessor")
            prev_end = s.start + s.length - 1
        self.segments = segs


def _base_signal(spec: SyntheticSpec, t0: int, n: int,
                 rng: np.random.Generator,
                 phase_break: list | None = None) -> np.ndarray:
    """Sum of two sinusoids per channel + noise over timestamps t0..t0+n-1.

    ``phase_break`` is a list of (onset, shift) pairs: from each onset
    onward every sinusoid's phase is advanced by ``shift`` radians.
    """
    t = np.arange(t0, t0 + n, dtype=np.float64)
    shift = np.zeros(n)
    if phase_break:
        for onset, delta in phase_break:
            shift[t >= onset] += delta
    p1 = spec.base_period / 4.0
    p2 = spec.base_period / 1.5
    out = np.empty((n, spec.channels))
    for c in range(spec.channels):
        off = 2.0 * np.pi * c / max(spec.channels, 1)
        out[:, c] = (
            np.sin(2.0 * np.pi * t / p1 + off + shift)
            + 0.5 * np.sin(2.0 * np.pi * t / p2 + 0.5 * off + shift)
        )
    out += rng.normal(0.0, spec.noise_sigma, size=out.shape)
    return out


def synth_generate(spec: SyntheticSpec):
    """Generate (train, test, labels) per the spec; seed-reproducible.

    Train is a clean draw of the base process. Test is a fresh draw with
    anomalies injected on the configured segments; labels are 1 exactly on
    injected segments.
    """
    rng = np.random.default_rng(spec.seed)
    train = _base_signal(spec, 0, spec.length, rng)

    phase_breaks = [
        (s.start, s.magnitude * np.pi)
        for s in spec.segments if s.kind == "seasonal"
    ]
    test = _base_signal(spec, spec.length, spec.length, rng,
                        phase_break=[(spec.length + on, d)
                                     for on, d in phase_breaks])
    labels = np.zeros(spec.length, dtype=bool)
    sigma = spec.noise_sigma

    for s in spec.segments:
        sl = slice(s.start, s.start + s.length)
        labels[sl] = True
        if s.kind == "point":
            # additive spike on one channel at each index of the segment
            for i in range(s.start, s.start + s.length):
                test[i, i % spec.channels] += s.magnitude * sigma
        elif s.kind == "contextual":
            # offset the local seasonal course by >= 3 sigma while staying
            # inside the global value range
            lo, hi = test.min(), test.max()
            offset = max(3.0, s.magnitude) * sigma
            test[sl] = np.clip(test[sl] + offset, lo, hi)
        elif s.kind == "collective":
            # flat, level-shifted plateau
            level = test[s.start - 1] if s.start > 0 else test[s.start]
            test[sl] = level + s.magnitude * sigma
        elif s.kind == "seasonal":
            pass  # phase break already applied in the base draw
        elif s.kind == "trend":
            # linear ramp over the segment, back to base afterwards
            ramp = np.linspace(0.0, s.magnitude * sigma, s.length)
            test[sl] += ramp[:, None]
    return train, test, labels


def default_synthetic_spec(seed: int = 0, kinds=ANOMALY_TYPES,
                           length: int = 4000, channels: int = 3
                           ) -> SyntheticSpec:
    """Spread one segment of each requested kind across the test span."""
    kinds = list(kinds)
    if len(kinds) > 1 and length <= len(kinds):
        raise ValueError(f"length must be >= {len(kinds) + 1} for "
                         f"{len(kinds)} anomaly kinds, got {length}")
    segments = []
    gap = length // (len(kinds) + 1)
    sizing = {
        "point": (4, 25.0),
        "contextual": (60, 8.0),
        "collective": (80, 15.0),
        "seasonal": (140, 1.0),
        "trend": (100, 30.0),
    }
    for k, kind in enumerate(kinds):
        seg_len, mag = sizing[kind]
        # cap segment length so short series still get every kind
        seg_len = min(seg_len, max(1, gap // 2))
        segments.append(AnomalySegment(kind, gap * (k + 1), seg_len, mag))
    return SyntheticSpec(length=length, channels=channels,
                         segments=segments, seed=seed)


def write_csv(path, rows, header=None):
    """Write ``rows``, an array (a vector as one column) or an iterable of
    row sequences, after an optional header line. A float cell is written
    as ``repr(float(v))``, which keeps a float64 exact, and any other cell
    as ``csv`` writes it. Rows are streamed, never collected."""
    if isinstance(rows, np.ndarray) and rows.ndim == 1:
        rows = rows[:, None]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header is not None:
            w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, float) else v
                     for v in row] for row in rows)
