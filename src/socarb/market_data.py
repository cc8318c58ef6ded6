"""Hourly price ingestion, day slicing, worst-case bounds, and dataset splits.

The CSV schema is ``timestamp,price`` with ISO-8601 timestamps and hourly
spacing; a header row is optional.  Days are calendar-aligned (first slot at
hour 0) and partial days are dropped, never padded.
"""

from __future__ import annotations

import bisect
import csv
import logging
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from functools import cached_property
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

HOUR = timedelta(hours=1)

# Lower bounds used in threshold construction must stay positive; empirical
# minima at or below zero (negative LMPs) are clamped to this floor.
DEFAULT_PRICE_FLOOR = 0.01

BOUNDS_MODES = ("per-hour", "global")


@dataclass(frozen=True)
class PriceSeries:
    """Validated hourly price series."""

    timestamps: tuple[datetime, ...]
    prices: tuple[float, ...]

    def __post_init__(self):
        if len(self.timestamps) != len(self.prices):
            raise ValueError("timestamps and prices must have equal length")
        if len(self.prices) < 1:
            raise ValueError("series must contain at least one row")
        for i, p in enumerate(self.prices):
            if not math.isfinite(p):
                raise ValueError(f"non-finite price at row {i + 1}")
        for i in range(1, len(self.timestamps)):
            delta = self.timestamps[i] - self.timestamps[i - 1]
            if delta == timedelta(0):
                raise ValueError(f"duplicate timestamp at row {i + 1}: {self.timestamps[i]}")
            if delta != HOUR:
                raise ValueError(
                    f"non-hourly gap at row {i + 1}: {self.timestamps[i - 1]} -> {self.timestamps[i]}"
                )

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class DayPrices:
    """One fixed-horizon day of prices."""

    day_id: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("day must contain at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"non-finite price in day {self.day_id}")


@dataclass(frozen=True)
class PriceBounds:
    """Worst-case price bounds for the remaining horizon at time ``t_start``.

    ``per_slot_min`` / ``per_slot_max`` retain slot identity for slots
    ``t_start..horizon`` so downstream consumers can re-slice as time
    advances: both are empty (an envelope alone) or cover exactly those
    slots, inside the envelope.  The envelope must be finite with
    0 < lambda_min <= lambda_max.  :meth:`remaining` hands out the sorted
    tails.
    """

    lambda_min: float
    lambda_max: float
    per_slot_min: tuple[float, ...] = ()
    per_slot_max: tuple[float, ...] = ()
    t_start: int = 1
    horizon: int = 0

    def __post_init__(self):
        for name in ("lambda_min", "lambda_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.lambda_max < self.lambda_min:
            raise ValueError(
                f"lambda_max={self.lambda_max} must not fall below lambda_min={self.lambda_min}"
            )
        if self.per_slot_min and self.lambda_min > min(self.per_slot_min) + 1e-12:
            raise ValueError(
                f"per-slot min {min(self.per_slot_min)} falls below lambda_min={self.lambda_min}"
            )
        if self.per_slot_max and self.lambda_max < max(self.per_slot_max) - 1e-12:
            raise ValueError(
                f"per-slot max {max(self.per_slot_max)} exceeds lambda_max={self.lambda_max}"
            )
        n = len(self.per_slot_min)
        if len(self.per_slot_max) != n:
            raise ValueError(
                f"per_slot_min has {n} slots but per_slot_max has {len(self.per_slot_max)}"
            )
        if n and self.t_start + n - 1 != self.horizon:
            raise ValueError(
                f"per-slot bounds cover slots {self.t_start}..{self.t_start + n - 1}, "
                f"not t_start..horizon {self.t_start}..{self.horizon}"
            )

    @cached_property
    def _sorted_tails(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """Ascending mins and descending maxes of slots t_start + off.., for off = 0..n.

        Built on first use and kept with the object; the last entry of each
        is the empty tail past the horizon.
        """
        mins, maxs = self.per_slot_min, self.per_slot_max
        return (
            tuple(tuple(sorted(mins[off:])) for off in range(len(mins) + 1)),
            tuple(tuple(sorted(maxs[off:], reverse=True)) for off in range(len(maxs) + 1)),
        )

    def remaining(self, t: int) -> tuple[list[float], list[float]]:
        """Sorted (ascending mins, descending maxes) for slots t..horizon.

        Fresh lists, copied from the tails sorted once per object; both are
        empty once t is past the horizon.
        """
        if t < self.t_start:
            raise ValueError(f"t={t} precedes bound coverage starting at {self.t_start}")
        off = t - self.t_start
        mins, maxs = self._sorted_tails
        return list(mins[min(off, len(mins) - 1)]), list(maxs[min(off, len(maxs) - 1)])


class EmpiricalCdf:
    """Right-continuous empirical CDF with inclusive tail evaluators."""

    def __init__(self, samples):
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.size == 0:
            raise ValueError("empirical CDF needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        self.samples = arr

    def prob_le(self, x: float) -> float:
        """P(X <= x)."""
        return bisect.bisect_right(self.samples, x) / self.samples.size

    def prob_ge(self, x: float) -> float:
        """P(X >= x) = 1 - F(x-), computed as an exact sample fraction."""
        return (self.samples.size - bisect.bisect_left(self.samples, x)) / self.samples.size


@dataclass(frozen=True)
class PriceDistribution:
    """Per-hour cumulative distribution evaluators F_t for t = 1..T."""

    cdfs: tuple = field(default_factory=tuple)

    @property
    def horizon(self) -> int:
        return len(self.cdfs)

    def cdf(self, t: int):
        """Evaluator for hour t (1-based)."""
        return self.cdfs[t - 1]

    def sample_day(self, rng: np.random.Generator, day_id: str = "sim") -> DayPrices:
        """Draw one synthetic day, each hour independently from its F_t."""
        picks = rng.integers(0, [c.samples.size for c in self.cdfs])
        return DayPrices(day_id, tuple(float(c.samples[i]) for c, i in zip(self.cdfs, picks)))


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[DayPrices, ...]
    calib: tuple[DayPrices, ...]
    test: tuple[DayPrices, ...]


def _csv_rows(fh, path):
    """Rows of a CSV file; a row the csv module cannot read raises ValueError.

    That covers a field over the module's size limit, which would otherwise
    escape as ``_csv.Error``.
    """
    reader = csv.reader(fh)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
        yield row


def load_price_csv(path) -> PriceSeries:
    """Read a two-column (timestamp, price) CSV into a validated PriceSeries.

    Rows are sorted by timestamp before validation; duplicate timestamps,
    non-hourly gaps, a mix of naive and offset-aware timestamps and a UTC
    offset that differs from the first row's (a series crossing a DST switch,
    which :func:`slice_days` would cut at the wrong local hour) are rejected
    with the offending row reported.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"price file not found: {path}")
    rows: list[tuple[datetime, float]] = []
    with path.open(newline="") as fh:
        for lineno, raw in enumerate(_csv_rows(fh, path), start=1):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) < 2:
                raise ValueError(f"line {lineno}: expected 'timestamp,price', got {raw!r}")
            ts_text, price_text = raw[0].strip(), raw[1].strip()
            try:
                ts = datetime.fromisoformat(ts_text)
                price = float(price_text)
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"line {lineno}: unparsable row {raw!r}") from None
            if not math.isfinite(price):
                raise ValueError(f"line {lineno}: non-finite price {price_text!r}")
            if rows and (ts.tzinfo is None) != (rows[0][0].tzinfo is None):
                raise ValueError(
                    f"line {lineno}: timestamp {ts_text!r} mixes naive and offset-aware "
                    "timestamps"
                )
            if rows and ts.utcoffset() != rows[0][0].utcoffset():
                raise ValueError(
                    f"line {lineno}: timestamp {ts_text!r} has UTC offset {ts.utcoffset()}, "
                    f"the first row has {rows[0][0].utcoffset()}; a series that crosses a DST "
                    "switch cannot be cut into days"
                )
            rows.append((ts, price))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    return PriceSeries(tuple(r[0] for r in rows), tuple(r[1] for r in rows))


def slice_days(series: PriceSeries, horizon: int) -> list[DayPrices]:
    """Cut a series into consecutive blocks of ``horizon`` hours.

    The first block is anchored at the first hour-0 timestamp; partial leading
    and trailing blocks are dropped with a logged warning.
    """
    if horizon <= 0:
        raise ValueError("horizon must be a positive integer")
    start = 0
    while start < len(series) and (
        series.timestamps[start].hour != 0 or series.timestamps[start].minute != 0
    ):
        start += 1
    if start > 0:
        log.warning("slice_days: dropped %d leading points before first hour-0 slot", start)
    n_days = (len(series) - start) // horizon
    trailing = (len(series) - start) - n_days * horizon
    if trailing > 0:
        log.warning("slice_days: dropped %d trailing points (partial day)", trailing)
    days = []
    for d in range(n_days):
        lo = start + d * horizon
        days.append(
            DayPrices(series.timestamps[lo].isoformat(), tuple(series.prices[lo : lo + horizon]))
        )
    return days


def _clamp_floor(values, label: str) -> list[float]:
    floor = DEFAULT_PRICE_FLOOR
    clamped = [v if v > 0 else floor for v in values]
    n = sum(1 for v in values if v <= 0)
    if n:
        log.warning("compute_bounds: clamped %d non-positive %s value(s) to %.4g", n, label, floor)
    return clamped


def compute_bounds(days: list[DayPrices], t: int, mode: str = "per-hour") -> PriceBounds:
    """Worst-case price bounds over the remaining slots t..T.

    ``per-hour`` keeps one (min, max) pair per remaining slot; ``global``
    repeats the scalar envelope.  Non-positive lower bounds are clamped to
    :data:`DEFAULT_PRICE_FLOOR` so threshold ratio equations stay well posed,
    and per-hour maxima are lifted to it; each per-hour bound is then
    clipped into the envelope [lambda_min, lambda_max].
    """
    if not days:
        raise ValueError("compute_bounds requires at least one day")
    horizon = len(days[0].values)
    if any(len(d.values) != horizon for d in days):
        raise ValueError("all days must share the same horizon")
    if not 1 <= t <= horizon:
        raise ValueError(f"t={t} outside 1..{horizon}")
    if mode not in BOUNDS_MODES:
        raise ValueError(f"unknown bounds mode {mode!r}")

    matrix = np.array([d.values for d in days], dtype=float)
    lam_min = float(matrix.min())
    lam_max = float(matrix.max())
    lam_min = _clamp_floor([lam_min], "global lower bound")[0]
    lam_max = max(lam_max, lam_min)

    n_rem = horizon - t + 1
    if mode == "global":
        per_min = [lam_min] * n_rem
        per_max = [lam_max] * n_rem
    else:
        per_min = _clamp_floor(matrix[:, t - 1 :].min(axis=0).tolist(), "per-slot lower bound")
        per_max = [max(v, DEFAULT_PRICE_FLOOR) for v in matrix[:, t - 1 :].max(axis=0).tolist()]
        # a floor can lift a slot's bound out of the envelope; clip it back in
        per_min = np.clip(per_min, lam_min, lam_max).tolist()
        per_max = np.clip(per_max, lam_min, lam_max).tolist()
    return PriceBounds(
        lambda_min=lam_min,
        lambda_max=lam_max,
        per_slot_min=tuple(per_min),
        per_slot_max=tuple(per_max),
        t_start=t,
        horizon=horizon,
    )


def fit_distribution(days: list[DayPrices]) -> PriceDistribution:
    """Hour-wise empirical CDFs of the prices across days."""
    if not days:
        raise ValueError("fit_distribution requires at least one day")
    horizon = len(days[0].values)
    if any(len(d.values) != horizon for d in days):
        raise ValueError("all days must share the same horizon")
    return PriceDistribution(
        tuple(EmpiricalCdf([d.values[h] for d in days]) for h in range(horizon))
    )


def split_dataset(
    days: list[DayPrices],
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
    shuffled: bool = False,
) -> DatasetSplit:
    """Partition days into train/calib/test by floor allocation.

    Sizes are ``floor(n * ratio)`` per split with the remainder assigned to
    train.  Chronological order is kept unless ``shuffled``; shuffling is
    deterministic in ``seed``.
    """
    for name, r in zip(("train", "calib", "test"), ratios):
        if not math.isfinite(r):
            raise ValueError(f"{name} ratio must be finite, got {r}")
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    n = len(days)
    if n < 3:
        raise ValueError("need at least 3 days to populate all splits")
    order = list(range(n))
    if shuffled:
        random.Random(seed).shuffle(order)
    n_train = int(n * ratios[0])
    n_calib = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train += n - (n_train + n_calib + n_test)
    if min(n_train, n_calib, n_test) == 0:
        raise ValueError(f"ratios {ratios} leave an empty split for {n} days; provide more days")
    picked = [days[i] for i in order]
    return DatasetSplit(
        train=tuple(picked[:n_train]),
        calib=tuple(picked[n_train : n_train + n_calib]),
        test=tuple(picked[n_train + n_calib :]),
    )


def export_day_matrix(days: list[DayPrices], path) -> None:
    """Write the canonical day matrix CSV: day_id, h0..h{T-1}."""
    if not days:
        raise ValueError("no days to export")
    horizon = len(days[0].values)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day_id"] + [f"h{i}" for i in range(horizon)])
        for d in days:
            writer.writerow([d.day_id] + [repr(v) for v in d.values])


def load_day_matrix(path) -> list[DayPrices]:
    """Read a day matrix CSV produced by :func:`export_day_matrix`.

    Every row holds as many prices as the header names, so the matrix has one
    day length.
    """
    days = []
    with Path(path).open(newline="") as fh:
        reader = _csv_rows(fh, path)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty day matrix")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(header):
                    n, horizon = len(row) - 1, len(header) - 1
                    raise ValueError(f"{n} prices but the header names {horizon}")
                days.append(DayPrices(row[0], tuple(float(v) for v in row[1:])))
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    if not days:
        raise ValueError(f"{path}: no day rows")
    return days
