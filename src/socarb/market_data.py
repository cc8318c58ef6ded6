"""Hourly price ingestion, day slicing, worst-case bounds, and dataset splits.

The CSV schema is ``timestamp,price`` with ISO-8601 timestamps and hourly
spacing; a header row is optional, and a first line is one only when neither
its timestamp nor its price parses.  Days are calendar-aligned (first slot at
hour 0) and partial days are dropped, never padded.  The day matrix CSV that
:func:`export_day_matrix` writes and :func:`load_day_matrix` reads is
``day_id,h0..h{T-1}``, and there the header is required.

A run's prices travel as one :class:`DayMatrix` from loader to report: the
day ids and one read-only (n, T) float64 array, validated once.
:func:`load_day_matrix`, :func:`slice_days`, :func:`split_dataset` and
``backtest.synthetic_day_matrix`` make one; :func:`compute_bounds`,
:func:`fit_distribution`, :func:`export_day_matrix`,
``thresholds.policy_outcomes`` and the ``conformal`` labeller take one, and
step all its days at once.  Its row ranges and its last-n-slot column
windows are views of that array.  A :class:`DayPrices` is one day: what
indexing a matrix gives, and what the one-day runners take.  The summed
sorted tails of a :class:`PriceBounds`, the tables H[t, n] and L[t, n] of
:meth:`PriceBounds.sums`, serve both policy executors: the one-day loop
indexes their rows of floats (:meth:`PriceBounds.sum_rows`) at each step,
and the batch lanes slice or gather them once per call.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import logging
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
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
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"non-finite price in day {self.day_id}")


@dataclass(frozen=True, eq=False)
class DayMatrix:
    """Days of one length as one read-only (n, T) float64 array of prices.

    ``day_ids[i]`` names row i.  The matrix copies what it is given and checks
    it once: every row has the same T >= 1 finite prices, as a
    :class:`DayPrices` would.  A slice (``days[a:b]``, the days a..b-1) and
    :meth:`last` are read-only views of the same array and skip the checks.
    An integer index and iteration give the days as :class:`DayPrices`.
    Matrices of equal day ids and prices compare and hash equal, whatever
    their memory layout.
    """

    day_ids: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        ids, rows = tuple(self.day_ids), self.prices
        if not isinstance(rows, np.ndarray):
            if len({len(row) for row in rows if hasattr(row, "__len__")}) > 1:
                raise ValueError("all days must share the same horizon")
        prices = np.array(rows, dtype=float)
        if prices.size == 0 and not ids:
            prices = prices.reshape(0, prices.shape[-1] if prices.ndim == 2 else 0)
        if prices.ndim != 2:
            raise ValueError(f"prices must be a (days, slots) matrix, got shape {prices.shape}")
        if len(ids) != len(prices):
            raise ValueError(f"{len(ids)} day ids for {len(prices)} rows of prices")
        if len(prices) and not prices.shape[1]:
            raise ValueError("day must contain at least one value")
        finite = np.isfinite(prices).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite price in day {ids[int(np.argmin(finite))]}")
        prices.flags.writeable = False
        object.__setattr__(self, "day_ids", ids)
        object.__setattr__(self, "prices", prices)

    @classmethod
    def from_days(cls, days) -> "DayMatrix":
        return cls(tuple(day.day_id for day in days), [day.values for day in days])

    def _view(self, day_ids, prices) -> "DayMatrix":
        view = object.__new__(DayMatrix)
        object.__setattr__(view, "day_ids", day_ids)
        object.__setattr__(view, "prices", prices)
        return view

    @property
    def horizon(self) -> int:
        return self.prices.shape[1]

    def last(self, n: int) -> "DayMatrix":
        """The last n slots of every day, as a view."""
        if not 1 <= n <= self.horizon:
            raise ValueError(f"window of {n} slots outside 1..{self.horizon}")
        return self._view(self.day_ids, self.prices[:, -n:])

    def __len__(self) -> int:
        return len(self.day_ids)

    def __getitem__(self, i: int | slice) -> DayPrices | DayMatrix:
        if isinstance(i, slice):
            return self._view(self.day_ids[i], self.prices[i])
        # the matrix checked its rows when it was made, so the day skips DayPrices' check
        day = object.__new__(DayPrices)
        object.__setattr__(day, "day_id", self.day_ids[i])
        object.__setattr__(day, "values", tuple(self.prices[i].tolist()))
        return day

    def __eq__(self, other):
        if not isinstance(other, DayMatrix):
            return NotImplemented
        return self.day_ids == other.day_ids and np.array_equal(self.prices, other.prices)

    def __hash__(self):
        # adding 0.0 turns -0.0, which compares equal to 0.0, into 0.0
        return hash((self.day_ids, self.prices.shape, (self.prices + 0.0).tobytes()))


def check_horizon(slots: int, horizon: int) -> None:
    """A day of ``slots`` prices runs on a battery of ``horizon`` steps only when they agree."""
    if slots != horizon:
        raise ValueError(f"day has {slots} slots but params.horizon={horizon}")


@dataclass(frozen=True)
class PriceBounds:
    """Worst-case price bounds for the remaining horizon at time ``t_start``.

    ``per_slot_min`` / ``per_slot_max`` retain slot identity for slots
    ``t_start..horizon`` so downstream consumers can re-slice as time
    advances: both are empty (an envelope alone) or cover exactly those
    slots, inside the envelope.  The envelope must be finite with
    0 < lambda_min <= lambda_max.  :meth:`sums` gives the tables L[t, n]
    and H[t, n] that the timedep and feasibility thresholds read at every
    step, built on first use and kept with the object.
    """

    lambda_min: float
    lambda_max: float
    per_slot_min: tuple[float, ...] = ()
    per_slot_max: tuple[float, ...] = ()
    t_start: int = 1
    horizon: int = 0
    _sums: list | None = field(default=None, init=False, repr=False, compare=False)

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

    def sums(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The tables L and H of the timedep and feasibility thresholds, for n = 0..width.

        Row t - t_start holds step t's sums, t = t_start..horizon + 1 (one
        row t_start for an envelope alone whose horizon ends sooner): L[t, n]
        adds the n lowest per-slot mins of slots t..horizon and H[t, n] the n
        highest maxes, going on with ``lambda_min`` or ``lambda_max`` past
        those slots.  Each table is one ``np.cumsum`` over the sorted, padded
        tails, which adds left to right on every Python, as the loop's ``+=``
        does (``sum`` compensates from 3.12).

        Both are read-only, built on first use and kept: a narrower width gets
        views, and only a wider one builds them again, changing no entry.
        Threads may share them without a lock: a race can build a table
        twice, never change an entry.
        """
        lows, highs = self._kept(width)[0]
        return lows[:, : width + 1], highs[:, : width + 1]

    def sum_rows(self, width: int) -> tuple[list[list[float]], list[list[float]]]:
        """:meth:`sums` as rows of Python floats, at least ``width`` wide, for the one-day loop.

        Only the columns asked for are converted, once per kept table or wider
        width, and shared, so a caller must not change them.
        """
        kept = self._kept(width)
        rows = kept[1]
        if rows is None or len(rows[0][0]) <= width:
            rows = kept[1] = tuple(table[:, : width + 1].tolist() for table in kept[0])
        return rows

    def _kept(self, width: int) -> list:
        """The kept [(L, H), :meth:`sum_rows` or None], built again if narrower than ``width``."""
        kept = self._sums
        if kept is None or kept[0][0].shape[1] <= width:
            tables = []
            for slots, pad, descending in (
                (self.per_slot_min, self.lambda_min, False),
                (self.per_slot_max, self.lambda_max, True),
            ):
                heads = np.full((max(self.horizon + 2 - self.t_start, 1), width + 1), pad)
                heads[:, 0] = 0.0
                for row in range(len(slots)):
                    tail = sorted(slots[row:], reverse=descending)[:width]
                    heads[row, 1 : len(tail) + 1] = tail
                table = heads.cumsum(axis=1)
                table.flags.writeable = False
                tables.append(table)
            kept = [tuple(tables), None]
            object.__setattr__(self, "_sums", kept)
        return kept


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
    train: DayMatrix
    calib: DayMatrix
    test: DayMatrix


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
                # a header names both columns; a first row with one parsable cell is data
                if lineno == 1 and not (
                    _parses(datetime.fromisoformat, ts_text) or _parses(float, price_text)
                ):
                    continue
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


def slice_days(series: PriceSeries, horizon: int) -> DayMatrix:
    """Cut a series into consecutive blocks of ``horizon`` hours, one day each.

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
    starts = range(start, start + n_days * horizon, horizon)
    prices = np.array(series.prices[start : start + n_days * horizon]).reshape(n_days, horizon)
    return DayMatrix(tuple(series.timestamps[lo].isoformat() for lo in starts), prices)


def _clamp_floor(values, label: str) -> list[float]:
    floor = DEFAULT_PRICE_FLOOR
    clamped = [v if v > 0 else floor for v in values]
    n = sum(1 for v in values if v <= 0)
    if n:
        log.warning("compute_bounds: clamped %d non-positive %s value(s) to %.4g", n, label, floor)
    return clamped


def compute_bounds(days: DayMatrix, t: int, mode: str = "per-hour") -> PriceBounds:
    """Worst-case price bounds over the remaining slots t..T.

    ``per-hour`` keeps one (min, max) pair per remaining slot; ``global``
    repeats the scalar envelope.  Non-positive lower bounds are clamped to
    :data:`DEFAULT_PRICE_FLOOR` so threshold ratio equations stay well posed,
    and per-hour maxima are lifted to it; each per-hour bound is then
    clipped into the envelope [lambda_min, lambda_max].
    """
    matrix = days.prices
    if not len(matrix):
        raise ValueError("compute_bounds requires at least one day")
    horizon = matrix.shape[1]
    if not 1 <= t <= horizon:
        raise ValueError(f"t={t} outside 1..{horizon}")
    if mode not in BOUNDS_MODES:
        raise ValueError(f"unknown bounds mode {mode!r}")

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


def fit_distribution(days: DayMatrix) -> PriceDistribution:
    """Hour-wise empirical CDFs of the prices across days."""
    matrix = days.prices
    if not len(matrix):
        raise ValueError("fit_distribution requires at least one day")
    return PriceDistribution(tuple(EmpiricalCdf(column) for column in matrix.T))


# the train, calibration and test shares of the days, wherever none are given
DEFAULT_SPLIT = (0.6, 0.2, 0.2)


def split_sizes(n: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    """Train, calibration and test sizes of n days: ``floor(n * ratio)``, the rest to train."""
    for name, r in zip(("train", "calib", "test"), ratios):
        if not math.isfinite(r):
            raise ValueError(f"{name} ratio must be finite, got {r}")
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    if n < 3:
        raise ValueError("need at least 3 days to populate all splits")
    n_train, n_calib, n_test = (int(n * r) for r in ratios)
    n_train += n - (n_train + n_calib + n_test)
    if min(n_train, n_calib, n_test) == 0:
        raise ValueError(f"ratios {ratios} leave an empty split for {n} days; provide more days")
    return n_train, n_calib, n_test


def split_dataset(
    days: DayMatrix,
    ratios: tuple[float, float, float] = DEFAULT_SPLIT,
    seed: int = 0,
    shuffled: bool = False,
) -> DatasetSplit:
    """Partition days into train/calib/test by floor allocation.

    Sizes are those of :func:`split_sizes`.  Chronological order is kept
    unless ``shuffled``; shuffling is deterministic in ``seed``.  The three
    parts are row slices of ``days``, or of its one shuffled copy.
    """
    n_train, n_calib, _ = split_sizes(len(days), ratios)
    if shuffled:
        order = list(range(len(days)))
        random.Random(seed).shuffle(order)
        days = DayMatrix(tuple(days.day_ids[i] for i in order), days.prices[order])
    calib_end = n_train + n_calib
    return DatasetSplit(days[:n_train], days[n_train:calib_end], days[calib_end:])


def export_day_matrix(days: DayMatrix, path) -> None:
    """Write the canonical day matrix CSV: day_id, h0..h{T-1}."""
    if not len(days):
        raise ValueError("no days to export")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day_id"] + [f"h{i}" for i in range(days.horizon)])
        for day_id, values in zip(days.day_ids, days.prices.tolist()):
            writer.writerow([day_id] + [repr(v) for v in values])


def _parses(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


def _checked_days(path, header, rows) -> tuple[list[str], list[list[float]]]:
    """The day ids and prices of the ``rows`` that follow ``header``, checked one line at a time.

    The error path of :func:`load_day_matrix`: it raises the first faulty
    row's message with its line number, the header being line 1.
    """
    ids, days = [], []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row) - 1} prices but the header names {len(header) - 1}")
            prices = list(map(float, row[1:]))
            if not all(map(math.isfinite, prices)):
                raise ValueError(f"non-finite price in day {row[0]}")
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
        ids.append(row[0])
        days.append(prices)
    return ids, days


def load_day_matrix(path) -> DayMatrix:
    """Read a day matrix CSV produced by :func:`export_day_matrix`.

    The first line is the header ``day_id,h0..h{T-1}``.  A first line whose
    price cells all read as numbers is a day, not a header, and is refused
    rather than dropped.  Every row holds as many prices as the header names,
    so the matrix has one day length.  A row that is not a day of finite
    prices is refused with the file name and its line number.

    One pass streams every price cell into one array, holding no row once
    its cells are read.  Only when a row has another length, a cell does not
    parse or a price is not finite is the file read again, one line at a
    time, to name the first faulty line.  A pipe cannot be read again, so it
    is read one line at a time from the start.
    """
    with Path(path).open(newline="") as fh:
        reader = _csv_rows(fh, path)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty day matrix")
        horizon = len(header) - 1
        if horizon < 1:
            raise ValueError(
                f"{path} line 1: the header names no price column; "
                "a day matrix starts with the header day_id,h0..h{T-1}"
            )
        if all(_parses(float, cell) for cell in header[1:]):
            raise ValueError(
                f"{path} line 1: a row of prices where the header "
                f"day_id,h0..h{horizon - 1} belongs; a day matrix starts with its header"
            )
        prices, ids = None, []

        def days():
            for row in reader:
                if row:
                    if len(row) != len(header):
                        raise ValueError("a row of another length")
                    ids.append(row[0])
                    yield row[1:]

        if fh.seekable():
            try:
                prices = np.fromiter(itertools.chain.from_iterable(days()), dtype=float)
                if not np.isfinite(prices).all():
                    raise ValueError("a non-finite price")
                prices = prices.reshape(len(ids), horizon)
            except ValueError:
                fh.seek(0)
                reader = _csv_rows(fh, path)
                next(reader)
                prices = None
        if prices is None:
            ids, prices = _checked_days(path, header, reader)
    if not ids:
        raise ValueError(f"{path}: no day rows")
    return DayMatrix(tuple(ids), prices)
