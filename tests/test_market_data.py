"""Ingestion, slicing, bounds, distributions, and splits."""

import csv
import dataclasses
import io
import math
import os
import re
import sys
import threading
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socarb import market_data
from socarb.market_data import (
    BOUNDS_MODES,
    DEFAULT_PRICE_FLOOR,
    DayMatrix,
    EmpiricalCdf,
    PriceBounds,
    PriceSeries,
    compute_bounds,
    export_day_matrix,
    fit_distribution,
    load_day_matrix,
    load_price_csv,
    slice_days,
    split_dataset,
)
from socarb.thresholds import BatteryParams, policy_outcomes, run_policy

from oracles import reference_remaining

T0 = datetime(2015, 3, 2, 0, 0)


def berlin_spring_rows():
    """120 hourly rows in Europe/Berlin local time across the 2024 spring DST switch."""
    start = datetime(2024, 3, 28, 23, tzinfo=timezone.utc)
    switch = datetime(2024, 3, 31, 1, tzinfo=timezone.utc)
    rows = []
    for i in range(120):
        ts = start + timedelta(hours=i)
        offset = timezone(timedelta(hours=2 if ts >= switch else 1))
        rows.append((ts.astimezone(offset), 20.0 + i % 7))
    return rows


def write_csv(path, rows, header=None):
    lines = ([header] if header else []) + [f"{ts.isoformat()},{p}" for ts, p in rows]
    path.write_text("\n".join(lines) + "\n")


def hourly_rows(n, start=T0, price=lambda i: 10.0 + i):
    return [(start + timedelta(hours=i), price(i)) for i in range(n)]


def make_days(values_per_day):
    return DayMatrix(tuple(f"d{i}" for i in range(len(values_per_day))), values_per_day)


class TestLoadPriceCsv:
    def test_identity_ingestion(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, hourly_rows(24), header="timestamp,price")
        series = load_price_csv(path)
        assert len(series) == 24
        assert series.prices[0] == 10.0 and series.prices[23] == 33.0

    def test_header_optional(self, tmp_path):
        path = tmp_path / "p.csv"
        write_csv(path, hourly_rows(3))
        assert len(load_price_csv(path)) == 3

    @pytest.mark.parametrize(
        "header", ["timestamp,price", "Date,Price (EUR/MWh)", " time , value ", "ts,p,source"]
    )
    def test_header_of_words_skipped(self, tmp_path, header):
        path = tmp_path / "p.csv"
        write_csv(path, hourly_rows(3), header=header)
        assert load_price_csv(path).prices == (10.0, 11.0, 12.0)

    @pytest.mark.parametrize(
        "first", ["2015-03-02T00:00:00,abc", "2015-03-02T00:00:00,", "midnight,10.0", ",10.0"]
    )
    def test_first_row_with_one_parsable_cell_is_data(self, tmp_path, first):
        # a header names both columns; a bad first row is not dropped as one
        path = tmp_path / "p.csv"
        write_csv(path, hourly_rows(3, start=T0 + timedelta(hours=1)), header=first)
        cells = first.split(",")
        with pytest.raises(ValueError) as exc:
            load_price_csv(path)
        assert str(exc.value) == f"line 1: unparsable row {cells!r}"

    def test_duplicate_timestamp_rejected(self, tmp_path):
        rows = hourly_rows(8)
        rows.append((T0 + timedelta(hours=5), 99.0))
        path = tmp_path / "p.csv"
        write_csv(path, rows)
        with pytest.raises(ValueError, match="duplicate timestamp"):
            load_price_csv(path)

    def test_unparsable_row_reports_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("timestamp,price\n2015-03-02T00:00:00,10\nnot a time,x\n")
        with pytest.raises(ValueError, match="line 3"):
            load_price_csv(path)

    def test_gap_reported(self, tmp_path):
        rows = hourly_rows(4) + [(T0 + timedelta(hours=6), 5.0)]
        path = tmp_path / "p.csv"
        write_csv(path, rows)
        with pytest.raises(ValueError, match="non-hourly gap"):
            load_price_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_price_csv(tmp_path / "absent.csv")

    def test_mixed_naive_and_aware_timestamps_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "timestamp,price\n"
            "2015-03-02T00:00:00,10\n"
            "2015-03-02T01:00:00,11\n"
            "2015-03-02T02:00:00+00:00,12\n"
            "2015-03-02T03:00:00,13\n"
        )
        with pytest.raises(ValueError, match="line 4: .*naive and offset-aware"):
            load_price_csv(path)

    def test_dst_crossing_series_rejected(self, tmp_path):
        # Europe/Berlin, 2024-03-29..04-02: CET (+01:00) until 2024-03-31T01:00Z,
        # CEST (+02:00) after; data rows start at line 2, the first CEST row is line 52
        path = tmp_path / "p.csv"
        write_csv(path, berlin_spring_rows(), header="timestamp,price")
        with pytest.raises(ValueError, match=r"line 52: .*UTC offset 2:00:00.*1:00:00"):
            load_price_csv(path)

    def test_constant_offset_series_sliced_at_local_midnight(self, tmp_path):
        cet = timezone(timedelta(hours=1))
        path = tmp_path / "p.csv"
        write_csv(path, [(ts.astimezone(cet), p) for ts, p in berlin_spring_rows()])
        days = slice_days(load_price_csv(path), 24)
        assert [d.day_id for d in days] == [
            f"2024-{md}T00:00:00+01:00" for md in ("03-29", "03-30", "03-31", "04-01", "04-02")
        ]

    def test_rows_sorted_before_validation(self, tmp_path):
        rows = hourly_rows(5)
        path = tmp_path / "p.csv"
        write_csv(path, list(reversed(rows)))
        series = load_price_csv(path)
        assert series.prices == (10.0, 11.0, 12.0, 13.0, 14.0)

    def test_six_years_row_count(self, tmp_path):
        # oracle: an independent line count of the file that was written
        start = datetime(2011, 1, 1)
        n_hours = (datetime(2017, 1, 1) - start).days * 24
        path = tmp_path / "big.csv"
        with path.open("w") as fh:
            fh.write("timestamp,price\n")
            ts = start
            for i in range(n_hours):
                fh.write(f"{ts.isoformat()},{20 + (i % 40)}\n")
                ts += timedelta(hours=1)
        with path.open() as fh:
            n_lines = sum(1 for _ in fh) - 1
        assert n_lines == 52_608  # 2011-2016 includes leap years 2012 and 2016
        series = load_price_csv(path)
        assert len(series) == n_lines


class TestSliceDays:
    def test_72_points_three_days(self):
        series = PriceSeries(*zip(*hourly_rows(72)))
        days = slice_days(series, 24)
        assert len(days) == 3
        assert all(len(d.values) == 24 for d in days)

    def test_partial_trailing_dropped_with_warning(self, caplog):
        series = PriceSeries(*zip(*hourly_rows(70)))
        with caplog.at_level("WARNING"):
            days = slice_days(series, 24)
        assert len(days) == 2
        assert "22 trailing points" in caplog.text

    def test_degenerate_one_hour_days(self):
        series = PriceSeries(*zip(*hourly_rows(24)))
        assert len(slice_days(series, 1)) == 24

    def test_leading_partial_dropped(self, caplog):
        start = T0 + timedelta(hours=20)  # first hour-0 slot is 4 points in
        series = PriceSeries(*zip(*hourly_rows(28, start=start)))
        with caplog.at_level("WARNING"):
            days = slice_days(series, 24)
        assert len(days) == 1
        assert days[0].values[0] == 14.0

    def test_bad_horizon(self):
        series = PriceSeries(*zip(*hourly_rows(24)))
        with pytest.raises(ValueError):
            slice_days(series, 0)

    def test_flatten_round_trip(self):
        series = PriceSeries(*zip(*hourly_rows(96)))
        days = slice_days(series, 24)
        flat = tuple(v for d in days for v in d.values)
        assert flat == series.prices

    def test_day_id_from_first_timestamp(self):
        series = PriceSeries(*zip(*hourly_rows(24)))
        assert slice_days(series, 24)[0].day_id == T0.isoformat()


class TestComputeBounds:
    def test_single_day_t1(self):
        b = compute_bounds(make_days([[10, 20, 30]]), 1, "per-hour")
        assert b.remaining(b.t_start) == ([10, 20, 30], [30, 20, 10])

    def test_single_day_last_slot(self):
        b = compute_bounds(make_days([[10, 20, 30]]), 3, "per-hour")
        assert b.remaining(b.t_start) == ([30.0], [30.0])

    def test_two_days_per_slot_min_max(self):
        # per-slot mins {5, 20, 15} sorted, per-slot maxes {10, 25, 30} sorted desc
        b = compute_bounds(make_days([[10, 20, 30], [5, 25, 15]]), 1, "per-hour")
        assert b.remaining(b.t_start) == ([5, 15, 20], [30, 25, 10])
        assert b.lambda_min == 5 and b.lambda_max == 30

    def test_global_mode_repeats_envelope(self):
        b = compute_bounds(make_days([[10, 20, 30]]), 2, "global")
        assert b.remaining(b.t_start) == ([10.0, 10.0], [30.0, 30.0])

    def test_negative_prices_clamped(self, caplog):
        with caplog.at_level("WARNING"):
            b = compute_bounds(make_days([[-4.0, 20.0]]), 1, "per-hour")
        assert b.lambda_min == pytest.approx(0.01)
        assert b.remaining(b.t_start)[0][0] == pytest.approx(0.01)
        assert "clamped" in caplog.text

    def test_empty_days_rejected(self):
        with pytest.raises(ValueError):
            compute_bounds(make_days([]), 1, "per-hour")

    def test_remaining_reslices(self):
        b = compute_bounds(make_days([[10, 20, 5, 30]]), 1, "per-hour")
        z_min, z_max = b.remaining(3)
        assert z_min == [5, 30] and z_max == [30, 5]

    @pytest.mark.parametrize("t_start", [1, 3])
    def test_remaining_equals_fresh_sorted_slices(self, t_start):
        # rounded prices give ties; t runs two slots past the horizon
        rng = np.random.default_rng(t_start)
        rows = np.round(rng.uniform(1.0, 9.0, (5, 8))).tolist()
        b = compute_bounds(make_days(rows), t_start, "per-hour")
        for t in range(t_start, b.horizon + 3):
            z_min, z_max = b.remaining(t)
            assert (z_min, z_max) == reference_remaining(b, t)
            assert len(z_min) == len(z_max) == max(b.horizon - t + 1, 0)
            z_min.append(-1.0)
            z_max.clear()
            assert b.remaining(t) == reference_remaining(b, t)
        with pytest.raises(ValueError, match=f"t={t_start - 1} precedes bound coverage"):
            b.remaining(t_start - 1)

    @pytest.mark.parametrize(
        "lmin, lmax, message",
        [
            (math.nan, 10.0, "lambda_min must be positive and finite, got nan"),
            (-math.inf, 10.0, "lambda_min must be positive and finite, got -inf"),
            (10.0, math.nan, "lambda_max must be positive and finite, got nan"),
            (10.0, math.inf, "lambda_max must be positive and finite, got inf"),
            (100.0, 10.0, "lambda_max=10.0 must not fall below lambda_min=100.0"),
        ],
    )
    def test_envelope_rejected(self, lmin, lmax, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PriceBounds(lmin, lmax)

    @pytest.mark.parametrize(
        "per_min, per_max, horizon, message",
        [
            ((10.0, 12.0), (30.0,), 0, "per_slot_min has 2 slots but per_slot_max has 1"),
            ((10.0, 12.0), (30.0, 30.0), 0, "cover slots 1..2, not t_start..horizon 1..0"),
            ((10.0, 12.0), (30.0, 30.0), 3, "cover slots 1..2, not t_start..horizon 1..3"),
        ],
    )
    def test_per_slot_coverage_rejected(self, per_min, per_max, horizon, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PriceBounds(10.0, 30.0, per_min, per_max, 1, horizon)

    @pytest.mark.parametrize(
        "per_min, per_max, message",
        [
            ((11.0, 12.0), (40.0, 50.0), "per-slot max 50.0 exceeds lambda_max=30.0"),
            ((5.0, 12.0), (20.0, 30.0), "per-slot min 5.0 falls below lambda_min=10.0"),
        ],
    )
    def test_per_slot_outside_envelope_rejected(self, per_min, per_max, message):
        # remaining() hands these lists to the thresholds, so they must lie
        # inside the envelope the ratios are solved on
        with pytest.raises(ValueError, match=re.escape(message)):
            PriceBounds(10.0, 30.0, per_min, per_max, 1, 2)

    @given(
        st.lists(
            st.lists(st.floats(1.0, 500.0), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_sortedness_invariant(self, rows, t):
        b = compute_bounds(make_days(rows), t, "per-hour")
        z_min, z_max = b.remaining(b.t_start)
        assert all(z_min[i] <= z_min[i + 1] for i in range(len(z_min) - 1))
        assert all(z_max[i] >= z_max[i + 1] for i in range(len(z_max) - 1))
        assert b.lambda_min <= min(z_min) and max(z_max) <= b.lambda_max

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.floats(-50.0, 500.0),
                    st.floats(0.0, 0.02),
                    st.sampled_from([-2.0, -0.0, 0.0, 0.002, 0.004, 0.009, DEFAULT_PRICE_FLOOR]),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(1, 3),
        st.sampled_from(BOUNDS_MODES),
    )
    @example([[0.005, 0.008, 0.004], [0.006, 0.002, 0.009]], 1, "per-hour")
    @example([[-1.0, 0.008, 0.004], [0.006, -2.0, 0.009]], 1, "per-hour")
    @settings(max_examples=300, deadline=None)
    def test_every_finite_matrix_has_bounds(self, rows, t, mode):
        """Negative, zero and sub-cent prices give valid bounds in both modes.

        Where the floors alone gave bounds that PriceBounds accepts, they are
        the same bounds: those it took up to 1e-12 outside the envelope now
        lie on it.
        """
        b = compute_bounds(make_days(rows), t, mode)
        assert 0 < b.lambda_min <= min(b.per_slot_min)
        assert max(b.per_slot_max) <= b.lambda_max
        assert all(lo <= hi for lo, hi in zip(b.per_slot_min, b.per_slot_max))
        try:
            floored = PriceBounds(*floored_bounds(rows, t, mode), t, len(rows[0]))
        except ValueError:
            return
        assert (b.lambda_min, b.lambda_max) == (floored.lambda_min, floored.lambda_max)
        for got, want in (
            (b.per_slot_min, floored.per_slot_min),
            (b.per_slot_max, floored.per_slot_max),
        ):
            assert got == tuple(min(max(v, b.lambda_min), b.lambda_max) for v in want)
            assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))


def floored_bounds(rows, t, mode):
    """compute_bounds' envelope and per-slot bounds after its floors, before the clip."""
    matrix = np.array(rows, dtype=float)[:, t - 1 :]
    floor = DEFAULT_PRICE_FLOOR
    lam_min = float(np.min(rows)) if np.min(rows) > 0 else floor
    lam_max = max(float(np.max(rows)), lam_min)
    if mode == "global":
        return lam_min, lam_max, (lam_min,) * matrix.shape[1], (lam_max,) * matrix.shape[1]
    per_min = tuple(v if v > 0 else floor for v in matrix.min(axis=0).tolist())
    per_max = tuple(max(v, floor) for v in matrix.max(axis=0).tolist())
    return lam_min, lam_max, per_min, per_max


@st.composite
def tail_bounds(draw):
    """PriceBounds with per-slot bounds or an envelope alone, from slot 1 or later.

    Values span six decades, so a sum taken in another order would round
    differently; a few repeat, so the sorted tails hold ties.
    """
    t_start = draw(st.integers(1, 4))
    lam_min = draw(st.floats(1e-3, 1e3))
    lam_max = lam_min * draw(st.floats(1.0, 1e6))
    if draw(st.booleans()):
        # an envelope alone: its tails are empty and every sum pads
        return PriceBounds(lam_min, lam_max, (), (), t_start, draw(st.integers(t_start - 1, 8)))
    inside = st.floats(lam_min, lam_max) | st.sampled_from([lam_min, lam_max])
    pairs = draw(st.lists(st.tuples(inside, inside), min_size=1, max_size=7))
    per_min, per_max = zip(*(sorted(pair) for pair in pairs))
    return PriceBounds(lam_min, lam_max, per_min, per_max, t_start, t_start + len(pairs) - 1)


@given(
    bounds=tail_bounds(),
    warm_keys=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=6),
    budgets=st.tuples(st.integers(0, 10), st.integers(0, 10)),
)
@settings(max_examples=150, deadline=None)
def test_tail_sums_are_the_thresholds_sums(bounds, warm_keys, budgets):
    """Each H[t, n] and L[t, n] is the padded sum the thresholds took at every step.

    The bounds are warmed first, at other (t, n) and by runs at another
    budget pair, and must then agree with a fresh copy bit for bit.
    """
    for t, n in warm_keys:
        if t >= bounds.t_start:
            bounds.low_sums[t, n], bounds.high_sums[t, n]
    if bounds.t_start == 1 and bounds.horizon >= 1:
        params = BatteryParams(0.0, 10.0, 2.0, 4.0, bounds.horizon)
        rng = np.random.default_rng(len(warm_keys))
        days = make_days(rng.uniform(bounds.lambda_min, bounds.lambda_max, (3, bounds.horizon)))
        modes = ("timedep", "feasibility") if bounds.per_slot_min else ("timedep",)
        for mode in modes:
            policy_outcomes(days, [params], [budgets], mode, bounds)
            run_policy(days[0], params, *budgets, mode, bounds)
    fresh = dataclasses.replace(bounds)
    width = max(len(bounds.per_slot_min), bounds.horizon - bounds.t_start + 1) + 4
    for t in range(bounds.t_start, bounds.horizon + 2):
        lows, highs = reference_remaining(bounds, t)
        for n in range(width):
            want_low = sum(lows[:n] + [bounds.lambda_min] * (n - len(lows)))
            want_high = sum(highs[:n] + [bounds.lambda_max] * (n - len(highs)))
            for table in (bounds, fresh):
                got_low, got_high = table.low_sums[t, n], table.high_sums[t, n]
                assert got_low == want_low and repr(got_low) == repr(want_low), (t, n)
                assert got_high == want_high and repr(got_high) == repr(want_high), (t, n)
    with pytest.raises(ValueError, match=f"t={bounds.t_start - 1} precedes bound coverage"):
        bounds.high_sums[bounds.t_start - 1, 1]


def test_tail_sums_shared_between_threads():
    """Threads filling one table at once each read what a table of their own gives.

    A miss computes, then stores, without a lock; the entry is the same
    whichever thread stores it, so a race may repeat a sum but never change one.
    """
    rng = np.random.default_rng(5)
    days = make_days(rng.uniform(0.5, 900.0, (4, 12)).tolist())
    shared, alone = compute_bounds(days, 1, "per-hour"), compute_bounds(days, 1, "per-hour")
    keys = [(t, n) for t in range(1, 14) for n in range(16)]
    want = [(repr(alone.low_sums[key]), repr(alone.high_sums[key])) for key in keys]
    got = [[None] * len(keys) for _ in range(6)]

    def fill(out, order):
        for i in order:
            out[i] = (repr(shared.low_sums[keys[i]]), repr(shared.high_sums[keys[i]]))

    threads = [
        threading.Thread(target=fill, args=(out, rng.permutation(len(keys)).tolist()))
        for out in got
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == want for out in got)


class TestFitDistribution:
    def test_single_sample_step(self):
        dist = fit_distribution(make_days([[10, 20]]))
        assert dist.cdf(1).prob_le(10) == 1.0
        assert dist.cdf(1).prob_le(9.99) == 0.0

    def test_counting_cdf(self):
        dist = fit_distribution(make_days([[10], [20], [30]]))
        assert dist.cdf(1).prob_le(20) == pytest.approx(2 / 3)

    def test_cdf_limits(self):
        dist = fit_distribution(make_days([[10], [20], [30]]))
        assert dist.cdf(1).prob_le(5) == 0.0
        assert dist.cdf(1).prob_le(40) == 1.0

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=100), st.floats(-10, 110))
    @settings(max_examples=200, deadline=None)
    def test_empirical_matches_direct_count(self, samples, x):
        cdf = EmpiricalCdf(samples)
        assert cdf.prob_le(x) == sum(1 for s in samples if s <= x) / len(samples)
        assert cdf.prob_ge(x) == sum(1 for s in samples if s >= x) / len(samples)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_distribution(make_days([]))


class TestSplitDataset:
    def test_exact_proportions(self):
        days = make_days([[i] for i in range(10)])
        split = split_dataset(days, (0.6, 0.2, 0.2))
        assert (len(split.train), len(split.calib), len(split.test)) == (6, 2, 2)

    def test_floor_allocation_remainder_to_train(self):
        days = make_days([[i] for i in range(5)])
        split = split_dataset(days, (0.6, 0.2, 0.2))
        assert (len(split.train), len(split.calib), len(split.test)) == (3, 1, 1)

    def test_deterministic_given_seed(self):
        days = make_days([[i] for i in range(20)])
        a = split_dataset(days, (0.6, 0.2, 0.2), seed=7, shuffled=True)
        b = split_dataset(days, (0.6, 0.2, 0.2), seed=7, shuffled=True)
        assert a == b

    def test_chronological_when_not_shuffled(self):
        days = make_days([[i] for i in range(10)])
        split = split_dataset(days, (0.6, 0.2, 0.2), shuffled=False)
        assert split.train == days[:6]
        assert split.test == days[8:]

    def test_partition_property(self):
        days = make_days([[i] for i in range(17)])
        split = split_dataset(days, (0.5, 0.25, 0.25), seed=3, shuffled=True)
        combined = list(split.train) + list(split.calib) + list(split.test)
        assert len(combined) == len(days)
        assert {d.day_id for d in combined} == {d.day_id for d in days}

    def test_too_few_days(self):
        with pytest.raises(ValueError):
            split_dataset(make_days([[1], [2]]), (0.6, 0.2, 0.2))

    def test_bad_ratios(self):
        days = make_days([[i] for i in range(10)])
        with pytest.raises(ValueError):
            split_dataset(days, (0.5, 0.2, 0.2))


def test_day_matrix_round_trip(tmp_path):
    days = make_days([[1.5, 2.25, 3.125], [4.0, 5.5, 6.75]])
    path = tmp_path / "m.csv"
    export_day_matrix(days, path)
    loaded = load_day_matrix(path)
    assert [d.values for d in loaded] == [d.values for d in days]
    header = path.read_text().splitlines()[0]
    assert header == "day_id,h0,h1,h2"


def test_day_matrix_export_refuses_days_of_different_lengths(tmp_path):
    # the header would name the first day's slots, which the second day lacks
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="all days must share the same horizon"):
        export_day_matrix(make_days([[1.0, 2.0], [3.0]]), path)
    assert not path.exists()


@pytest.mark.parametrize("row", ["d2,4.0,5.5", "d2,4.0,5.5,6.75,8.0"])
def test_day_matrix_row_of_another_length_rejected(tmp_path, row):
    # every day of a matrix has the header's length, so the matrix has one horizon
    path = tmp_path / "m.csv"
    path.write_text(f"day_id,h0,h1,h2\nd1,1.5,2.25,3.125\n{row}\n")
    n = row.count(",")
    with pytest.raises(ValueError, match=f"line 3: {n} prices but the header names 3"):
        load_day_matrix(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("d1,1.0,2.0\n\nd2,nan,3.0\n", "line 4: non-finite price in day d2"),
        ("d1,1.0,2.0\nd2,3.0\n", "line 3: 1 prices but the header names 2"),
        ("d1,1.0,abc\n", "line 2: could not convert string to float: 'abc'"),
    ],
)
def test_day_matrix_row_errors_name_the_file_and_line(tmp_path, body, message):
    # a blank line still counts, so the line number is the file's own
    path = tmp_path / "m.csv"
    path.write_text(f"day_id,h0,h1\n{body}")
    with pytest.raises(ValueError) as exc:
        load_day_matrix(path)
    assert str(exc.value) == f"{path} {message}"


@pytest.mark.parametrize("first", ["d0,1.5,2.25", "2016-05-01,-3,1e3", "x,nan,inf"])
def test_day_matrix_without_header_rejected(tmp_path, first):
    # three days and no header: the first day is not dropped as if it were one
    path = tmp_path / "m.csv"
    path.write_text(f"{first}\nd1,4.0,5.5\nd2,6.0,7.5\n")
    message = f"{path} line 1: a row of prices where the header day_id,h0..h1 belongs"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_day_matrix(path)


@pytest.mark.parametrize("header", ["day_id", ""])
def test_day_matrix_header_without_price_columns_rejected(tmp_path, header):
    path = tmp_path / "m.csv"
    path.write_text(f"{header}\nd1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} line 1: the header names no price")):
        load_day_matrix(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize(
    "body, message",
    [("d1,1.0,2.0\nd2,3.0,4.5\n", None), ("d1,1.0,2.0\n\nd2,x,3.0\n", "line 4: could not")],
)
def test_day_matrix_read_from_a_pipe(tmp_path, body, message):
    # a pipe cannot be read a second time to name a faulty line, so it is
    # read one line at a time from the start, with the same result
    path = tmp_path / "days.pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(f"day_id,h0,h1\n{body}",))
    writer.start()
    try:
        if message is None:
            assert load_day_matrix(path) == DayMatrix(("d1", "d2"), [[1.0, 2.0], [3.0, 4.5]])
        else:
            with pytest.raises(ValueError, match=re.escape(f"{path} {message}")):
                load_day_matrix(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_day_matrix_header_of_any_words_accepted(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("day,00:00,1.0x\nd1,4.0,5.5\n")
    assert load_day_matrix(path) == DayMatrix(("d1",), [[4.0, 5.5]])


def per_line_days(path):
    """The per-line loop's ids and prices for a day matrix file, or its error message."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    try:
        ids, days = market_data._checked_days(path, header, rows)
    except ValueError as exc:
        return str(exc)
    return tuple(ids), np.array(days, dtype=float)


def bulk_days(path):
    """:func:`load_day_matrix`'s ids and prices for a file, or its error message."""
    try:
        matrix = load_day_matrix(path)
    except ValueError as exc:
        return str(exc)
    return matrix.day_ids, matrix.prices


FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def price_cell(value, style):
    """A cell that float() reads as ``value``.

    Its repr, padded with spaces, with a digit separator, or in full-width digits.
    """
    text = repr(value)
    if style == "padded":
        return f" {text} "
    if style == "separated":
        return re.sub(r"(\d)(\d)", r"\1_\2", text, count=1)
    if style == "full-width":
        return text.translate(FULL_WIDTH)
    return text


@st.composite
def day_matrix_files(draw):
    """(the lines of a day matrix CSV, its day ids, its prices).

    Ids that need quoting, blank lines, and cells in every :func:`price_cell` style.
    """
    horizon = draw(st.integers(1, 4))
    n_days = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text(alphabet='ab,"; 1', max_size=4), min_size=n_days, max_size=n_days))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(
        st.lists(finite, min_size=horizon, max_size=horizon), min_size=n_days, max_size=n_days
    ))
    styles = st.sampled_from(["repr", "padded", "separated", "full-width"])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["day_id"] + [f"h{i}" for i in range(horizon)])
    for day_id, row in zip(ids, values):
        if draw(st.booleans()):
            out.write("\n")
        writer.writerow([day_id] + [price_cell(v, draw(styles)) for v in row])
    return out.getvalue().splitlines(), tuple(ids), np.array(values, dtype=float)


@given(day_matrix_files())
@example((["day_id,h0,h1", '"a,b", 1.5 ,1_0', "", "d,１２,-0.0"], ("a,b", "d"),
          np.array([[1.5, 10.0], [12.0, -0.0]])))
@settings(max_examples=150, deadline=None)
def test_day_matrix_bulk_parse_is_the_per_line_loop(tmp_path_factory, case):
    lines, ids, values = case
    path = tmp_path_factory.mktemp("bulk") / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    got_ids, got = bulk_days(path)
    want_ids, want = per_line_days(path)
    assert got_ids == want_ids == ids
    assert got.tobytes() == want.tobytes() == values.tobytes()


DAY_FAULTS = {
    "short row": lambda cells: cells[:-1],
    "long row": lambda cells: cells + ["1.0"],
    "unparsable cell": lambda cells: cells[:-1] + ["1..5"],
    "non-finite price": lambda cells: cells[:-1] + ["-inf"],
}


@given(
    day_matrix_files(),
    st.lists(st.sampled_from(sorted(DAY_FAULTS)), min_size=1, max_size=2, unique=True),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_day_matrix_faults_raise_the_per_line_message(tmp_path_factory, case, faults, data):
    # one fault, or two different ones on two lines: the first line's is named
    lines, _, _ = case
    rows = [i for i, line in enumerate(lines) if i and line]
    faults = faults[: len(rows)]
    picked = data.draw(st.lists(
        st.sampled_from(rows), min_size=len(faults), max_size=len(faults), unique=True
    ))
    for i, fault in zip(picked, faults):
        cells = next(csv.reader([lines[i]]))
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(DAY_FAULTS[fault](cells))
        lines[i] = out.getvalue()
    path = tmp_path_factory.mktemp("faults") / "m.csv"
    path.write_text("\n".join(lines) + "\n")
    message = bulk_days(path)
    assert isinstance(message, str)
    assert message == per_line_days(path)
    assert message.startswith(f"{path} line {min(picked) + 1}: ")
