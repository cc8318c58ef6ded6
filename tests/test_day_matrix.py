"""A day matrix gives the same results in any layout, window or slice, and checks its days once."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socarb.conformal import label_days
from socarb.market_data import (
    BOUNDS_MODES,
    DayMatrix,
    DayPrices,
    compute_bounds,
    fit_distribution,
)
from socarb.thresholds import THRESHOLD_MODES, BatteryParams, policy_outcomes, run_policy_days

# negative, signed-zero and sub-floor prices, and a plausible range
PRICES = st.one_of(st.floats(-50.0, 500.0), st.sampled_from([-0.0, 0.0, 0.004, 30.0]))


@st.composite
def price_rows(draw):
    """1-6 days of 1-6 prices each, all days of one length, and a window length n."""
    horizon = draw(st.integers(1, 6))
    row = st.lists(PRICES, min_size=horizon, max_size=horizon)
    return draw(st.lists(row, min_size=1, max_size=6)), draw(st.integers(1, horizon))


def as_days(rows):
    return [DayPrices(f"d{i}", tuple(row)) for i, row in enumerate(rows)]


def outcome(func, *args):
    """func(*args) as a comparable value, or the message of the ValueError it raises."""
    try:
        value = func(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(value, tuple) and all(isinstance(v, np.ndarray) for v in value):
        return tuple(v.tolist() for v in value)
    return value


def results(days, horizon):
    """What each function that takes a batch of days makes of a matrix."""
    out = {
        f"bounds {t} {mode}": outcome(compute_bounds, days, t, mode)
        for t in range(1, horizon + 1)
        for mode in BOUNDS_MODES
    }
    out["distribution"] = [cdf.samples.tolist() for cdf in fit_distribution(days).cdfs]
    bounds = compute_bounds(days, 1, "per-hour")
    batteries = [BatteryParams(0.0, 10.0, 2.0, e0, horizon) for e0 in (0.0, 4.0, 10.0)]
    for mode in THRESHOLD_MODES:
        out[mode] = outcome(policy_outcomes, days, batteries, [(1, 1), (2, 3)], mode, bounds)
        out[f"label {mode}"] = outcome(label_days, days, batteries, bounds, 2, 1, mode)
    out["run_policy_days"] = outcome(run_policy_days, days, batteries[1], 2, 2, "static", bounds)
    return out


@settings(max_examples=80, deadline=None)
@given(price_rows())
# one price: an envelope of one point, where no ratio can be solved
@example(([[30.0, 30.0, 30.0], [30.0, 30.0, 30.0]], 2))
def test_a_matrix_gives_the_same_results_in_any_layout(rows_and_n):
    rows, n = rows_and_n
    matrix = DayMatrix.from_days(as_days(rows))
    horizon = len(rows[0])
    fortran = DayMatrix(matrix.day_ids, np.asfortranarray(rows))
    assert not fortran.prices.flags.c_contiguous or horizon == 1 or len(rows) == 1
    assert results(fortran, horizon) == results(matrix, horizon)
    # a window of the last n slots is a view of the matrix, strided when n < horizon
    window = matrix.last(n)
    assert np.shares_memory(window.prices, matrix.prices)
    cut = DayMatrix(matrix.day_ids, [row[-n:] for row in rows])
    assert results(window, n) == results(cut, n)


@settings(max_examples=100, deadline=None)
@given(price_rows())
def test_matrices_of_equal_content_compare_and_hash_equal(rows_and_n):
    rows, n = rows_and_n
    days = as_days(rows)
    ids = tuple(day.day_id for day in days)
    matrix = DayMatrix.from_days(days)
    # another layout, and every zero of the other sign
    flipped = [[-v if v == 0.0 else v for v in row] for row in rows]
    for other in (DayMatrix(ids, np.asfortranarray(rows)), DayMatrix(ids, flipped)):
        assert other == matrix and hash(other) == hash(matrix)
    cut = DayMatrix(ids, [row[-n:] for row in rows])
    assert cut == matrix.last(n) and hash(cut) == hash(matrix.last(n))
    renamed = DayMatrix(ids[:-1] + ("other",), rows)
    assert renamed != matrix
    shifted = DayMatrix(ids, np.array(rows) + 1.0)
    assert shifted != matrix and shifted.prices.tolist() != matrix.prices.tolist()


@settings(max_examples=100, deadline=None)
@given(price_rows())
def test_every_row_is_the_day_that_day_prices_makes_of_it(rows_and_n):
    """An indexed row skips the check DayPrices makes, and is the day that check passes."""
    rows, n = rows_and_n
    matrix = DayMatrix.from_days(as_days(rows))
    for view in (matrix, matrix.last(n)):
        for i, row in enumerate(view.prices.tolist()):
            day = DayPrices(view.day_ids[i], tuple(row))
            assert view[i] == day and view[i - len(view)] == day
            assert hash(view[i]) == hash(day) and type(view[i].values) is tuple


def errors(matrix):
    """The ValueError message of each function that needs at least one day."""
    return [outcome(compute_bounds, matrix, 1), outcome(fit_distribution, matrix)]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1.0, 2.0], [3.0]], "all days must share the same horizon"),
        ([[1.0], [2.0, 3.0, 4.0], [5.0]], "all days must share the same horizon"),
        ([[1.0, 2.0], [3.0, math.nan]], "non-finite price in day d1"),
        ([[math.inf]], "non-finite price in day d0"),
        ([[1.0, 2.0], [-math.inf, 2.0], [math.nan, 1.0]], "non-finite price in day d1"),
        ([[]], "day must contain at least one value"),
    ],
)
def test_malformed_days_raise_alike_as_a_list_and_as_a_matrix(rows, message):
    with pytest.raises(ValueError) as as_matrix:
        DayMatrix(tuple(f"d{i}" for i in range(len(rows))), rows)
    assert str(as_matrix.value) == message
    # a list of days: DayPrices refuses a day of its own, the stacking the rest
    with pytest.raises(ValueError) as as_list:
        DayMatrix.from_days(as_days(rows))
    assert str(as_list.value) == message


@pytest.mark.parametrize(
    "empty", [DayMatrix.from_days([]), DayMatrix((), []), DayMatrix((), np.empty((0, 4)))]
)
def test_no_days_raise_alike_as_a_list_and_as_a_matrix(empty):
    assert errors(empty) == [
        ("ValueError", "compute_bounds requires at least one day"),
        ("ValueError", "fit_distribution requires at least one day"),
    ]
    assert len(empty) == 0 and list(empty) == []


def test_matrix_is_read_only_and_owns_its_prices():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    matrix = DayMatrix(("a", "b"), source)
    source[0, 0] = 99.0
    assert matrix.prices[0, 0] == 1.0
    for view in (matrix, matrix[1:2], matrix.last(1)):
        with pytest.raises(ValueError, match="read-only"):
            view.prices[0, 0] = 5.0


def test_matrix_rows_windows_and_days():
    matrix = DayMatrix(("a", "b", "c"), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    assert len(matrix) == 3 and matrix.horizon == 3
    assert matrix[1:3] == DayMatrix(("b", "c"), [[4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    assert matrix.last(2)[0:1] == DayMatrix(("a",), [[2.0, 3.0]])
    assert list(matrix.last(1)) == [DayPrices("a", (3.0,)), DayPrices("b", (6.0,)),
                                    DayPrices("c", (9.0,))]
    assert matrix[1] == DayPrices("b", (4.0, 5.0, 6.0))
    assert matrix[-1] == DayPrices("c", (7.0, 8.0, 9.0))
    assert matrix[:] == matrix
    for n in (0, 4):
        with pytest.raises(ValueError, match=f"window of {n} slots outside 1..3"):
            matrix.last(n)


@pytest.mark.parametrize(
    "ids, prices, message",
    [
        (("a",), [[1.0], [2.0]], "1 day ids for 2 rows of prices"),
        (("a", "b"), [1.0, 2.0], r"prices must be a \(days, slots\) matrix, got shape \(2,\)"),
    ],
)
def test_matrix_shape_checked(ids, prices, message):
    with pytest.raises(ValueError, match=message):
        DayMatrix(ids, prices)


@pytest.mark.parametrize("mode", THRESHOLD_MODES)
def test_a_battery_horizon_is_checked_before_the_batch(mode):
    matrix = DayMatrix(("a", "b"), [[10.0, 20.0, 30.0], [30.0, 20.0, 10.0]])
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, 2)
    runs = [
        lambda days, bounds: run_policy_days(days, params, 1, 1, mode, bounds),
        lambda days, bounds: policy_outcomes(days, [params], [(1, 1)], mode, bounds)[0].shape,
        lambda days, bounds: label_days(days, [params], bounds, 1, 1, mode)[1].shape,
    ]
    for run in runs:
        with pytest.raises(ValueError, match=r"^day has 3 slots but params\.horizon=2$"):
            run(matrix, compute_bounds(matrix, 1))
    # no day, no horizon to check
    bounds = compute_bounds(matrix.last(2), 1)
    assert [run(DayMatrix((), []), bounds) for run in runs] == [[], (1, 1, 0), (1, 0)]


@settings(max_examples=100, deadline=None)
@given(
    price_rows(),
    st.one_of(st.none(), st.integers(-7, 7)),
    st.one_of(st.none(), st.integers(-7, 7)),
    st.one_of(st.none(), st.integers(-3, 3).filter(bool)),
)
def test_a_slice_is_a_read_only_view_of_those_rows(rows_and_n, start, stop, step):
    rows, _ = rows_and_n
    matrix = DayMatrix(tuple(f"d{i}" for i in range(len(rows))), rows)
    part = matrix[start:stop:step]
    picked = range(len(rows))[start:stop:step]
    want = DayMatrix(tuple(f"d{i}" for i in picked), np.array(rows)[list(picked)])
    assert part == want and hash(part) == hash(want)
    assert part.horizon == matrix.horizon and len(part) == len(picked)
    assert list(part) == [matrix[i] for i in picked]
    if len(part):
        assert np.shares_memory(part.prices, matrix.prices)
    with pytest.raises(ValueError, match="read-only"):
        part.prices[...] = 0.0
