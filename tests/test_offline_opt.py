"""The perfect-foresight optimum against the reference DP that tracks both counters."""

import numpy as np
import pytest

from oracles import reference_offline_opt
from socarb.market_data import DayPrices
from socarb.thresholds import BatteryParams, offline_opt

HORIZONS = (1, 2, 5, 8)


def budgets(horizon, rng):
    """None, the non-binding budgets, one-sided budgets and random binding ones."""
    h = horizon
    fixed = [None, (h, h), (h + 2, 0), (0, h), (h + 2, 1), (1, h + 3), (h - 1, h - 1)]
    fixed += [tuple(int(k) for k in rng.integers(0, h, 2)) for _ in range(3)]
    return fixed


def days(horizon, rng):
    """Uniform prices, prices from a few levels (many ties), constant prices and
    negative prices, among them ties at zero and below."""
    out = [tuple(float(v) for v in rng.uniform(10.0, 90.0, horizon)) for _ in range(3)]
    out += [tuple(10.0 * float(v) for v in rng.integers(1, 4, horizon)) for _ in range(2)]
    out += [(25.0,) * horizon]
    out += [tuple(float(v) for v in rng.uniform(-40.0, 40.0, horizon))]
    out += [tuple(10.0 * float(v) for v in rng.integers(-2, 2, horizon))]
    return [DayPrices(f"d{i}", values) for i, values in enumerate(out)]


def assert_matches_reference(day, params, fixed_k, terminal):
    """Compared by repr, which tells an idle step's -0.0 cash at a negative price from 0.0."""
    got = offline_opt(day, params, fixed_k=fixed_k, terminal=terminal)
    ref = reference_offline_opt(day, params, fixed_k=fixed_k, terminal=terminal)
    assert repr(got) == repr(ref), (params, day.values, fixed_k, terminal)


def check_grid(rate, e0, terminal, seed):
    """Every horizon, day and budget pair on a 0..10 battery; returns the case count."""
    rng = np.random.default_rng(seed)
    cases = 0
    for horizon in HORIZONS:
        params = BatteryParams(0.0, 10.0, rate, e0, horizon)
        for d in days(horizon, rng):
            for fixed_k in budgets(horizon, rng):
                assert_matches_reference(d, params, fixed_k, terminal)
                cases += 1
    return cases


@pytest.mark.parametrize("terminal", ["cyclic", "free"])
@pytest.mark.parametrize("e0", [0.0, 4.0, 10.0])
def test_offline_opt_equals_reference(terminal, e0):
    assert check_grid(2.0, e0, terminal, 17) == len(HORIZONS) * 8 * 10


@pytest.mark.parametrize("terminal", ["cyclic", "free"])
def test_offline_opt_off_rate_grid_equals_reference(terminal):
    """e0 = 9.3 with rate 2.5: the lattice 1.8..9.3 reaches neither capacity edge."""
    assert BatteryParams(0.0, 10.0, 2.5, 9.3, 1).offsets == range(-3, 1)
    assert check_grid(2.5, 9.3, terminal, 23) == len(HORIZONS) * 8 * 10


def test_offline_opt_hindsight_geometry_equals_reference():
    """24-step days as the hindsight audit calls it: battery 0..10, rate 2, e0 5,
    free terminal and no budget, so both of the reference's counters run to 24."""
    rng = np.random.default_rng(29)
    params = BatteryParams(0.0, 10.0, 2.0, 5.0, 24)
    shape = 50.0 + 30.0 * np.sin(2.0 * np.pi * (np.arange(24) - 4.0) / 24.0)
    out = [shape + rng.normal(0.0, 8.0, 24) for _ in range(2)]
    out += [10.0 * rng.integers(-1, 4, 24), rng.uniform(-30.0, 60.0, 24)]
    for i, values in enumerate(out):
        day = DayPrices(f"h{i}", tuple(float(v) for v in values))
        assert_matches_reference(day, params, None, "free")


def test_offline_opt_rejects_day_of_other_length():
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, 4)
    day = DayPrices("d", (10.0, 50.0, 20.0, 80.0, 30.0, 90.0))
    with pytest.raises(ValueError, match=r"day has 6 slots but params\.horizon=4"):
        offline_opt(day, params)


@pytest.mark.parametrize("fixed_k", [(-1, 2), (2, -1)])
def test_offline_opt_rejects_negative_budget(fixed_k):
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, 4)
    day = DayPrices("d", (10.0, 50.0, 20.0, 80.0))
    with pytest.raises(ValueError, match="budgets must be non-negative"):
        offline_opt(day, params, fixed_k=fixed_k)
