"""The batched policy runner against the per-step reference loop."""

import itertools
import re

import numpy as np
import pytest

from oracles import reference_run_policy
from socarb import thresholds
from socarb.backtest import synthetic_day_matrix
from socarb.market_data import DayPrices, compute_bounds
from socarb.thresholds import DISCHARGE, BatteryParams, run_policy_days

HORIZON = 8
MODES = ("static", "timedep", "feasibility")
BUDGETS = (0, 1, 2, 3, 5)


def random_days(n, seed):
    rng = np.random.default_rng(seed)
    return [
        DayPrices(f"d{i}", tuple(float(v) for v in rng.uniform(10.0, 90.0, HORIZON)))
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def market():
    days = random_days(40, seed=3)
    return days, compute_bounds(days, 1, "per-hour")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("e0", [0.0, 5.0, 10.0])
def test_batch_equals_reference_loop(market, mode, e0):
    # e0 at e_min / e_max blocks the first charge or discharge, and with
    # overlapping books (k >= 2) a blocked charge falls through to discharge
    days, bounds = market
    params = BatteryParams(0.0, 10.0, 2.0, e0, HORIZON)
    fell_through = False
    for k_ch, k_dis in itertools.product(BUDGETS, repeat=2):
        batch = run_policy_days(days, params, k_ch, k_dis, mode, bounds)
        assert len(batch) == len(days)
        for day, traj in zip(days, batch):
            ref = reference_run_policy(day, params, k_ch, k_dis, mode, bounds)
            assert traj.actions == ref.actions
            assert traj.soc_path == ref.soc_path
            assert traj.cash_flows == ref.cash_flows
            assert traj.profit == ref.profit
            fell_through |= e0 == 10.0 and k_ch >= 2 and traj.actions[0] == DISCHARGE
    if e0 == 10.0 and mode == "static":
        assert fell_through


def test_ratio_overrides_match_reference(market):
    days, bounds = market
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, HORIZON)
    for mode in MODES:
        batch = run_policy_days(days, params, 3, 2, mode, bounds, alpha=1.5, omega=2.0)
        ref = [
            reference_run_policy(d, params, 3, 2, mode, bounds, alpha=1.5, omega=2.0)
            for d in days
        ]
        assert batch == ref


def test_batch_validates_every_day(market):
    days, bounds = market
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, HORIZON)
    short = DayPrices("short", days[0].values[:-1])
    with pytest.raises(ValueError, match="slots but params.horizon"):
        run_policy_days(days[:3] + [short], params, 1, 1, "static", bounds)
    with pytest.raises(ValueError, match="unknown threshold mode"):
        run_policy_days(days, params, 1, 1, "sideways", bounds)
    assert run_policy_days([], params, 1, 1, "static", bounds) == []


@pytest.mark.parametrize("mode", ["timedep", "feasibility"])
def test_state_dependent_modes_need_bounds_of_the_day(mode):
    # bounds of 8-slot days on the same days cut to 6 slots: their remaining
    # tails would hold two slots the day does not have
    long_days = synthetic_day_matrix(40, 8, 1)
    days = [DayPrices(d.day_id, d.values[:6]) for d in long_days]
    params = BatteryParams(0.0, 10.0, 2.0, 5.0, 6)
    message = re.escape("bounds cover slots 1..8 but the day spans 1..6")
    with pytest.raises(ValueError, match=message):
        run_policy_days(days, params, 3, 3, mode, compute_bounds(long_days, 1, "per-hour"))
    own = compute_bounds(days, 1, "per-hour")
    assert len(run_policy_days(days, params, 3, 3, mode, own)) == len(days)


@pytest.mark.parametrize("n_days", [1, 40])
@pytest.mark.parametrize("mode", MODES)
def test_ratios_solved_once_per_batch(market, monkeypatch, n_days, mode):
    days, bounds = market
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, HORIZON)
    calls = []
    solve = thresholds.competitive_ratio

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(thresholds, "competitive_ratio", counting)
    run_policy_days(days[:n_days], params, 3, 3, mode, bounds)
    assert len(calls) <= 2


def test_large_static_batch_equals_reference_bit_for_bit(market):
    # prices below zero give idle steps a cash flow of -0.0, which == cannot
    # tell from 0.0 but repr can
    _, bounds = market
    rng = np.random.default_rng(11)
    days = [
        DayPrices(f"b{n}", tuple(float(v) for v in rng.uniform(-5.0, 95.0, HORIZON)))
        for n in range(4000)
    ]
    params = BatteryParams(0.0, 10.0, 2.0, 6.0, HORIZON)
    batch = run_policy_days(days, params, 3, 3, "static", bounds)
    assert len(batch) == len(days)
    for day, traj in zip(days, batch):
        ref = reference_run_policy(day, params, 3, 3, "static", bounds)
        assert traj == ref and repr(traj) == repr(ref), day.day_id
