"""The batched policy runners against the per-step reference loop and each other."""

import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import socarb.backtest as bt
import socarb.conformal as conformal
from oracles import reference_policy_outcomes, reference_run_policy
from socarb import thresholds
from socarb.backtest import parse_config, run_experiment, synthetic_day_matrix
from socarb.market_data import DayMatrix, DayPrices, compute_bounds
from socarb.thresholds import (
    DISCHARGE,
    BatteryParams,
    build_schedule,
    policy_outcomes,
    run_policy_days,
)

HORIZON = 8
MODES = ("static", "timedep", "feasibility")
BUDGETS = (0, 1, 2, 3, 5, HORIZON + 3)


def random_days(n, seed):
    rng = np.random.default_rng(seed)
    return DayMatrix.from_days(
        [
            DayPrices(f"d{i}", tuple(float(v) for v in rng.uniform(10.0, 90.0, HORIZON)))
            for i in range(n)
        ]
    )


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
    short = days[:3].last(HORIZON - 1)
    with pytest.raises(ValueError, match="slots but params.horizon"):
        run_policy_days(short, params, 1, 1, "static", bounds)
    with pytest.raises(ValueError, match="unknown threshold mode"):
        run_policy_days(days, params, 1, 1, "sideways", bounds)
    assert run_policy_days(DayMatrix((), []), params, 1, 1, "static", bounds) == []


@pytest.mark.parametrize("mode", ["timedep", "feasibility"])
def test_state_dependent_modes_need_bounds_of_the_day(mode):
    # bounds of 8-slot days on the same days cut to 6 slots: their remaining
    # tails would hold two slots the day does not have
    long_days = synthetic_day_matrix(40, 8, 1)
    days = DayMatrix.from_days([DayPrices(d.day_id, d.values[:6]) for d in long_days])
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
    days = DayMatrix.from_days(
        [
            DayPrices(f"b{n}", tuple(float(v) for v in rng.uniform(-5.0, 95.0, HORIZON)))
            for n in range(4000)
        ]
    )
    params = BatteryParams(0.0, 10.0, 2.0, 6.0, HORIZON)
    batch = run_policy_days(days, params, 3, 3, "static", bounds)
    assert len(batch) == len(days)
    for day, traj in zip(days, batch):
        ref = reference_run_policy(day, params, 3, 3, "static", bounds)
        assert traj == ref and repr(traj) == repr(ref), day.day_id


@st.composite
def lane_batches(draw):
    """Batteries differing in e0, budget pairs and days for one policy_outcomes call.

    e0 takes e_min, e_max and off-lattice values, some within FEAS_EPS of a
    lattice that ends at a capacity limit; budgets run from 0 to past the
    horizon; prices go below zero and hit book entries exactly.
    """
    horizon = draw(st.integers(1, 8))
    rate = draw(st.sampled_from([1.0, 2.0, 2.5]))
    named = st.sampled_from([0.0, 10.0, 1.3, 9.3, 1e-12, 10.0 - 1e-12])
    e0 = st.one_of(named, st.floats(0.0, 10.0))
    e0s = draw(st.lists(e0, min_size=1, max_size=3, unique=True))
    params_list = [BatteryParams(0.0, 10.0, rate, e0, horizon) for e0 in e0s]
    budget = st.integers(0, horizon + 2)
    budgets = draw(st.lists(st.tuples(budget, budget), min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    history = DayMatrix.from_days(
        [
            DayPrices(f"h{n}", tuple(float(v) for v in rng.uniform(10.0, 90.0, horizon)))
            for n in range(20)
        ]
    )
    bounds = compute_bounds(history, 1, "per-hour")
    schedules = [build_schedule(bounds, k_ch, k_dis) for k_ch, k_dis in budgets]
    books = sorted({v for s in schedules for v in s.charge + s.discharge})
    price = st.floats(-20.0, 100.0)
    if books:
        price = st.one_of(price, st.sampled_from(books))
    # days below zero throughout: where charging is blocked, every step idles at -0.0 cash
    below_zero = st.floats(-20.0, -0.5)
    day = st.one_of(st.tuples(*[price] * horizon), st.tuples(*[below_zero] * horizon))
    days = draw(
        st.lists(day, min_size=1, max_size=6).map(
            lambda rows: DayMatrix.from_days([DayPrices(f"d{n}", row) for n, row in enumerate(rows)])
        )
    )
    return days, params_list, budgets, bounds


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(batch=lane_batches())
def test_every_lane_equals_run_policy_days(mode, batch):
    days, params_list, budgets, bounds = batch
    profit, soc = policy_outcomes(days, params_list, budgets, mode, bounds)
    assert profit.shape == soc.shape == (len(params_list), len(budgets), len(days))
    assert profit.dtype == soc.dtype == np.float64
    for i, params in enumerate(params_list):
        for j, (k_ch, k_dis) in enumerate(budgets):
            trajs = run_policy_days(days, params, k_ch, k_dis, mode, bounds)
            # repr also tells -0.0 from 0.0
            assert repr(profit[i, j].tolist()) == repr([traj.profit for traj in trajs])
            assert soc[i, j].tolist() == [traj.soc_path[-1] for traj in trajs]


@pytest.mark.parametrize("field", ["e_min", "e_max", "rate", "horizon"])
def test_batteries_of_a_batch_differ_only_in_e0(market, field):
    days, bounds = market
    base = BatteryParams(0.0, 10.0, 2.0, 4.0, HORIZON)
    other = dataclasses.replace(base, **{field: getattr(base, field) + 1})
    for mode in MODES:
        with pytest.raises(ValueError, match=f"differ only in e0, not in {field}"):
            policy_outcomes(days, [base, other], [(1, 1)], mode, bounds)


@pytest.mark.parametrize("mode", MODES)
def test_batch_rejects_a_day_as_run_policy_days_does(market, mode):
    days, bounds = market
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, HORIZON)
    batch = days[:3].last(HORIZON - 1)
    with pytest.raises(ValueError) as loop:
        run_policy_days(batch, params, 1, 1, mode, bounds)
    with pytest.raises(ValueError) as lanes:
        policy_outcomes(batch, [params], [(1, 1)], mode, bounds)
    assert str(lanes.value) == str(loop.value) == "day has 7 slots but params.horizon=8"


@pytest.mark.parametrize("mode", MODES)
def test_no_days_give_empty_lanes(market, mode):
    _, bounds = market
    params_list = [BatteryParams(0.0, 10.0, 2.0, e0, HORIZON) for e0 in (1.0, 5.0)]
    profit, soc = policy_outcomes(
        DayMatrix((), []), params_list, [(1, 1), (2, 0), (0, 3)], mode, bounds
    )
    assert profit.shape == soc.shape == (2, 3, 0)


BACKTEST = """
battery.e_min = 0
battery.e_max = 10
battery.rate = 2
battery.horizon = 8
bands = 5:7, 3:8
e0_sweep = 0, 3.3, 10
start_steps = 8, 6, 3
k_grid = 1:1, 2:3, 9:0
seed = 4
synthetic.n_days = 60
cqr.epochs = 20
"""


def report_text(config):
    return json.dumps(run_experiment(config).without_timestamp(), sort_keys=True)


@pytest.mark.parametrize("mode", MODES)
def test_backtest_equals_the_per_lane_loop(monkeypatch, mode):
    config = parse_config(BACKTEST + f"threshold_mode = {mode}\n")
    batched = report_text(config)
    assert '"error"' not in batched
    monkeypatch.setattr(bt, "policy_outcomes", reference_policy_outcomes)
    monkeypatch.setattr(conformal, "policy_outcomes", reference_policy_outcomes)
    assert report_text(config) == batched


@pytest.mark.parametrize("post_stop", ["idle", "full-control", "continue-policy"])
@pytest.mark.parametrize("mode", MODES)
def test_backtest_equals_the_per_cell_reachability_path(monkeypatch, mode, post_stop):
    """Per-window lane batches, the lazy stopping time and shared counts change no byte.

    The oracle path runs each (e0, budget pair)'s policy on its own, sums every
    Q_t, and counts every cell with its own DP.
    """
    config = parse_config(BACKTEST + f"threshold_mode = {mode}\npost_stop = {post_stop}\n")
    batched = report_text(config)
    assert '"error"' not in batched
    monkeypatch.setattr(bt, "_policy_lanes", oracles.reference_policy_lanes)
    monkeypatch.setattr(bt, "stopping_time", oracles.eager_stopping_time)
    monkeypatch.setattr(bt, "trajectory_counts", oracles.reference_trajectory_counts)
    assert report_text(config) == batched


@pytest.mark.parametrize("mode", MODES)
def test_policy_failure_fails_the_batteries_it_reaches(monkeypatch, mode):
    """A failed SoC distribution batch fails the cells of every battery that shares it.

    Static and timedep batteries share one run per window and budget pair,
    as their rules never read the SoC, and it fails them all; a feasibility
    run is a battery's own, and fails only that battery's cells, as on the
    per-cell path.
    """
    config = parse_config(BACKTEST + f"threshold_mode = {mode}\n")
    healthy = run_experiment(config).payload["cells"]
    shared = mode != "feasibility"

    def failing(lanes, *args):
        if lanes[0].horizon == 6 and (shared or lanes[0].e0 == 3.3):
            raise RuntimeError("policy failed")
        return original(lanes, *args)

    original = bt.policy_distributions
    monkeypatch.setattr(bt, "policy_distributions", failing)
    cells = run_experiment(config).payload["cells"]
    for key, cell in cells.items():
        if key.endswith("|steps=6") and (shared or key.startswith("e0=3.3|")):
            assert cell == {"error": "RuntimeError: policy failed"}, key
        else:
            assert cell == healthy[key], key
    monkeypatch.setattr(bt, "_policy_lanes", oracles.reference_policy_lanes)
    assert run_experiment(config).payload["cells"] == cells


def test_cqr_block_labels_each_day_set_once(monkeypatch):
    """The CQR layer labels all its days in one batch, whole e0 sweep at once.

    The batch steps the static kernel for the terminal SoC only: it records
    no actions, so no profit is summed for it.
    """
    config = parse_config(BACKTEST + "threshold_mode = static\n")
    calls = []

    def counted(days, params_list, budgets, bounds, actions=None):
        calls.append((len(days), len(params_list), actions))
        return static_lanes(days, params_list, budgets, bounds, actions)

    def no_profits(*args):
        raise AssertionError("the labeller summed profits")

    static_lanes = thresholds._static_lanes
    monkeypatch.setattr(conformal, "_static_lanes", counted)
    monkeypatch.setattr(conformal, "policy_outcomes", no_profits)
    report = run_experiment(config).payload
    # train, calibration and test days together, for all three batteries of the sweep
    assert calls == [(60, 3, None)]
    assert not any("error" in row for row in report["cqr"]["per_e0"].values())
    assert "run_policy_days" not in vars(conformal)


def test_failed_batch_fails_its_window_as_the_loop_did(monkeypatch):
    """A window whose policy runs raise fails each of its cells with the message.

    The loop path, where every (e0, budget pair) runs run_policy_days on its
    own, gives the same cells when each of the window's runs raises.
    """
    config = parse_config(BACKTEST + "threshold_mode = static\n")
    healthy = run_experiment(config).payload["cells"]

    def failing(run):
        def run_or_fail(days, *args):
            if days and len(days[0].values) == 6:
                raise RuntimeError("policy run failed")
            return run(days, *args)

        return run_or_fail

    monkeypatch.setattr(bt, "policy_outcomes", failing(policy_outcomes))
    cells = run_experiment(config).payload["cells"]
    assert cells.keys() == healthy.keys()
    for key, cell in cells.items():
        if key.endswith("|steps=6"):
            assert cell == {"error": "RuntimeError: policy run failed"}
        else:
            assert cell == healthy[key]
    monkeypatch.setattr(bt, "policy_outcomes", reference_policy_outcomes)
    monkeypatch.setattr(oracles, "run_policy_days", failing(run_policy_days))
    assert run_experiment(config).payload["cells"] == cells


def failing_where(original, message, fails):
    """original, raising RuntimeError(message) on the calls where fails(*args) holds."""

    def run(*args, **kwargs):
        if fails(*args):
            raise RuntimeError(message)
        return original(*args, **kwargs)

    return run


def six_step_days(days, *args):
    return bool(days) and len(days[0].values) == 6


def assert_cells(cells, healthy, expected_error):
    """Each cell is an error row of expected_error(key), or its healthy self where that is None."""
    assert cells.keys() == healthy.keys()
    for key, cell in cells.items():
        message = expected_error(key)
        assert cell == (healthy[key] if message is None else {"error": message}), key


def test_failed_bounds_fail_their_window_only(monkeypatch):
    config = parse_config(BACKTEST + "threshold_mode = static\n")
    healthy = run_experiment(config).payload
    monkeypatch.setattr(
        bt, "compute_bounds", failing_where(compute_bounds, "no bounds", six_step_days)
    )
    report = run_experiment(config).payload
    assert_cells(
        report["cells"],
        healthy["cells"],
        lambda key: "RuntimeError: no bounds" if key.endswith("|steps=6") else None,
    )
    assert report["cqr"] == healthy["cqr"]
    # the profit curve loses the failed cells' rows, and nothing else changes
    healthy_plot = healthy["plot_data"]
    kept = [row for row in healthy_plot["profit_curve"] if not row[0].endswith("|steps=6")]
    assert report["plot_data"] == {**healthy_plot, "profit_curve": kept}


@pytest.mark.parametrize(
    "first, second, winner",
    [
        # a failed window runs no policy; a failed SoC distribution comes
        # before the profit batch in every budget pair
        ("compute_bounds", "policy_distributions", "compute_bounds"),
        ("fit_distribution", "policy_outcomes", "fit_distribution"),
        ("policy_distributions", "policy_outcomes", "policy_distributions"),
        ("policy_outcomes", "policy_distributions", "policy_distributions"),
    ],
)
def test_first_failure_of_a_window_wins(monkeypatch, first, second, winner):
    config = parse_config(BACKTEST + "threshold_mode = static\n")
    healthy = run_experiment(config).payload["cells"]
    horizon_six = {
        "compute_bounds": six_step_days,
        "fit_distribution": six_step_days,
        "policy_outcomes": six_step_days,
        "policy_distributions": lambda lanes, *args: lanes[0].horizon == 6,
    }
    for name in (first, second):
        original = getattr(bt, name)
        monkeypatch.setattr(bt, name, failing_where(original, f"{name} failed", horizon_six[name]))
    cells = run_experiment(config).payload["cells"]
    message = f"RuntimeError: {winner} failed"
    assert_cells(cells, healthy, lambda key: message if key.endswith("|steps=6") else None)


def test_failed_counts_win_over_a_failed_window(monkeypatch):
    config = parse_config(BACKTEST + "threshold_mode = static\n")
    healthy = run_experiment(config).payload["cells"]
    monkeypatch.setattr(
        bt, "compute_bounds", failing_where(compute_bounds, "no bounds", six_step_days)
    )
    monkeypatch.setattr(
        bt,
        "trajectory_counts",
        failing_where(bt.trajectory_counts, "no counts", lambda params, *args: params.e0 == 3.3),
    )
    cells = run_experiment(config).payload["cells"]

    def expected(key):
        if key.startswith("e0=3.3|"):
            return "RuntimeError: no counts"
        return "RuntimeError: no bounds" if key.endswith("|steps=6") else None

    assert_cells(cells, healthy, expected)


def test_failed_coverage_check_fails_its_row_only(monkeypatch):
    config = parse_config(BACKTEST + "threshold_mode = static\n")
    healthy = run_experiment(config).payload["cqr"]
    calls = []

    def second_call(*args):
        calls.append(args)
        return len(calls) == 2  # the e0 sweep's second entry, 3.3

    monkeypatch.setattr(
        bt, "evaluate_coverage", failing_where(bt.evaluate_coverage, "no coverage", second_call)
    )
    cqr = run_experiment(config).payload["cqr"]
    assert len(calls) == 3
    assert cqr["per_e0"] == {
        **healthy["per_e0"], "e0=3.3": {"error": "RuntimeError: no coverage"}
    }
    assert [row[0] for row in healthy["coverage_curve"]] == [0.0, 3.3, 10.0]
    assert cqr["coverage_curve"] == [healthy["coverage_curve"][0], healthy["coverage_curve"][2]]
    assert {k: v for k, v in cqr.items() if k not in ("per_e0", "coverage_curve")} == {
        k: v for k, v in healthy.items() if k not in ("per_e0", "coverage_curve")
    }
