"""p_band, Q_t and tau_star read one SoC distribution, and the grid runs each stage once."""

import json
from collections import Counter

import numpy as np
import pytest

import socarb.backtest as bt
import socarb.reachability as rc
from socarb.backtest import parse_config, run_experiment, synthetic_day_matrix
from socarb.cli import main
from socarb.market_data import compute_bounds, fit_distribution
from socarb.reachability import (
    SOC_FREE_MODES,
    ActionProbs,
    TargetBand,
    policy_distributions,
    propagate,
    stopping_time,
    terminal_band_probability,
)
from socarb.thresholds import THRESHOLD_MODES, BatteryParams

from test_reach_kernels import LATTICES, configurations

# every budget lies below every window, so the budgets bind
GRID = """
battery.e_min = 0
battery.e_max = 10
battery.rate = 2
battery.e0 = 5
battery.horizon = 8
bands = 5:7, 3:8
e0_sweep = 1, 5, 9
start_steps = 8, 6, 4
k_grid = 1:1, 2:3
seed = 5
synthetic.n_days = 70
cqr.epochs = 10
"""


@pytest.mark.parametrize("post_stop, tol", [("idle", 1e-15), ("continue-policy", 1e-12)])
def test_report_q_matches_p_band_in_every_cell(monkeypatch, post_stop, tol):
    """Idle Q_T, and continue-policy Q_t at every t, equal the cell's reported p_band."""
    calls = []

    def recorded(soc_dist, band, epsilon, mode):
        result = stopping_time(soc_dist, band, epsilon, mode)
        calls.append((soc_dist, band, result))
        return result

    monkeypatch.setattr(bt, "stopping_time", recorded)
    cells = run_experiment(parse_config(GRID + f"post_stop = {post_stop}\n")).payload["cells"]
    checked = budgets_bind = 0
    for soc_dist, band, result in calls:
        n = soc_dist.horizon
        key = f"e0={soc_dist.params.e0:g}|band=[{band.lo:g},{band.hi:g}]|steps={n}"
        p_band = cells[key]["policies"][f"k={soc_dist.k_ch}x{soc_dist.k_dis}"]["p_band"]
        assert p_band == terminal_band_probability(soc_dist, band)
        q_checked = result.big_q[-1:] if post_stop == "idle" else result.big_q
        assert len(q_checked) >= 1
        assert all(abs(q - p_band) <= tol for q in q_checked), (key, result.big_q, p_band)
        checked += 1
        # the static chain's steps belong to their budgets' books, so a budget
        # binds where a spent side (its last row or column) ends with mass
        spent = soc_dist.masses[-1]
        budgets_bind += (soc_dist.k_ch <= n and spent[-1].sum() > 1e-3) or (
            soc_dist.k_dis <= n and spent[:, -1].sum() > 1e-3
        )
    # every cell's policies, and the plot block's reference cell (e0=5, 5:7, 8 steps, 1x1) again
    assert checked == sum(len(cell["policies"]) for cell in cells.values()) + 1 == 37
    assert budgets_bind > 0


def test_cli_idle_last_q_equals_reach_p_band(tmp_path, capsys):
    for k_ch, k_dis in ((1, 2), (2, 1), (1, 1)):
        args = ["--e0", "5", "--horizon", "6", "--synthetic", "30", "--band", "5,7",
                "--kch", str(k_ch), "--kdis", str(k_dis)]
        assert main(["reach", *args, "--out", str(tmp_path / "r.csv")]) == 0
        p_band = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["p_band"]
        out = tmp_path / "q.csv"
        assert main(["stop-time", *args, "--post-stop", "idle", "--out", str(out)]) == 0
        t, q_last = out.read_text().strip().splitlines()[-1].split(",")
        assert t == "6"
        assert abs(float(q_last) - p_band) <= 1e-15


# "marginal": budgets at the horizon, whose SoC marginals are the budget-free chain's
@pytest.mark.parametrize("budget_free", [False, True], ids=["augmented", "marginal"])
@pytest.mark.parametrize("lattice", LATTICES, ids=("0-10-rate2", "0-48-rate1"))
def test_continue_policy_q_is_p_band_at_every_step(lattice, budget_free):
    """The tower property: the recursion is the adjoint of the chain that propagate steps."""
    seed = 2000 + 10 * LATTICES.index(lattice) + budget_free
    for params, probs, k_ch, k_dis, band in configurations(lattice, seed):
        if budget_free:
            k_ch = k_dis = params.horizon
        soc_dist = propagate(params, probs, k_ch, k_dis)
        p_band = terminal_band_probability(soc_dist, band)
        result = stopping_time(soc_dist, band, 0.1, "continue-policy")
        assert result.q_table.shape == (params.horizon,) + soc_dist.masses.shape[1:]
        assert all(abs(q - p_band) <= 1e-12 for q in result.big_q)
        idle = stopping_time(soc_dist, band, 0.1, "idle")
        assert idle.big_q[-1] == p_band


def test_q_table_is_zero_outside_capacity():
    params = BatteryParams(0.0, 10.0, 2.0, 2.0, 5)  # m = -1 .. 4
    probs = [ActionProbs(0.3, 0.4, 0.3)] * 5
    soc_dist = propagate(params, probs, 1, 5)  # n_dis up to 5, so m = c - d down to -5
    c, d = np.indices(soc_dist.masses.shape[1:])
    inside = (-1 <= c - d) & (c - d <= 4)
    assert not inside.all()
    whole = TargetBand.from_interval(0.0, 10.0)
    for mode in ("idle", "full-control", "continue-policy"):
        q_table = stopping_time(soc_dist, whole, 0.1, mode).q_table
        assert (q_table[:, ~inside] == 0.0).all() and (q_table[:, inside] == 1.0).all()


def test_distributions_from_different_probabilities_are_unequal():
    """A distribution is identified by the chain it was built from, not only its budgets."""
    params = BatteryParams(0.0, 10.0, 2.0, 2.0, 3)
    a = [ActionProbs(0.3, 0.4, 0.3)] * 3
    b = [ActionProbs(0.4, 0.3, 0.3)] * 3
    assert propagate(params, a, 3, 3) != propagate(params, b, 3, 3)
    same = propagate(params, list(a), 3, 3)
    assert propagate(params, a, 3, 3) == same and hash(propagate(params, a, 3, 3)) == hash(same)
    assert same.probs == tuple(a) and same.horizon == 3


# the stages the backtest calls, and the one reachability batch its SoC distributions step
COUNTED = {
    bt: ("compute_bounds", "fit_distribution", "policy_distributions", "policy_outcomes",
         "trajectory_counts"),
    rc: ("propagate_lanes",),
}


def counted_stages(monkeypatch, config_text):
    """How often each of COUNTED runs in one backtest of config_text."""
    counts = Counter({name: 0 for names in COUNTED.values() for name in names})
    for module, names in COUNTED.items():
        for name in names:
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    run_experiment(parse_config(config_text))
    return dict(counts)


def test_band_free_stages_run_once_per_window_e0_and_budget(monkeypatch):
    per_bands = {
        bands: counted_stages(monkeypatch, GRID + f"bands = {bands}\n")
        for bands in ("5:7", "5:7, 3:8, 2:9")
    }
    windows, e0s, budgets = 3, 3, 2
    assert per_bands["5:7"] == per_bands["5:7, 3:8, 2:9"] == {
        "compute_bounds": windows + 1,  # and once for the plot and CQR blocks together
        "fit_distribution": windows + 1,  # and once for the plot block
        # the static rule never reads the SoC: one batch per window and budget pair,
        # plus the plot block's one distribution
        "policy_distributions": windows * budgets + 1,
        "propagate_lanes": windows * budgets + 1,
        "policy_outcomes": windows,  # one batch runs every e0 and budget pair of a window
        "trajectory_counts": e0s,  # one counting DP per battery lattice, for every window
    }


@pytest.mark.parametrize("mode, per_e0", [("timedep", False), ("feasibility", True)])
def test_state_dependent_modes_batch_as_far_as_their_rule_allows(monkeypatch, mode, per_e0):
    """Timedep thresholds never read the SoC and share one batch; feasibility ones do not."""
    counts = counted_stages(monkeypatch, GRID + f"threshold_mode = {mode}\n")
    windows, e0s, budgets = 3, 3, 2
    batches = windows * budgets * (e0s if per_e0 else 1)
    assert counts["policy_distributions"] == batches + 1
    assert counts["propagate_lanes"] == batches + 1


def test_soc_free_modes_give_every_e0_the_same_probabilities():
    """The modes whose chain the backtest shares across e0, and only those, never read e."""
    days = synthetic_day_matrix(60, 24, 7)
    dist, bounds = fit_distribution(days), compute_bounds(days, 1, "per-hour")
    e0s = (1.0, 3.0, 5.0, 7.0, 9.0)
    for mode in THRESHOLD_MODES:
        differ = False
        for k in (3, 6, 12):
            lists = [
                policy_distributions(
                    [BatteryParams(0.0, 10.0, 2.0, e0, 24)], dist, bounds, k, k, mode
                )[0].probs
                for e0 in e0s
            ]
            differ |= any(probs != lists[0] for probs in lists)
        assert differ == (mode not in SOC_FREE_MODES), mode
