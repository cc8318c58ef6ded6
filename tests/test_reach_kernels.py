"""Array kernels of the reachability engine against the dict oracles they replaced."""

import math

import numpy as np
import pytest

import socarb.reachability as rc
from socarb.cli import main
from socarb.market_data import DayMatrix, DayPrices, compute_bounds, fit_distribution
from socarb.reachability import (
    ActionProbs,
    TargetBand,
    count_feasible_trajectories,
    policy_distributions,
    propagate,
    propagate_lanes,
    static_steps,
    stopping_time,
    trajectory_counts,
)
from socarb.thresholds import THRESHOLD_MODES, BatteryParams

from oracles import (
    _reachable_in_band,
    brute_force_distribution,
    eager_propagate,
    eager_stopping_time,
    reference_count_feasible_trajectories,
    reference_propagate,
    reference_stopping_time,
)

TOL = 1e-14
LATTICES = ((0.0, 10.0, 2.0), (0.0, 48.0, 1.0))  # (e_min, e_max, rate)
MODES = ("idle", "full-control", "continue-policy")
CONFIGS_PER_CASE = 36  # 2 lattices x 3 post-stop modes x 36 = 216 configurations


def step_probs(rng, horizon):
    """Random steps; about a fifth each have alpha = 0, beta = 0 or gamma = 0 exactly."""
    out = []
    for _ in range(horizon):
        a, b, _ = (float(p) for p in rng.dirichlet([1.0, 1.0, 1.0]))
        kind = rng.integers(0, 5)
        if kind == 0:
            a = 0.0
        elif kind == 1:
            b = 0.0
        elif kind == 2:
            b = 1.0 - a  # overlapping books: no idle mass
        out.append(ActionProbs(a, b, max(0.0, 1.0 - a - b)))
    return out


def budget(rng, horizon):
    """0, 1, below the horizon, or at least the horizon."""
    choice = rng.integers(0, 4)
    if choice < 2:
        return int(choice)
    if choice == 2:
        return int(rng.integers(0, horizon))
    return horizon + int(rng.integers(0, 4))


def configurations(lattice, seed):
    e_min, e_max, rate = lattice
    rng = np.random.default_rng(seed)
    for i in range(CONFIGS_PER_CASE):
        horizon = int(rng.integers(1, 49))
        e0 = (e_min, 0.5 * (e_min + e_max), e_max)[i % 3]
        params = BatteryParams(e_min, e_max, rate, e0, horizon)
        lo = float(rng.integers(int(e_min), int(e_max)))
        band = TargetBand.from_interval(lo, lo + float(rng.integers(1, 5)))
        yield params, step_probs(rng, horizon), budget(rng, horizon), budget(rng, horizon), band


def assert_same_steps(fast, slow):
    assert fast.horizon == slow.horizon
    for t in range(slow.horizon + 1):
        fast_t, slow_t = fast.per_step[t], slow.per_step[t]
        assert set(fast_t) == set(slow_t), f"keys differ at t={t}"
        assert len(fast_t) == len(slow_t)
        for key, mass in slow_t.items():
            assert abs(fast_t[key] - mass) <= TOL, (t, key)
    assert_same_marginals(fast, slow)


def assert_same_marginals(fast, slow):
    for t in range(slow.horizon + 1):
        fast_m, slow_m = fast.marginal(t), slow.marginal(t)
        assert set(fast_m) == set(slow_m)
        assert all(abs(fast_m[e] - slow_m[e]) <= TOL for e in slow_m)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("lattice", LATTICES, ids=("0-10-rate2", "0-48-rate1"))
def test_kernels_match_dict_oracles(lattice, mode):
    seed = 1000 * LATTICES.index(lattice) + MODES.index(mode)
    for params, probs, k_ch, k_dis, band in configurations(lattice, seed):
        fast = propagate(params, probs, k_ch, k_dis)
        assert_same_steps(fast, reference_propagate(params, probs, k_ch, k_dis, "augmented"))
        # budgets of the horizon never bind: the oracle's budget-free marginal chain
        budget_free = propagate(params, probs, params.horizon, params.horizon)
        slow = reference_propagate(params, probs, params.horizon, params.horizon, "marginal")
        assert_same_marginals(budget_free, slow)
        eps = 0.1
        fast = stopping_time(budget_free, band, eps, mode)
        slow = reference_stopping_time(params, probs, band, eps, mode)
        assert len(fast.big_q) == len(slow.big_q)
        assert all(abs(a - b) <= TOL for a, b in zip(fast.big_q, slow.big_q))
        assert fast.tau_star == slow.tau_star
        # q_table holds q_t over the whole (n_ch, n_dis) lattice; the oracle's,
        # keyed by SoC, only at positive mass, where it must hold at every m = c - d
        assert fast.q_table.shape == budget_free.masses[1:].shape
        c, d = np.indices(fast.q_table.shape[1:])
        for (t, e), q in slow.q_table.items():
            m = round((e - params.e0) / params.rate)
            states = (c - d == m) & (budget_free.masses[t] > 0.0)
            assert states.any() and (fast.q_table[t - 1][states] == q).all(), (t, e)


@pytest.mark.parametrize("mode", MODES)
def test_binding_budgets_match_path_enumeration(mode):
    """Q_t of the budgeted distribution against every action path, budgets below T."""
    rng = np.random.default_rng(3000 + MODES.index(mode))
    budgets_bind = 0
    for _ in range(60):
        horizon = int(rng.integers(2, 8))
        e_min, e_max, rate = ((0.0, 10.0, 2.0), (0.0, 6.0, 1.0))[int(rng.integers(0, 2))]
        e0 = rate * float(rng.integers(0, int(e_max / rate) + 1))
        params = BatteryParams(e_min, e_max, rate, e0, horizon)
        probs = step_probs(rng, horizon)
        k_ch, k_dis = (int(rng.integers(0, horizon)) for _ in range(2))
        lo = float(rng.integers(0, int(e_max)))
        band = TargetBand.from_interval(lo, lo + float(rng.integers(1, 4)))
        result = stopping_time(propagate(params, probs, k_ch, k_dis), band, 0.1, mode)
        oracle = brute_force_distribution(params, probs, k_ch, k_dis)

        def mass_where(t, q):
            return math.fsum(mass for e, mass in oracle.marginal(t).items() if q(e))

        for t in range(1, horizon + 1):
            if mode == "idle":
                expected = mass_where(t, band.contains)
            elif mode == "full-control":
                steps_left = horizon - t
                expected = mass_where(t, lambda e: _reachable_in_band(params, e, steps_left, band))
            else:
                expected = mass_where(horizon, band.contains)
            assert abs(result.big_q[t - 1] - expected) <= TOL, (t, mode)
        budget_free = reference_stopping_time(params, probs, band, 0.1, mode)
        budgets_bind += max(abs(a - b) for a, b in zip(result.big_q, budget_free.big_q)) > 1e-3
    assert budgets_bind > 0


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def lane_batches(lattice, seed):
    """Lanes at e_min, mid, e_max and off the rate grid; budgets 0, 1, below and at least T.

    Each batch steps random action probabilities, and, where it has steps,
    again the static policy's own chain on random prices.
    """
    e_min, e_max, rate = lattice
    rng = np.random.default_rng(seed)
    price_rng = np.random.default_rng(seed + 1)
    e0s = (e_min, 0.5 * (e_min + e_max), e_max, e_min + 1.3 * rate)
    for horizon in (0, 1, 2, 5, 24, 48):
        lanes = [BatteryParams(e_min, e_max, rate, e0, max(horizon, 1)) for e0 in e0s]
        probs = step_probs(rng, horizon)
        ks = (0, 1, max(horizon - 1, 0) // 2, horizon, horizon + 2)
        lo = float(rng.integers(int(e_min), int(e_max)))
        band = TargetBand.from_interval(lo, lo + float(rng.integers(1, 5)))
        prices = DayMatrix(("d",) * 7, price_rng.uniform(10.0, 90.0, (7, max(horizon, 1))))
        dist, bounds = fit_distribution(prices), compute_bounds(prices, 1)
        # both budgets above T: a discharge from the last column could wrap to the next row
        for k_ch, k_dis in [*zip(ks, reversed(ks)), (horizon + 2, horizon + 2)]:
            yield lanes, probs, k_ch, k_dis, band
            if horizon:
                yield lanes, static_steps(dist, bounds, k_ch, k_dis), k_ch, k_dis, band


@pytest.mark.parametrize(
    "lattice", LATTICES + ((0.0, 10.0, 2.5),), ids=("0-10-rate2", "0-48-rate1", "0-10-rate2.5")
)
def test_every_lane_equals_its_one_lane_run_bit_for_bit(lattice):
    """A lane of a batch is the battery propagated alone, and the eager chain's masses."""
    batches = 0
    for lanes, probs, k_ch, k_dis, _ in lane_batches(lattice, seed=4000 + int(lattice[2] * 10)):
        batch = propagate_lanes(lanes, probs, k_ch, k_dis)
        assert [dist.params for dist in batch] == lanes
        for dist in batch:
            alone = propagate(dist.params, probs, k_ch, k_dis)
            assert dist == alone and dist.probs == tuple(probs)
            assert_bitwise(dist.masses, alone.masses)
            assert_bitwise(dist.m_masses, alone.m_masses)
            masses, m_masses = eager_propagate(dist.params, probs, k_ch, k_dis)
            assert_bitwise(dist.masses, masses)
            assert_bitwise(dist.m_masses, m_masses)
            assert dist.m_masses.flags.c_contiguous
        batches += 1
    assert batches == 36 + 30


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "lattice", LATTICES + ((0.0, 10.0, 2.5),), ids=("0-10-rate2", "0-48-rate1", "0-10-rate2.5")
)
def test_lazy_stopping_result_equals_the_eager_one(lattice, mode):
    """tau_star, big_q and q_table of every lane, whichever of big_q and tau_star is read first."""
    crossings = set()
    seed = 5000 + 10 * int(lattice[2] * 10) + MODES.index(mode)
    whole = TargetBand.from_interval(lattice[0], lattice[1])  # Q_t = 1: a crossing at t = 1
    for i, (lanes, probs, k_ch, k_dis, band) in enumerate(lane_batches(lattice, seed)):
        eps = (0.05, 0.3, 0.7)[i % 3]
        band = whole if i % 4 == 3 else band
        for dist in propagate_lanes(lanes, probs, k_ch, k_dis):
            eager = eager_stopping_time(dist, band, eps, mode)
            big_q_first = stopping_time(dist, band, eps, mode)
            assert big_q_first.big_q == eager.big_q
            assert big_q_first.tau_star == eager.tau_star
            tau_first = stopping_time(dist, band, eps, mode)
            assert tau_first.tau_star == eager.tau_star
            assert tau_first.big_q == eager.big_q
            assert_bitwise(tau_first.q_table, eager.q_table)
            assert big_q_first == tau_first
            crossings.add(
                "none" if eager.tau_star is None else "first" if eager.tau_star == 1 else "later"
            )
    # full-control and continue-policy Q_t start at their maximum, so they cross at 1 or never
    assert crossings >= ({"none", "first", "later"} if mode == "idle" else {"none", "first"})


def test_tau_star_counts_a_crossing_at_equality():
    """Q_t = 1 - epsilon exactly is a crossing: idle Q_1 = 0.25 at epsilon = 0.75."""
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, 1)
    dist = propagate(params, [ActionProbs(0.25, 0.0, 0.75)], 1, 1)
    result = stopping_time(dist, TargetBand.from_interval(5.5, 6.5), 0.75, "idle")
    assert result.big_q == (0.25,) and result.tau_star == 1


@pytest.mark.parametrize("mode", MODES)
def test_no_steps(mode):
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, 1)
    band = TargetBand.from_interval(3.0, 7.0)
    assert propagate(params, [], 2, 2).per_step == ({(0, 0, 0): 1.0},)
    result = stopping_time(propagate(params, [], 0, 0), band, 0.1, mode)
    assert result.big_q == reference_stopping_time(params, [], band, 0.1, mode).big_q == ()
    assert result.tau_star is None and result.q_table.shape == (0, 1, 1)


def test_static_steps_run_only_on_their_own_lattice():
    prices = DayMatrix(("a", "b"), [[20.0, 40.0, 60.0], [30.0, 50.0, 70.0]])
    dist, bounds = fit_distribution(prices), compute_bounds(prices, 1)
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, 3)
    steps = static_steps(dist, bounds, 3, 1)
    assert propagate(params, steps, 3, 1).masses.shape == (4, 4, 2)
    # (3, 1) and (1, 3) lattices hold as many points; a step picks by index, so neither
    # another lattice nor fewer steps may read it
    for k_ch, k_dis, n in ((1, 3, 3), (2, 2, 3), (3, 1, 2)):
        with pytest.raises(ValueError, match="static steps of other budgets"):
            propagate(params, steps[:n], k_ch, k_dis)


def test_augmented_lattice_is_capped_by_budget_and_horizon():
    params = BatteryParams(0.0, 48.0, 1.0, 24.0, 6)
    probs = [ActionProbs(0.3, 0.3, 0.4)] * 6
    assert propagate(params, probs, 2, 40).masses.shape == (7, 3, 7)
    assert propagate(params, probs, 0, 0).masses.shape == (7, 1, 1)


def test_step_len_counts_positive_masses_without_building_dicts():
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, 5)
    dist = propagate(params, [ActionProbs(0.5, 0.0, 0.5)] * 5, 2, 2)
    assert [len(step) for step in dist.per_step] == [1, 2, 3, 3, 3, 3]
    assert all(step._dict is None for step in dist.per_step)
    assert dist.per_step[5] == {(0, 0, 0): 1 / 32, (1, 1, 0): 5 / 32, (2, 2, 0): 26 / 32}


class TestNegativeBudgets:
    @pytest.mark.parametrize("k_ch, k_dis", [(-1, 2), (2, -1)])
    def test_propagate_rejects(self, k_ch, k_dis):
        params = BatteryParams(0.0, 10.0, 2.0, 4.0, 3)
        with pytest.raises(ValueError, match="budgets must be non-negative"):
            propagate(params, [ActionProbs(0.3, 0.3, 0.4)] * 3, k_ch, k_dis)

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    @pytest.mark.parametrize("k_ch, k_dis", [(-1, 2), (2, -1)])
    def test_policy_action_probabilities_rejects(self, k_ch, k_dis, mode):
        rng = np.random.default_rng(0)
        days = DayMatrix.from_days(
            [
                DayPrices(f"d{i}", tuple(float(v) for v in row))
                for i, row in enumerate(np.exp(rng.normal(3.0, 0.5, size=(20, 4))))
            ]
        )
        params = BatteryParams(0.0, 10.0, 2.0, 4.0, 4)
        with pytest.raises(ValueError, match="budgets must be non-negative"):
            policy_distributions(
                [params], fit_distribution(days), compute_bounds(days, 1), k_ch, k_dis, mode
            )

    @pytest.mark.parametrize("command", ["reach", "stop-time"])
    @pytest.mark.parametrize("flag", ["--kch", "--kdis"])
    def test_cli_exits_with_validation_error(self, tmp_path, capsys, command, flag):
        argv = [command, "--synthetic", "10", "--horizon", "4", "--band", "3,7",
                flag, "-1", "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 1
        assert "budgets must be non-negative" in capsys.readouterr().err


class TestCounting:
    def test_counts_stay_python_ints_past_int64(self):
        params = BatteryParams(0.0, 100.0, 1.0, 50.0, 48)
        in_band, total, pct = count_feasible_trajectories(
            params, 48, TargetBand.from_interval(0.0, 100.0)
        )
        assert total == 3**48 > 2**63
        assert in_band == total and pct == 100.0
        assert type(total) is int

    def test_fine_lattice_totals_exceed_int64(self):
        params = BatteryParams(0.0, 48.0, 1.0, 24.0, 48)
        band = TargetBand.from_interval(12.0, 36.0)
        counts = count_feasible_trajectories(params, 48, band)
        assert counts[1] > 2**63
        assert counts == reference_count_feasible_trajectories(params, 48, band)

    @pytest.mark.parametrize("lattice", LATTICES, ids=("0-10-rate2", "0-48-rate1"))
    def test_matches_dict_oracle(self, lattice):
        e_min, e_max, rate = lattice
        for e0 in (e_min, 0.5 * (e_min + e_max), e_max - rate, e_max):
            for steps in (1, 2, 7, 24, 48):
                params = BatteryParams(e_min, e_max, rate, e0, steps)
                for lo, hi in ((e_min, e_max), (e0 - rate, e0 + 2 * rate), (e_max, e_max)):
                    band = TargetBand.from_interval(lo, hi)
                    assert count_feasible_trajectories(
                        params, steps, band
                    ) == reference_count_feasible_trajectories(params, steps, band)


    @pytest.mark.parametrize("lattice", LATTICES, ids=("0-10-rate2", "0-48-rate1"))
    def test_shared_counts_match_dict_oracle_at_every_step(self, lattice):
        """One DP for all step counts 1..48 gives each one's counts, as a DP of its own does."""
        e_min, e_max, rate = lattice
        for e0 in (e_min, 0.5 * (e_min + e_max), e_max - rate, e_max, e_min + 1.3 * rate):
            params = BatteryParams(e_min, e_max, rate, e0, 48)
            counts = trajectory_counts(params, range(48, 0, -1))
            bands = ((e_min, e_max), (e0 - rate, e0 + 2 * rate), (e_max, e_max))
            for steps in range(1, 49):
                for lo, hi in bands:
                    band = TargetBand.from_interval(lo, hi)
                    assert counts(steps, band) == reference_count_feasible_trajectories(
                        params, steps, band
                    ), (e0, steps, lo, hi)

    def test_step_counts_validated(self):
        params = BatteryParams(0.0, 10.0, 2.0, 4.0, 4)
        for steps in ([0], [3, 0, 2], [-1]):
            with pytest.raises(ValueError, match="steps must be at least 1"):
                trajectory_counts(params, steps)

    def test_table1_runs_one_dp_and_keeps_order_and_duplicates(self, tmp_path, monkeypatch):
        calls = []

        def counted(params, steps):
            calls.append(list(steps))
            return trajectory_counts(params, steps)

        monkeypatch.setattr(rc, "trajectory_counts", counted)
        out = tmp_path / "t1.csv"
        argv = ["table1", "--e0", "1", "--band", "5,7", "--steps", "4", "4", "2", "--out", str(out)]
        assert main(argv) == 0
        assert calls == [[4, 4, 2]]
        assert out.read_text() == (
            "e0,band_lo,band_hi,steps,in_band,total,pct\n"
            "1.0,5.0,7.0,4,13,35,37.14\n"
            "1.0,5.0,7.0,4,13,35,37.14\n"
            "1.0,5.0,7.0,2,1,5,20.00\n"
        )

    @pytest.mark.parametrize("steps", [["0"], ["4", "0"], ["0", "4"]])
    def test_table1_step_count_below_one_is_a_validation_error(self, tmp_path, capsys, steps):
        argv = ["table1", "--band", "5,7", "--steps", *steps, "--out", str(tmp_path / "t1.csv")]
        assert main(argv) == 1
        assert "horizon must be at least 1" in capsys.readouterr().err
