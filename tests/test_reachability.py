"""Action probabilities, mass propagation, stopping times, and counting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socarb.backtest import synthetic_day_matrix
from socarb.market_data import DayMatrix, DayPrices, PriceBounds, compute_bounds, fit_distribution
from socarb.reachability import (
    ActionProbs,
    TargetBand,
    action_probabilities,
    count_feasible_trajectories,
    policy_action_probabilities,
    policy_distributions,
    propagate,
    stopping_time,
    terminal_band_probability,
)
from socarb.thresholds import (
    CHARGE,
    DISCHARGE,
    IDLE,
    BatteryParams,
    build_schedule,
    policy_outcomes,
    run_policy,
)

from oracles import brute_force_distribution


class UniformCdf:
    """Continuous uniform CDF on [lo, hi] for probability arithmetic checks."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def prob_le(self, x):
        return min(1.0, max(0.0, (x - self.lo) / (self.hi - self.lo)))

    def prob_ge(self, x):
        return 1.0 - self.prob_le(x)

    def sample(self, rng):
        return float(rng.uniform(self.lo, self.hi))


def uniform_probs(n):
    third = 1.0 / 3.0
    return [ActionProbs(third, third, 1.0 - 2.0 * third) for _ in range(n)]


def random_probs(rng, n):
    out = []
    for _ in range(n):
        a, b, g = rng.dirichlet([1.0, 1.0, 1.0])
        out.append(ActionProbs(float(a), float(b), 1.0 - float(a) - float(b)))
    return out


def band(lo, hi):
    return TargetBand.from_interval(lo, hi)


class TestActionProbabilities:
    def test_uniform_cdf_arithmetic(self):
        ap = action_probabilities(30.0, 70.0, UniformCdf(0, 100))
        assert (ap.alpha, ap.beta, ap.gamma) == pytest.approx((0.3, 0.3, 0.4))

    def test_both_inactive(self):
        ap = action_probabilities(None, None, UniformCdf(0, 100))
        assert (ap.alpha, ap.beta, ap.gamma) == (0.0, 0.0, 1.0)

    def test_adjacent_thresholds_squeeze_idle(self):
        ap = action_probabilities(50.0, 50.0 + 1e-9, UniformCdf(0, 100))
        assert ap.gamma == pytest.approx(0.0, abs=1e-10)
        assert ap.alpha + ap.beta == pytest.approx(1.0)

    def test_one_step_rule_matches_run_policy(self):
        # k = 1 books from ratio overrides: u = lambda_max / alpha, l = lambda_min * omega
        bounds = PriceBounds(10.0, 100.0)
        params = BatteryParams(0.0, 10.0, 2.0, 5.0, 1)  # room to charge and to discharge
        rng = np.random.default_rng(5)
        relations = set()
        for alpha in (1.0, 2.0, 4.0, 5.0, 8.0):
            for omega in (1.0, 2.0, 2.5, 4.0, 5.0, 6.0, 10.0):
                schedule = build_schedule(bounds, 1, 1, alpha, omega)
                u, l = schedule.charge[0], schedule.discharge[0]
                relations.add((u > l) - (u < l))
                # integer prices plus repeated atoms at both thresholds
                prices = np.concatenate(
                    [rng.integers(5, 106, size=int(rng.integers(5, 40))), [u] * 3, [l] * 2]
                )
                days = DayMatrix.from_days(
                    [DayPrices(f"d{i}", (float(x),)) for i, x in enumerate(prices)]
                )
                ap = action_probabilities(u, l, fit_distribution(days).cdf(1))
                actions = [
                    run_policy(day, params, 1, 1, "static", bounds, alpha, omega).actions[0]
                    for day in days
                ]
                for action, p in ((CHARGE, ap.alpha), (DISCHARGE, ap.beta), (IDLE, ap.gamma)):
                    assert abs(p - actions.count(action) / len(days)) <= 1e-15, (u, l, action)
        assert relations == {-1, 0, 1}  # u < l, u == l and u > l all occur

    def test_malformed_cdf_rejected(self):
        class Bad:
            def prob_le(self, x):
                return 1.4

            def prob_ge(self, x):
                return -0.2

        with pytest.raises(ValueError, match="malformed CDF"):
            action_probabilities(10.0, 90.0, Bad())

    def test_discharge_inclusive_at_threshold(self):
        days = DayMatrix.from_days([DayPrices("a", (30.0,)), DayPrices("b", (50.0,))])
        cdf = fit_distribution(days).cdf(1)
        ap = action_probabilities(10.0, 50.0, cdf)
        assert ap.beta == pytest.approx(0.5)  # P(price >= 50) counts the atom at 50


class TestPropagate:
    def test_full_battery_folds_charge_mass(self):
        params = BatteryParams(0, 10, 2, 10, 1)
        dist = propagate(params, [ActionProbs(0.5, 0.3, 0.2)], 5, 5)
        assert dist.marginal(dist.horizon) == pytest.approx({10.0: 0.7, 8.0: 0.3})

    def test_two_step_uniform_path_enumeration(self):
        params = BatteryParams(0, 10, 2, 5, 2)
        dist = propagate(params, uniform_probs(2), 5, 5)
        expected = {1.0: 1 / 9, 3.0: 2 / 9, 5.0: 3 / 9, 7.0: 2 / 9, 9.0: 1 / 9}
        assert dist.marginal(dist.horizon) == pytest.approx(expected)

    def test_charge_budget_zero_monotone_down(self):
        params = BatteryParams(0, 10, 2, 6, 3)
        dist = propagate(params, uniform_probs(3), 0, 3)
        assert all(e <= 6.0 + 1e-12 for e in dist.marginal(dist.horizon))

    def test_budget_enforced_in_augmented_mode(self):
        params = BatteryParams(0, 100, 2, 50, 4)
        dist = propagate(params, uniform_probs(4), 1, 0)
        assert max(dist.marginal(dist.horizon)) <= 52.0 + 1e-12

    @given(st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_mass_conserved_every_step(self, seed):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(1, 9))
        e0 = float(rng.integers(0, 11))
        params = BatteryParams(0, 10, 2, e0, horizon)
        probs = random_probs(rng, horizon)
        dist = propagate(params, probs, int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        for t in range(horizon + 1):
            assert abs(math.fsum(dist.per_step[t].values()) - 1.0) <= 1e-12

    def test_support_stays_inside_capacity(self):
        rng = np.random.default_rng(9)
        params = BatteryParams(2, 8, 2, 4, 6)
        dist = propagate(params, random_probs(rng, 6), 6, 6)
        for t in range(7):
            for e in dist.marginal(t):
                assert 2 - 1e-9 <= e <= 8 + 1e-9

    def test_lattice_identity_augmented(self):
        rng = np.random.default_rng(21)
        params = BatteryParams(0, 10, 2, 5, 5)
        dist = propagate(params, random_probs(rng, 5), 3, 3)
        for t in range(6):
            for (m, c, d), mass in dist.per_step[t].items():
                assert m == c - d
                assert c <= 3 and d <= 3

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            horizon = int(rng.integers(1, 7))
            params = BatteryParams(0, 10, 2, float(rng.integers(0, 11)), horizon)
            probs = random_probs(rng, horizon)
            k_ch, k_dis = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            fast = propagate(params, probs, k_ch, k_dis)
            slow = brute_force_distribution(params, probs, k_ch, k_dis)
            for t in range(horizon + 1):
                keys = set(fast.per_step[t]) | set(slow.per_step[t])
                for key in keys:
                    a = fast.per_step[t].get(key, 0.0)
                    b = slow.per_step[t].get(key, 0.0)
                    assert abs(a - b) < 1e-12

    def test_brute_force_guard(self):
        params = BatteryParams(0, 10, 2, 5, 11)
        with pytest.raises(ValueError, match="horizon"):
            brute_force_distribution(params, uniform_probs(11), 2, 2)


class TestTerminalBand:
    @pytest.mark.parametrize(
        "lo, hi", [(3.0, math.nan), (math.nan, 5.0), (3.0, math.inf), (-math.inf, 5.0)]
    )
    def test_non_finite_edge_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="band edges must be finite"):
            band(lo, hi)

    def test_whole_lattice_band(self):
        params = BatteryParams(0, 10, 2, 5, 3)
        dist = propagate(params, uniform_probs(3), 3, 3)
        assert terminal_band_probability(dist, band(0, 10)) == pytest.approx(1.0)

    def test_whole_lattice_band_never_exceeds_one(self):
        # float sums of the terminal masses can round to 1 + 2**-52
        rng = np.random.default_rng(0)
        params = BatteryParams(0, 10, 2, 5, 7)
        for _ in range(40):
            dist = propagate(params, random_probs(rng, 7), 7, 7)
            p_band = terminal_band_probability(dist, band(0, 10))
            assert 1.0 - 1e-12 <= p_band <= 1.0

    def test_enumerated_band_mass(self):
        params = BatteryParams(0, 10, 2, 5, 2)
        dist = propagate(params, uniform_probs(2), 5, 5)
        assert terminal_band_probability(dist, band(5, 7)) == pytest.approx(5 / 9)

    def test_parity_mismatch_zero(self):
        params = BatteryParams(0, 10, 2, 5, 2)
        dist = propagate(params, uniform_probs(2), 5, 5)
        assert terminal_band_probability(dist, band(5.5, 6.5)) == 0.0

    def test_widening_never_decreases(self):
        rng = np.random.default_rng(13)
        params = BatteryParams(0, 10, 2, 4, 5)
        dist = propagate(params, random_probs(rng, 5), 5, 5)
        p_narrow = terminal_band_probability(dist, band(4, 6))
        p_wide = terminal_band_probability(dist, band(3, 7))
        assert p_wide >= p_narrow

    def test_equivalent_to_trade_count_bounds(self):
        # band mass equals the mass with s_lo <= n_ch - n_dis <= s_hi
        rng = np.random.default_rng(17)
        params = BatteryParams(0, 10, 2, 5, 6)
        dist = propagate(params, random_probs(rng, 6), 4, 4)
        target = band(3, 7)
        s_lo, s_hi = (target.lo - params.e0) / params.rate, (target.hi - params.e0) / params.rate
        by_counts = math.fsum(
            mass
            for (m, c, d), mass in dist.per_step[dist.horizon].items()
            if s_lo - 1e-9 <= c - d <= s_hi + 1e-9
        )
        assert terminal_band_probability(dist, target) == pytest.approx(by_counts, abs=1e-12)


class TestStoppingTime:
    def test_tau_star_first_crossing(self):
        # idle mode on a narrowing distribution: compare against the rule on Q
        params = BatteryParams(0, 10, 2, 5, 4)
        rng = np.random.default_rng(2)
        probs = random_probs(rng, 4)
        dist = propagate(params, probs, 4, 4)
        result = stopping_time(dist, band(3, 7), 0.1, "idle")
        threshold = 1.0 - 0.1
        for t, q in enumerate(result.big_q, start=1):
            if result.tau_star is not None and t < result.tau_star:
                assert q < threshold
        if result.tau_star is not None:
            assert result.big_q[result.tau_star - 1] >= threshold

    def test_full_control_whole_range_stops_immediately(self):
        params = BatteryParams(0, 10, 2, 5, 4)
        probs = uniform_probs(4)
        dist = propagate(params, probs, 4, 4)
        result = stopping_time(dist, band(0, 10), 0.1, "full-control")
        assert all(q == 1.0 for q in result.big_q)
        assert result.tau_star == 1

    def test_full_control_reachability_example(self):
        # from t=1 every reachable state {3,5,7} can still reach [5,7] by T=2
        params = BatteryParams(0, 10, 2, 5, 2)
        probs = uniform_probs(2)
        dist = propagate(params, probs, 2, 2)
        result = stopping_time(dist, band(5, 7), 0.1, "full-control")
        assert result.big_q[0] == pytest.approx(1.0)

    def test_idle_mode_equals_marginal_band_mass(self):
        params = BatteryParams(0, 10, 2, 5, 5)
        rng = np.random.default_rng(8)
        probs = random_probs(rng, 5)
        dist = propagate(params, probs, 5, 5)
        result = stopping_time(dist, band(3, 7), 0.2, "idle")
        for t in range(1, 6):
            direct = math.fsum(
                mass for e, mass in dist.marginal(t).items() if 3 - 1e-9 <= e <= 7 + 1e-9
            )
            assert result.big_q[t - 1] == pytest.approx(direct, abs=1e-12)

    def test_continue_policy_q_is_constant(self):
        # continuing the policy means Q_t equals the unconditional band mass
        params = BatteryParams(0, 10, 2, 5, 6)
        rng = np.random.default_rng(14)
        probs = random_probs(rng, 6)
        dist = propagate(params, probs, 6, 6)
        result = stopping_time(dist, band(3, 7), 0.5, "continue-policy")
        assert max(result.big_q) - min(result.big_q) < 1e-12

    def test_band_widening_never_decreases_q(self):
        params = BatteryParams(0, 10, 2, 5, 5)
        rng = np.random.default_rng(3)
        probs = random_probs(rng, 5)
        dist = propagate(params, probs, 5, 5)
        for mode in ("idle", "full-control"):
            narrow = stopping_time(dist, band(4, 6), 0.1, mode)
            wide = stopping_time(dist, band(3, 8), 0.1, mode)
            assert all(w >= n - 1e-12 for n, w in zip(narrow.big_q, wide.big_q))

    def test_tau_star_none_is_valid(self):
        params = BatteryParams(0, 10, 2, 1, 2)
        probs = uniform_probs(2)
        dist = propagate(params, probs, 2, 2)
        result = stopping_time(dist, band(9, 10), 0.01, "idle")
        assert result.tau_star is None

    def test_epsilon_validated(self):
        params = BatteryParams(0, 10, 2, 5, 2)
        probs = uniform_probs(2)
        dist = propagate(params, probs, 2, 2)
        with pytest.raises(ValueError):
            stopping_time(dist, band(3, 7), 1.5, "idle")


class TestCounting:
    @pytest.mark.parametrize(
        "e0,steps,expected",
        [(1.0, 2, (1, 5)), (1.0, 4, (13, 35)), (1.0, 8, (901, 1931))],
    )
    def test_reference_counts(self, e0, steps, expected):
        params = BatteryParams(0, 10, 2, e0, steps)
        in_band, total, pct = count_feasible_trajectories(params, steps, band(5, 7))
        assert (in_band, total) == expected
        assert pct == pytest.approx(100.0 * expected[0] / expected[1])

    def test_mirror_symmetry_exact(self):
        for e0 in (1.0, 3.0, 9.0):
            for lo, hi in ((5.0, 7.0), (3.0, 8.0)):
                for steps in (2, 4, 6):
                    p1 = BatteryParams(0, 10, 2, e0, steps)
                    p2 = BatteryParams(0, 10, 2, 10 - e0, steps)
                    direct = count_feasible_trajectories(p1, steps, band(lo, hi))
                    mirror = count_feasible_trajectories(p2, steps, band(10 - hi, 10 - lo))
                    assert direct == mirror

    def test_steps_validated(self):
        params = BatteryParams(0, 10, 2, 5, 2)
        with pytest.raises(ValueError):
            count_feasible_trajectories(params, 0, band(3, 7))


@pytest.mark.parametrize("mode", ["timedep", "feasibility"])
def test_policy_action_probabilities_shapes_and_sums(mode):
    days = DayMatrix.from_days(
        [
            DayPrices(f"d{i}", tuple(float(v) for v in row))
            for i, row in enumerate(
                np.exp(np.random.default_rng(0).normal(3.0, 0.5, size=(30, 6)))
            )
        ]
    )
    bounds = compute_bounds(days, 1)
    dist = fit_distribution(days)
    params = BatteryParams(0, 10, 2, 4, 6)
    probs = policy_action_probabilities(params, dist, bounds, 2, 2, mode)
    assert len(probs) == 6
    for ap in probs:
        assert abs(ap.alpha + ap.beta + ap.gamma - 1.0) <= 1e-12
    # static mode has its exact chain, and only that one
    with pytest.raises(ValueError, match="static mode"):
        policy_action_probabilities(params, dist, bounds, 2, 2, "static")


# ROADMAP item 1's criterion: the propagated terminal SoC is the executed
# policy's, within the DKW bound sqrt(ln(2/delta) / 2N) at delta = 1e-3
N_SIMULATED = 4000
DKW_BOUND = math.sqrt(math.log(2 / 1e-3) / (2 * N_SIMULATED))


@pytest.fixture(scope="module")
def simulated_market():
    days = synthetic_day_matrix(120, 24, 7)
    dist = fit_distribution(days)
    rng = np.random.default_rng(7)
    sim = DayMatrix.from_days([dist.sample_day(rng) for _ in range(N_SIMULATED)])
    return compute_bounds(days, 1, "per-hour"), dist, sim


@pytest.mark.parametrize("k", [3, 6, 12])
@pytest.mark.parametrize("e0", [1.0, 5.0, 9.0])
def test_propagated_terminal_cdf_matches_simulated_policy(simulated_market, e0, k):
    bounds, dist, sim = simulated_market
    params = BatteryParams(0, 10, 2, e0, 24)
    soc = policy_distributions([params], dist, bounds, k, k, "static")[0]
    terminal = policy_outcomes(sim, [params], [(k, k)], "static", bounds)[1][0, 0]
    # both CDFs step only at lattice points, so the sup is taken there
    propagated = np.cumsum(soc.m_masses[-1])
    simulated = np.array([np.mean(terminal <= e + 1e-9) for e in soc.grid])
    distance = float(np.max(np.abs(propagated - simulated)))
    assert distance <= DKW_BOUND, f"Kolmogorov distance {distance:.3f} > {DKW_BOUND:.3f}"


def test_static_chain_is_the_executor_on_every_price_day():
    """Each step's (n_ch, n_dis) masses are the shares of all 3^T days that put the policy there.

    Every hour has three price samples, so the 3^T days that pick one of
    each are equally likely, and ``run_policy`` runs them all.  The
    cases cover zero budgets, overlapping books (k >= 2), a charge that
    capacity blocks on a price at or below U[c] and at or above L[d], where
    the executor discharges, and prices equal to the thresholds.
    """
    rng = np.random.default_rng(11)
    # a low, a middle and a high price each hour: for k >= 2 the middle one
    # mostly lies in the books' overlap U[0] >= lambda >= L[0]; and flat
    # prices, whose books are flat at that price too
    price_rows = [
        [level * rng.uniform(0.95, 1.05, horizon) for level in (20.0, 42.0, 80.0)]
        for horizon in (1, 3, 5)
    ] + [[np.full(3, 30.0)] * 3]
    overlapping = fell_through = 0
    for rows in price_rows:
        samples = DayMatrix(("s0", "s1", "s2"), rows)
        horizon = samples.horizon
        every = np.array(list(itertools.product(*samples.prices.T)))
        every = DayMatrix(tuple(f"d{i}" for i in range(len(every))), every)
        dist, bounds = fit_distribution(samples), compute_bounds(samples, 1)
        for e0, (k_ch, k_dis) in itertools.product(
            (0.0, 6.0, 10.0), ((0, 0), (0, 2), (2, 0), (1, 1), (2, 3), (3, 3), (6, 6))
        ):
            params = BatteryParams(0.0, 10.0, 2.0, e0, horizon)
            soc = policy_distributions([params], dist, bounds, k_ch, k_dis, "static")[0]
            trajs = [run_policy(day, params, k_ch, k_dis, "static", bounds) for day in every]
            actions = np.array([traj.actions for traj in trajs])
            c = np.cumsum(actions == CHARGE, axis=1)
            d = np.cumsum(actions == DISCHARGE, axis=1)
            for t in range(1, horizon + 1):
                expected = np.zeros(soc.masses.shape[1:])
                np.add.at(expected, (c[:, t - 1], d[:, t - 1]), 1.0 / len(every))
                case = (horizon, e0, k_ch, k_dis, t)
                assert np.abs(soc.masses[t] - expected).max() <= 1e-12, case
            schedule = build_schedule(bounds, k_ch, k_dis)
            u, l = schedule.charge, schedule.discharge
            overlapping += bool(u and l and u[0] >= l[0])
            for traj, day in zip(trajs, every.prices.tolist()):
                n_ch = n_dis = 0
                for action, e, lam in zip(traj.actions, traj.soc_path, day):
                    fell_through += (
                        action == DISCHARGE and e == params.e_max and n_ch < k_ch
                        and lam <= u[n_ch] and lam >= l[n_dis]
                    )
                    n_ch += action == CHARGE
                    n_dis += action == DISCHARGE
    assert overlapping and fell_through
