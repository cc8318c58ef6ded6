"""Threshold construction, the online policy, offline OPT, and reductions."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socarb.market_data import DayPrices, PriceBounds
from socarb.thresholds import (
    CHARGE,
    DISCHARGE,
    IDLE,
    BatteryParams,
    PolicyState,
    Trajectory,
    build_schedule,
    competitive_ratio,
    compulsory_value,
    feasibility_aware_thresholds,
    offline_opt,
    run_policy,
    run_with_discharge_reduction,
    search_ratios,
    static_charge_thresholds,
    static_discharge_thresholds,
    threshold_rule,
    timedep_thresholds,
)
from socarb.thresholds import _k_search_root

from oracles import (
    HistoryState,
    activated_sum,
    policy_state,
    reference_feasibility_aware_thresholds,
    reference_feasible_bounds,
    reference_remaining,
    reference_run_with_discharge_reduction,
    reference_timedep_thresholds,
)


def const_bounds(lmin, lmax, horizon, t_start=1):
    n = horizon - t_start + 1
    return PriceBounds(
        lambda_min=lmin,
        lambda_max=lmax,
        per_slot_min=(lmin,) * n,
        per_slot_max=(lmax,) * n,
        t_start=t_start,
        horizon=horizon,
    )


def slot_bounds(per_min, per_max, t_start=1):
    return PriceBounds(
        lambda_min=min(per_min),
        lambda_max=max(per_max),
        per_slot_min=tuple(per_min),
        per_slot_max=tuple(per_max),
        t_start=t_start,
        horizon=t_start + len(per_min) - 1,
    )


def day(values):
    return DayPrices("d", tuple(float(v) for v in values))


def fresh(params):
    """The policy's state before its first step: nothing done, nothing activated."""
    return PolicyState(t=1, e=params.e0, c=0, d=0, s_ch=0.0, s_dis=0.0)


def run_kmax_search(prices, thresholds, k, lmin):
    """Reference one-action-per-step sell-side search with compulsory sales."""
    i, revenue = 0, 0.0
    for p in prices:
        if i < k and p >= thresholds[i]:
            revenue += p
            i += 1
    return revenue + (k - i) * lmin


class TestCompetitiveRatio:
    def test_k1_max_search_is_sqrt_m(self):
        assert competitive_ratio(1.0, 9.0, 1, "max-search") == pytest.approx(3.0, abs=1e-9)

    def test_k1_min_search_is_sqrt_m(self):
        assert competitive_ratio(1.0, 9.0, 1, "min-search") == pytest.approx(3.0, abs=1e-9)

    def test_degenerate_envelope(self):
        assert competitive_ratio(7.0, 7.0, 3, "max-search") == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            competitive_ratio(0.0, 9.0, 1, "max-search")
        with pytest.raises(ValueError):
            competitive_ratio(1.0, math.inf, 1, "max-search")
        with pytest.raises(ValueError):
            competitive_ratio(1.0, 9.0, 0, "max-search")
        with pytest.raises(ValueError):
            competitive_ratio(1.0, 9.0, 1, "sideways")

    def test_wide_envelopes_terminate(self):
        # past about 1e12 the root's float spacing exceeds the 1e-10 tolerance
        assert competitive_ratio(1.0, 1e20, 1, "max-search") == pytest.approx(1e10, rel=1e-12)
        assert 1.0 <= competitive_ratio(1.0, 1e20, 1, "min-search") <= 1e20
        # (1 + r/k)^k overflows for the first midpoints of this envelope
        assert 1e40 < competitive_ratio(1.0, 1e300, 6, "max-search") < 1e50
        with pytest.raises(ValueError, match="omega=1e[+]300 overflows"):
            static_discharge_thresholds(1.0, 1e300, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(4.0, 20.0))
    def test_k1_min_search_is_sqrt_m_on_wide_envelopes(self, log10_m):
        # evaluated directly, 1 - (r - 1)((1 + 1/r) - 1) cancels to noise once
        # 1/r nears the float epsilon, which gives 1.54 * sqrt(M) at M = 1e16
        big_m = 10.0**log10_m
        root = competitive_ratio(1.0, big_m, 1, "min-search")
        assert abs(root / math.sqrt(big_m) - 1.0) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1.01, 1e4), st.integers(1, 40))
    def test_min_search_root_solves_its_equation(self, big_m, k):
        r = competitive_ratio(1.0, big_m, k, "min-search")
        lhs = (r - 1.0) * ((1.0 + 1.0 / (r * k)) ** k - 1.0)
        assert lhs == pytest.approx((big_m - r) / big_m, abs=1e-9)

    def test_memo_returns_the_uncached_root(self):
        for args in (
            (5.0, 45.0, 3, "min-search"),
            (5.0, 45.0, 3, "max-search"),
            (1.0, 1e16, 1, "min-search"),
            (7.0, 7.0, 2, "max-search"),
        ):
            first = competitive_ratio(*args)
            hits = _k_search_root.cache_info().hits
            assert competitive_ratio(*args) == first == _k_search_root.__wrapped__(*args)
            assert _k_search_root.cache_info().hits == hits + 1

    def test_rejected_calls_raise_again(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown side 'sideways'"):
                competitive_ratio(1.0, 9.0, 1, "sideways")
            with pytest.raises(ValueError, match="k must be a positive integer"):
                competitive_ratio(1.0, 9.0, 0, "max-search")

    def test_k1_guarantee_all_two_point_adversaries(self):
        # brute force over every two-point sequence on the grid {1..9}
        omega = competitive_ratio(1.0, 9.0, 1, "max-search")
        ell = static_discharge_thresholds(1.0, omega, 1)
        for p1, p2 in itertools.product(range(1, 10), repeat=2):
            alg = run_kmax_search([p1, p2], ell, 1, 1.0)
            assert alg * omega >= max(p1, p2) - 1e-9

    def test_k2_guarantee_exhaustive_adversary(self):
        # brute force over every length-4 sequence on a 9-point grid
        omega = competitive_ratio(1.0, 9.0, 2, "max-search")
        ell = static_discharge_thresholds(1.0, omega, 2)
        for seq in itertools.product(range(1, 10), repeat=4):
            alg = run_kmax_search(seq, ell, 2, 1.0)
            opt = sum(sorted(seq, reverse=True)[:2])
            assert alg * omega >= opt - 1e-9

    def test_ratio_decreases_with_k(self):
        ratios = [competitive_ratio(5.0, 45.0, k, "max-search") for k in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_ratio_ranges_at_scale(self):
        # k = 1 is the worst case (sqrt(M)) on both sides
        for m_big in (2.0, 50.0, 1000.0):
            for k in (1, 3, 10, 25):
                for side in ("max-search", "min-search"):
                    r = competitive_ratio(1.0, m_big, k, side)
                    assert 1.0 < r <= math.sqrt(m_big) + 1e-9

    def test_min_ratio_dominates_max_ratio(self):
        # buying against a worst case of lambda_max is harder than selling
        # against lambda_min for the same envelope and budget
        for k in (2, 3, 6):
            r_min = competitive_ratio(5.0, 45.0, k, "min-search")
            r_max = competitive_ratio(5.0, 45.0, k, "max-search")
            assert r_min > r_max


class TestSearchRatios:
    def test_solves_each_side(self):
        bounds = const_bounds(5.0, 45.0, 4)
        assert search_ratios(bounds, 2, 3) == (
            competitive_ratio(5.0, 45.0, 2, "min-search"),
            competitive_ratio(5.0, 45.0, 3, "max-search"),
        )

    def test_given_values_and_empty_sides(self):
        bounds = const_bounds(5.0, 45.0, 4)
        assert search_ratios(bounds, 2, 3, alpha=1.5, omega=2.5) == (1.5, 2.5)
        assert search_ratios(bounds, 0, 0) == (1.0, 1.0)


class TestStaticThresholds:
    def test_charge_k1_collapses(self):
        assert static_charge_thresholds(100.0, 2.0, 1) == [50.0]

    def test_charge_k2_closed_form(self):
        assert static_charge_thresholds(100.0, 2.0, 2) == pytest.approx([50.0, 37.5])

    def test_charge_alpha_one_flat(self):
        assert static_charge_thresholds(100.0, 1.0, 3) == [100.0, 100.0, 100.0]

    def test_discharge_k1_collapses(self):
        assert static_discharge_thresholds(10.0, 3.0, 1) == [30.0]

    def test_discharge_k2_closed_form(self):
        assert static_discharge_thresholds(10.0, 2.0, 2) == pytest.approx([20.0, 30.0])

    def test_discharge_omega_one_flat(self):
        assert static_discharge_thresholds(10.0, 1.0, 3) == [10.0, 10.0, 10.0]

    @given(
        st.floats(1.01, 5.0),
        st.floats(1.01, 5.0),
        st.integers(1, 8),
        st.floats(1.0, 50.0),
        st.floats(60.0, 500.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotonicity(self, alpha, omega, k, lmin, lmax):
        u = static_charge_thresholds(lmax, alpha, k)
        l = static_discharge_thresholds(lmin, omega, k)
        assert all(a > b for a, b in zip(u, u[1:]))
        assert all(a < b for a, b in zip(l, l[1:]))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["e_min", "e_max", "rate", "e0"])
    def test_battery_field_rejected(self, field, value):
        kwargs = dict(e_min=0.0, e_max=10.0, rate=2.0, e0=5.0, horizon=4)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            BatteryParams(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.5])
    def test_ratio_rejected_everywhere_it_is_given(self, value):
        # nan fails every comparison, so a bare `< 1` check lets it through
        bounds = const_bounds(5.0, 45.0, 4)
        with pytest.raises(ValueError, match="alpha must be a finite number >= 1"):
            search_ratios(bounds, 2, 3, alpha=value)
        with pytest.raises(ValueError, match="omega must be a finite number >= 1"):
            search_ratios(bounds, 2, 3, omega=value)
        with pytest.raises(ValueError, match="alpha must be a finite number >= 1"):
            static_charge_thresholds(100.0, value, 2)
        with pytest.raises(ValueError, match="omega must be a finite number >= 1"):
            static_discharge_thresholds(10.0, value, 2)
        params = BatteryParams(0, 10, 2, 4, 4)
        with pytest.raises(ValueError, match="alpha must be a finite number >= 1"):
            run_policy(day([20.0] * 4), params, 1, 1, "static", bounds, alpha=value)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_price_bound_rejected(self, value):
        with pytest.raises(ValueError, match="lambda_max must be positive and finite"):
            static_charge_thresholds(value, 2.0, 2)
        with pytest.raises(ValueError, match="lambda_min must be positive and finite"):
            static_discharge_thresholds(value, 2.0, 2)


class TestTimedepThresholds:
    def test_reduces_to_static_u1(self):
        state = fresh(BatteryParams(0, 10, 2, 5, 4))
        u, l = timedep_thresholds(state, const_bounds(10.0, 100.0, 4), 1, 0, 2.0, 1.0)
        assert u == pytest.approx(100.0 / 2.0)
        assert l is None

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_second_charge_threshold_identity(self, alpha):
        # after activating u_1 = lmax/alpha: u_2 = lmax*(alpha+1)/(2*alpha^2)
        lmax = 100.0
        state = PolicyState(t=2, e=5.0, c=1, d=0, s_ch=lmax / alpha, s_dis=0.0)
        u, _ = timedep_thresholds(state, const_bounds(10.0, lmax, 8), 2, 0, alpha, 1.0)
        assert u == pytest.approx(lmax * (alpha + 1.0) / (2.0 * alpha**2), rel=1e-12)
        static_u2 = static_charge_thresholds(lmax, alpha, 2)[1]
        assert u == pytest.approx(static_u2, rel=1e-12)

    def test_discharge_example_sorted_ascending(self):
        # ascending lower bounds [10, 40], nothing activated, omega=2, k_dis=2
        state = fresh(BatteryParams(0, 10, 2, 5, 2))
        bounds = slot_bounds([40.0, 10.0], [50.0, 50.0])
        _, l = timedep_thresholds(state, bounds, 0, 2, 1.0, 2.0)
        assert l == pytest.approx((2.0 / 2.0) * (10.0 + 40.0))

    def test_padding_uses_global_envelope(self):
        state = fresh(BatteryParams(0, 10, 2, 5, 1))
        _, l = timedep_thresholds(state, const_bounds(10.0, 100.0, 1), 0, 3, 1.0, 2.0)
        assert l == pytest.approx((2.0 / 3.0) * (10.0 * 3))

    def test_static_recursive_consistency_sweep(self):
        # sequential activation under constant bounds reproduces the static schedule
        rng = np.random.default_rng(42)
        for _ in range(60):
            k = int(rng.integers(1, 7))
            alpha = float(rng.uniform(1.1, 5.0))
            omega = float(rng.uniform(1.1, 5.0))
            lmin = float(rng.uniform(1.0, 40.0))
            lmax = lmin * float(rng.uniform(1.5, 20.0))
            u_static = static_charge_thresholds(lmax, alpha, k)
            l_static = static_discharge_thresholds(lmin, omega, k)
            bounds = const_bounds(lmin, lmax, k + 2)
            for j in range(1, k + 1):
                state = PolicyState(
                    t=j, e=5.0, c=j - 1, d=j - 1,
                    s_ch=activated_sum(u_static[: j - 1]),
                    s_dis=activated_sum(l_static[: j - 1]),
                )
                u, l = timedep_thresholds(state, bounds, k, k, alpha, omega)
                assert abs(u - u_static[j - 1]) <= 1e-9 * abs(u_static[j - 1])
                assert abs(l - l_static[j - 1]) <= 1e-9 * abs(l_static[j - 1])


class TestFeasibilityCounts:
    def test_at_floor(self):
        params = BatteryParams(0, 10, 2, 0, 4)
        assert params.max_discharges(0.0) == 0

    def test_floor_formula(self):
        params = BatteryParams(0, 10, 2, 5, 4)
        assert params.max_discharges(5.0) == 2

    def test_full_battery(self):
        params = BatteryParams(0, 10, 2, 10, 4)
        assert params.max_discharges(10.0) == 5
        assert params.max_charges(10.0) == 0

    @pytest.mark.parametrize("rate", [0.1, 1.0 / 3.0, 2.5])
    def test_offsets_match_feasible_counts(self, rate):
        # stopping_time's full-control branch reads both counts off the lattice offsets
        rng = np.random.default_rng(round(30 * rate))
        for _ in range(400):
            e_min = float(rng.uniform(-5.0, 5.0))
            span = rate * int(rng.integers(1, 40)) if rng.random() < 0.5 else 0.0
            e_max = e_min + (span or float(rng.uniform(rate, 12.0)))
            e0 = float(rng.uniform(e_min, e_max))
            params = BatteryParams(e_min, e_max, rate, e0, 1)
            offsets = params.offsets
            assert 0 in offsets
            for m in offsets:
                e = e0 + m * rate
                assert params.max_discharges(e) == m - offsets[0], (params, m)
                assert params.max_charges(e) == offsets[-1] - m, (params, m)


class TestFeasibilityAwareThresholds:
    def test_empty_battery_discharge_inactive(self):
        params = BatteryParams(0, 10, 2, 0, 6)
        state = fresh(params)
        bounds = const_bounds(10.0, 100.0, 6)
        u, l = feasibility_aware_thresholds(state, params, bounds, 2, 2, 2.0, 2.0)
        assert l is None
        u_timedep, _ = timedep_thresholds(state, bounds, 2, 2, 2.0, 2.0)
        assert u == pytest.approx(u_timedep)

    def test_k_rem_one_direct_evaluation(self):
        # K_rem = 1 via a single-unit budget; smallest feasible lower bound is 10
        params = BatteryParams(0, 10, 2, 6, 2)
        state = fresh(params)
        bounds = slot_bounds([10.0, 40.0], [50.0, 50.0])
        _, l = feasibility_aware_thresholds(state, params, bounds, 0, 1, 1.0, 2.0)
        assert l == pytest.approx(2.0 * 10.0)

    def test_no_remaining_horizon_both_inactive(self):
        params = BatteryParams(0, 10, 2, 10, 2)
        state = PolicyState(t=3, e=10.0, c=0, d=0, s_ch=0.0, s_dis=0.0)
        bounds = const_bounds(10.0, 100.0, 2)
        u, l = feasibility_aware_thresholds(state, params, bounds, 2, 2, 2.0, 2.0)
        assert u is None and l is None

    def test_capacity_cap_shrinks_budget(self):
        # e=2, P=2 allows one discharge; K_rem = min(3, 1, horizon) = 1
        params = BatteryParams(0, 10, 2, 2, 5)
        state = fresh(params)
        bounds = slot_bounds([10, 12, 14, 16, 18], [90, 90, 90, 90, 90])
        _, l = feasibility_aware_thresholds(state, params, bounds, 0, 3, 1.0, 2.0)
        assert l == pytest.approx(2.0 * 10.0)


    def test_bounds_must_end_at_the_horizon(self):
        # checked once, where the run's rule is built
        params = BatteryParams(0, 10, 2, 4, 3)
        for horizon in (2, 4):
            bounds = const_bounds(10.0, 100.0, horizon)
            schedule = build_schedule(bounds, 1, 1, 2.0, 2.0)
            with pytest.raises(ValueError, match=f"bounds cover slots 1..{horizon} but"):
                threshold_rule("feasibility", params, bounds, schedule, 1, 1)
        # an envelope alone covers no slot, whatever its horizon field says
        envelope = PriceBounds(10.0, 100.0, (), (), 1, 3)
        schedule = build_schedule(envelope, 1, 1, 2.0, 2.0)
        with pytest.raises(ValueError, match="bounds cover slots 1..0 but"):
            threshold_rule("feasibility", params, envelope, schedule, 1, 1)

    def test_direct_call_refuses_bounds_short_of_the_day(self):
        # the rule's own check: an envelope alone, and 4-slot bounds past their
        # last slot, once read as "never trade" here
        params = BatteryParams(0, 10, 2, 5, 24)
        for bounds, t, covered in (
            (PriceBounds(10.0, 100.0), 1, "1..0"),
            (const_bounds(10.0, 100.0, 4), 9, "1..4"),
        ):
            state = PolicyState(t, 5.0, 0, 0, 0.0, 0.0)
            message = re.escape(f"bounds cover slots {covered} but the day spans 1..24")
            with pytest.raises(ValueError, match=message):
                feasibility_aware_thresholds(state, params, bounds, 3, 3, 2.0, 2.0)
            schedule = build_schedule(bounds, 3, 3, 2.0, 2.0)
            with pytest.raises(ValueError, match=message):
                threshold_rule("feasibility", params, bounds, schedule, 3, 3)

    def test_whole_tail_equals_filtered_list(self):
        # the per-step oracle keeps the slots that admit one action of the
        # side's type on some feasible path; with K_rem >= 1 that is all of them
        rng = np.random.default_rng(17)
        filter_bit = False
        for horizon, rate in itertools.product(range(1, 9), (1.0, 2.0, 2.5, 4.0)):
            per_min = [float(v) for v in rng.uniform(1.0, 50.0, horizon)]
            per_max = [v + float(rng.uniform(0.0, 50.0)) for v in per_min]
            bounds = slot_bounds(per_min, per_max)
            socs = sorted({*np.arange(0.0, 10.0 + 1e-9, rate / 2), *rng.uniform(0.0, 10.0, 3)})
            for e, t in itertools.product(socs, range(1, horizon + 2)):
                params = BatteryParams(0.0, 10.0, rate, float(e), horizon)
                up, down = params.max_charges(e), params.max_discharges(e)
                z_min, z_max = reference_remaining(bounds, t)
                for k in range(5):
                    state = PolicyState(t, float(e), 0, 0, 0.0, 0.0)
                    k_rem = min(k, horizon - t + 1)
                    if min(k_rem, up) >= 1:
                        assert reference_feasible_bounds(params, bounds, t, e, CHARGE) == z_max
                    if min(k_rem, down) >= 1:
                        assert reference_feasible_bounds(params, bounds, t, e, DISCHARGE) == z_min
                    reference = HistoryState(t, float(e), 1, 1, k, k)
                    assert feasibility_aware_thresholds(
                        state, params, bounds, k, k, 1.7, 2.3
                    ) == reference_feasibility_aware_thresholds(reference, params, bounds, 1.7, 2.3)
                if t <= horizon and up == 0 < down:
                    # the filter does drop slot t from the charge side of a full battery
                    filtered = reference_feasible_bounds(params, bounds, t, e, CHARGE)
                    filter_bit |= len(filtered) < len(z_max)
        assert filter_bit


@pytest.mark.parametrize("mode", ["timedep", "feasibility"])
def test_running_sums_give_the_history_thresholds(mode):
    # the state (t, e, c, d, sum u*, sum l*) gives exactly the thresholds the
    # oracle reads off a full activation history; budgets run past the
    # remaining horizon, so timedep pads with the envelope
    rng = np.random.default_rng(23)
    padded = 0
    for _ in range(400):
        horizon = int(rng.integers(1, 9))
        per_min = [float(v) for v in rng.uniform(1.0, 50.0, horizon)]
        per_max = [v + float(rng.uniform(0.0, 50.0)) for v in per_min]
        bounds = slot_bounds(per_min, per_max)
        e = float(rng.uniform(0.0, 10.0))
        params = BatteryParams(0.0, 10.0, float(rng.choice([1.0, 2.0, 2.5])), e, horizon)
        k_ch, k_dis = (int(k) for k in rng.integers(1, horizon + 4, 2))
        c, d = int(rng.integers(0, k_ch + 1)), int(rng.integers(0, k_dis + 1))
        t = int(rng.integers(1, horizon + 2))
        history = HistoryState(
            t, e, c + 1, d + 1, k_ch, k_dis,
            tuple((float(v), m + 1) for m, v in enumerate(rng.uniform(1.0, 100.0, c))),
            tuple((float(v), m + 1) for m, v in enumerate(rng.uniform(1.0, 100.0, d))),
        )
        alpha, omega = float(rng.uniform(1.0, 4.0)), float(rng.uniform(1.0, 4.0))
        state = policy_state(history)
        if mode == "timedep":
            got = timedep_thresholds(state, bounds, k_ch, k_dis, alpha, omega)
            want = reference_timedep_thresholds(history, bounds, alpha, omega)
        else:
            got = feasibility_aware_thresholds(state, params, bounds, k_ch, k_dis, alpha, omega)
            want = reference_feasibility_aware_thresholds(history, params, bounds, alpha, omega)
        assert got == want
        padded += got[0] is not None and state.s_ch > 0 and k_ch - c > horizon - t + 1
    assert padded >= 20


@st.composite
def bound_runs(draw):
    """Bounds over a day, a battery on it, budgets, and a state at a step t = 1..horizon."""
    horizon = draw(st.integers(1, 8))
    per_min = draw(st.lists(st.floats(1.0, 50.0), min_size=horizon, max_size=horizon))
    per_max = [v + draw(st.floats(0.0, 50.0)) for v in per_min]
    params = BatteryParams(0.0, 10.0, draw(st.sampled_from([1.0, 2.0, 2.5])), 5.0, horizon)
    k_ch, k_dis = draw(st.integers(0, horizon + 3)), draw(st.integers(0, horizon + 3))
    sums = st.floats(0.0, 500.0)
    state = PolicyState(
        draw(st.integers(1, horizon)), draw(st.floats(0.0, 10.0)),
        draw(st.integers(0, k_ch)), draw(st.integers(0, k_dis)), draw(sums), draw(sums),
    )
    return slot_bounds(per_min, per_max), params, k_ch, k_dis, state


@pytest.mark.parametrize("mode", ["static", "timedep", "feasibility"])
@settings(max_examples=150, deadline=None)
@given(run=bound_runs())
def test_bound_rule_takes_the_six_state_values(mode, run):
    # the rule threshold_rule returns, called as the executors call it, is
    # each mode's public threshold function on the same state, bit for bit
    bounds, params, k_ch, k_dis, state = run
    schedule = build_schedule(bounds, k_ch, k_dis)
    got = threshold_rule(mode, params, bounds, schedule, k_ch, k_dis)(*state)
    ratios = schedule.alpha, schedule.omega
    if mode == "static":
        want = (
            schedule.charge[state.c] if state.c < k_ch else None,
            schedule.discharge[state.d] if state.d < k_dis else None,
        )
    elif mode == "timedep":
        want = timedep_thresholds(state, bounds, k_ch, k_dis, *ratios)
    else:
        want = feasibility_aware_thresholds(state, params, bounds, k_ch, k_dis, *ratios)
    assert repr(got) == repr(want)


class TestStepPolicy:
    """One step of ``run_policy`` from SoC ``e0`` against static books u_1, l_1."""

    def step(self, e0, k_ch, k_dis, lam, u=30.0, l=60.0):
        # with k = 1 and ratios 2: u_1 = lambda_max / 2 and l_1 = 2 * lambda_min
        params = BatteryParams(0, 10, 2, e0, 1)
        bounds = const_bounds(l / 2.0, 2.0 * u, 1)
        schedule = build_schedule(bounds, k_ch, k_dis, alpha=2.0, omega=2.0)
        assert schedule.charge == (u,) * k_ch and schedule.discharge == (l,) * k_dis
        traj = run_policy(day([lam]), params, k_ch, k_dis, "static", bounds, alpha=2.0, omega=2.0)
        return traj.actions[0], traj.soc_path[1]

    def test_tie_triggers_charge(self):
        assert self.step(4.0, 1, 1, 30.0) == (CHARGE, 6.0)

    def test_between_thresholds_idles(self):
        assert self.step(4.0, 1, 1, 45.0) == (IDLE, 4.0)

    def test_capacity_blocked_discharge_keeps_counter(self):
        # e - P < e_min; an idle action is what leaves the discharge counter unadvanced
        assert self.step(1.0, 0, 1, 99.0) == (IDLE, 1.0)

    def test_capacity_blocked_charge_falls_through_to_discharge(self):
        # full: charge infeasible
        assert self.step(10.0, 1, 1, 70.0, u=80.0) == (DISCHARGE, 8.0)

    def test_budget_exhaustion(self):
        # no charge or discharge budget left
        assert self.step(4.0, 0, 0, 1.0) == (IDLE, 4.0)


class TestRunPolicy:
    def test_flat_high_prices_single_discharge(self):
        params = BatteryParams(0, 10, 2, 8, 6)
        bounds = const_bounds(10.0, 100.0, 6)
        traj = run_policy(day([100] * 6), params, 1, 1, "static", bounds)
        assert traj.discharges == 1 and traj.charges == 0
        assert traj.actions[0] == DISCHARGE  # l_1 <= lambda_max always
        assert traj.profit == pytest.approx(100.0 * 2)

    def test_dead_zone_prices_idle(self):
        # override ratios so the books separate: u = 10, l = 100
        params = BatteryParams(0, 10, 2, 4, 4)
        bounds = const_bounds(10.0, 100.0, 4)
        traj = run_policy(
            day([50.0] * 4), params, 1, 1, "static", bounds, alpha=10.0, omega=10.0
        )
        assert traj.actions == (IDLE,) * 4
        assert traj.profit == 0.0

    def test_ratio_books_overlap_and_charge_wins(self):
        # ratio-derived schedules overlap for k >= 2: u_1 > l_1; charge takes
        # the disputed region
        bounds = const_bounds(10.0, 100.0, 4)
        schedule = build_schedule(bounds, 2, 2)
        assert schedule.charge[0] > schedule.discharge[0]
        params = BatteryParams(0, 10, 2, 4, 4)
        mid = (schedule.discharge[0] + schedule.charge[0]) / 2.0
        traj = run_policy(day([mid] * 4), params, 2, 2, "static", bounds)
        assert traj.actions[0] == CHARGE

    def test_decreasing_prices_first_crossing_sells(self):
        params = BatteryParams(0, 10, 2, 10, 5)
        prices = [100.0, 75.0, 50.0, 25.0, 10.0]
        bounds = const_bounds(10.0, 100.0, 5)
        traj = run_policy(day(prices), params, 0, 1, "static", bounds)
        assert traj.actions[0] == DISCHARGE
        assert traj.profit == pytest.approx(100.0 * 2)

    @pytest.mark.parametrize("mode", ["static", "timedep", "feasibility"])
    def test_soc_feasibility_and_budget_discipline(self, mode):
        rng = np.random.default_rng(11)
        for _ in range(40):
            horizon = int(rng.integers(2, 12))
            e0 = float(rng.integers(0, 6))
            params = BatteryParams(0, 10, 2, e0, horizon)
            k_ch = int(rng.integers(0, 4))
            k_dis = int(rng.integers(0, 4))
            prices = rng.uniform(5.0, 45.0, size=horizon)
            bounds = const_bounds(5.0, 45.0, horizon)
            traj = run_policy(day(prices), params, k_ch, k_dis, mode, bounds)
            assert all(0 - 1e-9 <= e <= 10 + 1e-9 for e in traj.soc_path)
            deltas = {round(b - a, 9) for a, b in zip(traj.soc_path, traj.soc_path[1:])}
            assert deltas <= {-2.0, 0.0, 2.0}
            assert traj.charges <= k_ch and traj.discharges <= k_dis

    def test_profit_matches_cash_flows(self):
        params = BatteryParams(0, 10, 2, 4, 4)
        bounds = const_bounds(10.0, 100.0, 4)
        traj = run_policy(day([12.0, 90.0, 11.0, 95.0]), params, 2, 2, "static", bounds)
        assert traj.profit == pytest.approx(sum(traj.cash_flows))
        # hand check: charge at 12 and 11, discharge at 90 and 95, rate 2
        assert traj.profit == pytest.approx((90 + 95 - 12 - 11) * 2.0)

    def test_bounds_coverage_guard(self):
        params = BatteryParams(0, 10, 2, 4, 4)
        short = const_bounds(10.0, 100.0, 3)  # covers 3 slots, day has 4
        with pytest.raises(ValueError, match="bounds cover"):
            run_policy(day([20.0] * 4), params, 1, 1, "timedep", short)
        late = const_bounds(10.0, 100.0, 4, t_start=2)
        with pytest.raises(ValueError, match="bounds cover"):
            run_policy(day([20.0] * 4), params, 1, 1, "feasibility", late)


class TestOfflineOpt:
    def test_constant_prices_all_idle(self):
        params = BatteryParams(0, 10, 2, 4, 5)
        profit, traj = offline_opt(day([25] * 5), params)
        assert profit == 0.0
        assert traj.actions == (IDLE,) * 5

    def test_two_step_spread(self):
        # oracle: enumerate all 9 two-step action pairs returning to e0
        params = BatteryParams(0, 10, 2, 4, 2)
        prices = [10.0, 50.0]
        best = -math.inf
        for a1, a2 in itertools.product((-1, 0, 1), repeat=2):
            e1 = 4 + a1 * 2
            e2 = e1 + a2 * 2
            if not (0 <= e1 <= 10 and 0 <= e2 <= 10) or e2 != 4:
                continue
            best = max(best, -(a1 * prices[0] + a2 * prices[1]) * 2)
        assert best == pytest.approx((50 - 10) * 2)
        profit, traj = offline_opt(day(prices), params)
        assert profit == pytest.approx(best)
        assert traj.actions == (CHARGE, DISCHARGE)

    def test_free_terminal_liquidates_stored_energy(self):
        params = BatteryParams(0, 10, 2, 4, 2)
        profit, traj = offline_opt(day([10.0, 50.0]), params, terminal="free")
        assert profit == pytest.approx((10 + 50) * 2)  # sell both stored units
        assert traj.discharges == 2

    @pytest.mark.parametrize("terminal", ["cyclic", "free"])
    def test_matches_exhaustive_enumeration(self, terminal):
        rng = np.random.default_rng(3)
        for _ in range(25):
            horizon = 4
            e0 = float(rng.integers(0, 6))
            params = BatteryParams(0, 10, 2, e0, horizon)
            prices = [float(p) for p in rng.uniform(5, 45, size=horizon)]
            best = 0.0 if terminal == "cyclic" else -math.inf
            for seq in itertools.product((-1, 0, 1), repeat=horizon):
                e = e0
                ok = True
                value = 0.0
                for a, p in zip(seq, prices):
                    e += a * 2
                    if not 0 <= e <= 10:
                        ok = False
                        break
                    value += -a * p * 2
                if ok and (terminal == "free" or e == e0):
                    best = max(best, value)
            profit, _ = offline_opt(day(prices), params, terminal=terminal)
            assert profit == pytest.approx(best, abs=1e-9)

    def test_fixed_k_restricts_actions(self):
        params = BatteryParams(0, 10, 2, 10, 4)
        prices = [40.0, 35.0, 30.0, 25.0]
        profit, traj = offline_opt(day(prices), params, fixed_k=(0, 2), terminal="free")
        assert profit == pytest.approx((40 + 35) * 2)
        assert traj.discharges == 2 and traj.charges == 0

    def test_tie_break_prefers_fewer_actions_then_early_discharge(self):
        params = BatteryParams(0, 10, 2, 4, 3)
        profit, traj = offline_opt(day([20.0, 20.0, 20.0]), params)
        assert profit == 0.0 and traj.actions == (IDLE, IDLE, IDLE)
        # equal-profit sell opportunities: the earlier discharge wins
        params2 = BatteryParams(0, 10, 2, 4, 2)
        _, traj2 = offline_opt(day([30.0, 30.0]), params2, fixed_k=(0, 1), terminal="free")
        assert traj2.actions == (DISCHARGE, IDLE)


class TestCompulsoryValue:
    def test_compulsory_fills_unexecuted_budget(self):
        traj = Trajectory((DISCHARGE, IDLE), (4.0, 2.0, 2.0), (60.0, 0.0), 60.0)
        value = compulsory_value(traj, k_ch=0, k_dis=2, lambda_min=5.0, lambda_max=45.0, rate=2.0)
        assert value == pytest.approx(60.0 + 5.0 * 2.0)


class TestTwoStageReduction:
    def test_identity_reduction_matches_plain_run(self):
        params = BatteryParams(0, 20, 2, 16, 8)
        bounds = const_bounds(5.0, 45.0, 8)
        prices = [12.0, 40.0, 8.0, 30.0, 44.0, 6.0, 22.0, 38.0]
        result = run_with_discharge_reduction(day(prices), params, 3, 4, 3, bounds)
        plain = run_policy(day(prices), params, 0, 3, "static", bounds)
        assert result.trajectory.actions == plain.actions

    def test_guarantee_on_seeded_sample(self):
        # the full 10k zero-violation sweep lives in the acceptance suite
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            horizon = int(rng.integers(k + 1, 14))
            params = BatteryParams(0, 2.0 * horizon, 2, 2.0 * k, horizon)
            prices = [float(p) for p in rng.uniform(5, 45, size=horizon)]
            bounds = const_bounds(5.0, 45.0, horizon)
            t_bar = int(rng.integers(1, horizon + 1))
            k_bar = int(rng.integers(1, k + 1))
            try:
                result = run_with_discharge_reduction(day(prices), params, k, t_bar, k_bar, bounds)
            except ValueError:
                continue  # k_bar below already-executed sales
            assert result.revenue * result.stage2_ratio >= result.benchmark - 1e-9

    def test_two_stage_values(self):
        params = BatteryParams(0, 20, 2, 12, 6)
        bounds = const_bounds(5.0, 45.0, 6)
        prices = [44.0, 6.0, 7.0, 30.0, 44.0, 6.0]
        result = run_with_discharge_reduction(day(prices), params, 3, 3, 2, bounds)
        assert result.executed_stage1 == 1
        assert result.k_rem == 1
        # the reduced side restarts as a fresh 1-search
        assert result.stage2_ratio == competitive_ratio(5.0, 45.0, 1, "max-search")
        assert result.revenue * result.stage2_ratio >= result.benchmark - 1e-9

    def test_budget_below_executed_sales_rejected(self):
        params = BatteryParams(0, 20, 2, 12, 6)
        bounds = const_bounds(5.0, 45.0, 6)
        prices = [44.0, 6.0, 7.0, 30.0, 44.0, 6.0]
        with pytest.raises(ValueError, match="below 1 already-executed sales"):
            run_with_discharge_reduction(day(prices), params, 3, 3, 0, bounds)

    @pytest.mark.parametrize("length", [5, 7])
    def test_day_length_must_match_horizon(self, length):
        params = BatteryParams(0, 20, 2, 12, 6)
        bounds = const_bounds(5.0, 45.0, 7)
        with pytest.raises(ValueError, match=f"day has {length} slots"):
            run_with_discharge_reduction(day([30.0] * length), params, 3, 3, 2, bounds)

    def test_matches_reference_on_seeded_configs(self):
        rng = np.random.default_rng(2024)
        n_raised = 0
        n_configs = 6000
        for _ in range(n_configs):
            k = int(rng.integers(0, 5))
            horizon = int(rng.integers(k + 1, 16))
            prices = [float(p) for p in rng.uniform(5.0, 45.0, size=horizon)]
            e0 = float(rng.choice([0.0, 2.0 * k, 4.0 * horizon]))
            params = BatteryParams(0.0, 4.0 * horizon, 2.0, e0, horizon)
            t_bar = int(rng.integers(1, horizon + 1))
            k_bar = int(rng.integers(-1, k + 2))
            bounds = const_bounds(5.0, 45.0, horizon)
            args = (day(prices), params, k, t_bar, k_bar, bounds)
            try:
                expected = reference_run_with_discharge_reduction(*args)
            except ValueError:
                n_raised += 1
                with pytest.raises(ValueError):
                    run_with_discharge_reduction(*args)
                continue
            assert run_with_discharge_reduction(*args) == expected, args
        # both outcomes are exercised
        assert 0 < n_raised < n_configs
