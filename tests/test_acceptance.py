"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test also enforces its stated tolerance and runtime budget.
"""

import itertools
import math
import time

import numpy as np
import pytest

from socarb.backtest import parse_config, run_experiment, synthetic_day_matrix
from socarb.conformal import (
    FeatureScaler,
    conformal_quantile,
    day_features,
    nonconformity_scores,
    predict_interval,
    train_quantile_model,
    ConformalModel,
)
from socarb.market_data import compute_bounds, fit_distribution
from socarb.reachability import (
    ActionProbs,
    TargetBand,
    count_feasible_trajectories,
    propagate,
    stopping_time,
)
from socarb.thresholds import (
    BatteryParams,
    PriceBounds,
    competitive_ratio,
    compulsory_value,
    offline_opt,
    run_policy,
    run_with_discharge_reduction,
    static_charge_thresholds,
    static_discharge_thresholds,
    timedep_thresholds,
    PolicyState,
)
from socarb.market_data import DayPrices

from oracles import activated_sum, brute_force_distribution

LMIN, LMAX = 5.0, 45.0


def report_line(criterion: int, ok: bool, label: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {criterion} failed: {label}"


def const_bounds(lmin, lmax, horizon):
    return PriceBounds(
        lambda_min=lmin,
        lambda_max=lmax,
        per_slot_min=(lmin,) * horizon,
        per_slot_max=(lmax,) * horizon,
        t_start=1,
        horizon=horizon,
    )


def day(values):
    return DayPrices("d", tuple(float(v) for v in values))


# --------------------------------------------------------------------------
# 1. Exact reproduction of the reference counting table
# --------------------------------------------------------------------------

REFERENCE_COUNT_TABLE = {
    # (e0, band) -> pct at 8, 6, 4, 2 decision steps
    (1.0, (5.0, 7.0)): (46.66, 43.63, 37.14, 20.00),
    (1.0, (3.0, 8.0)): (73.17, 72.97, 71.43, 60.00),
    (5.0, (5.0, 7.0)): (50.01, 50.10, 50.72, 55.56),
    (5.0, (3.0, 8.0)): (73.22, 73.31, 73.91, 77.78),
    (9.0, (5.0, 7.0)): (53.29, 55.98, 60.00, 60.00),
    (9.0, (3.0, 8.0)): (73.17, 72.97, 71.43, 60.00),
}


def test_criterion_1_table1_exact():
    start = time.perf_counter()
    worst = 0.0
    for (e0, (lo, hi)), row in REFERENCE_COUNT_TABLE.items():
        for steps, expected in zip((8, 6, 4, 2), row):
            params = BatteryParams(0.0, 10.0, 2.0, e0, steps)
            _, _, pct = count_feasible_trajectories(
                params, steps, TargetBand.from_interval(lo, hi)
            )
            worst = max(worst, abs(pct - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 1.0
    report_line(
        1, ok, f"counting table: 24/24 cells within {worst:.4f} pp (limit 0.01), {elapsed:.2f}s"
    )


# --------------------------------------------------------------------------
# 2. Oracle equivalence of the propagation engine
# --------------------------------------------------------------------------


def test_criterion_2_propagation_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_configs = 220
    for _ in range(n_configs):
        horizon = int(rng.integers(1, 9))
        e0 = float(rng.integers(0, 11))
        params = BatteryParams(0.0, 10.0, 2.0, e0, horizon)
        probs = []
        for _ in range(horizon):
            a, b, g = rng.dirichlet([1.0, 1.0, 1.0])
            probs.append(ActionProbs(float(a), float(b), 1.0 - float(a) - float(b)))
        k_ch = int(rng.integers(0, 5))
        k_dis = int(rng.integers(0, 5))
        fast = propagate(params, probs, k_ch, k_dis)
        slow = brute_force_distribution(params, probs, k_ch, k_dis)
        for t in range(horizon + 1):
            keys = set(fast.per_step[t]) | set(slow.per_step[t])
            for key in keys:
                dev = abs(fast.per_step[t].get(key, 0.0) - slow.per_step[t].get(key, 0.0))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 30.0
    report_line(
        2,
        ok,
        f"propagate vs path enumeration on {n_configs} configs: max dev {worst:.2e} "
        f"(limit 1e-12), {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 3. Threshold identities
# --------------------------------------------------------------------------


def test_criterion_3_threshold_identities():
    failures = []
    # k = 1 closed forms
    for alpha in (1.2, 2.0, 3.5, 5.0):
        u = static_charge_thresholds(100.0, alpha, 1)[0]
        if abs(u - 100.0 / alpha) > 1e-12 * 100.0:
            failures.append(f"u1({alpha})")
    for omega in (1.2, 2.0, 3.5, 5.0):
        l = static_discharge_thresholds(10.0, omega, 1)[0]
        if abs(l - omega * 10.0) > 1e-12 * 100.0:
            failures.append(f"l1({omega})")
    # static vs recursive under constant bounds
    rng = np.random.default_rng(31)
    for trial in range(120):
        k = int(rng.integers(1, 7))
        alpha = float(rng.uniform(1.1, 5.0))
        omega = float(rng.uniform(1.1, 5.0))
        lmin = float(rng.uniform(1.0, 30.0))
        lmax = lmin * float(rng.uniform(1.2, 25.0))
        u_static = static_charge_thresholds(lmax, alpha, k)
        l_static = static_discharge_thresholds(lmin, omega, k)
        bounds = const_bounds(lmin, lmax, k + 1)
        for j in range(1, k + 1):
            state = PolicyState(
                t=j, e=5.0, c=j - 1, d=j - 1,
                s_ch=activated_sum(u_static[: j - 1]),
                s_dis=activated_sum(l_static[: j - 1]),
            )
            u, l = timedep_thresholds(state, bounds, k, k, alpha, omega)
            if abs(u - u_static[j - 1]) > 1e-9 * abs(u_static[j - 1]):
                failures.append(f"timedep-u trial {trial} j {j}")
            if abs(l - l_static[j - 1]) > 1e-9 * abs(l_static[j - 1]):
                failures.append(f"timedep-l trial {trial} j {j}")
    ok = not failures
    report_line(
        3,
        ok,
        "k=1 closed forms and static/recursive agreement (k<=6, ratios in [1.1,5])"
        + ("" if ok else f"; failures: {failures[:5]}"),
    )


# --------------------------------------------------------------------------
# 4. Competitive guarantee property
# --------------------------------------------------------------------------


def _kmax_battery_value(prices, k, omega):
    horizon = len(prices)
    params = BatteryParams(0.0, 2.0 * max(k, 1) + 2.0 * horizon, 2.0, 2.0 * k, horizon)
    traj = run_policy(
        day(prices), params, 0, k, "static", const_bounds(LMIN, LMAX, horizon), omega=omega
    )
    return compulsory_value(traj, 0, k, LMIN, LMAX, 2.0)


def _opt_topk_sell(prices, k):
    top = sorted(prices, reverse=True)[:k]
    return (math.fsum(top) + max(0, k - len(prices)) * LMIN) * 2.0


def _kmin_classical_cost(prices, k, alpha):
    # literature convention: every threshold crossed within a period trades
    thresholds = static_charge_thresholds(LMAX, alpha, k)
    j, cost = 0, 0.0
    for p in prices:
        while j < k and p <= thresholds[j]:
            cost += p
            j += 1
    return (cost + (k - j) * LMAX) * 2.0


def _opt_mink_buy(prices, k):
    low = sorted(prices)[:k]
    return (math.fsum(low) + max(0, k - len(prices)) * LMAX) * 2.0


def _adversarial_family():
    """Threshold walks, spikes, ties, and near-miss sequences for both sides."""
    family = []
    for k in (1, 2, 3, 4):
        omega = competitive_ratio(LMIN, LMAX, k, "max-search")
        alpha = competitive_ratio(LMIN, LMAX, k, "min-search")
        ell = static_discharge_thresholds(LMIN, omega, k)
        u = static_charge_thresholds(LMAX, alpha, k)
        for stop in range(k + 1):
            nxt = ell[stop] if stop < k else LMAX
            family.append(("max", k, ell[:stop] + [min(nxt - 1e-7, LMAX)] + [LMIN] * 4))
            family.append(("max", k, ell[:stop] + [LMAX] + [LMIN] * 4))
            nxt_u = u[stop] if stop < k else LMIN
            family.append(("min", k, u[:stop] + [max(nxt_u + 1e-7, LMIN)] + [LMAX] * 4))
            family.append(("min", k, u[:stop] + [LMIN] + [LMAX] * 4))
        family.append(("max", k, [LMAX] + [LMIN] * (k + 2)))   # single spike
        family.append(("max", k, list(ell)))                    # exact ties
        family.append(("min", k, [LMIN] + [LMAX] * (k + 2)))
        family.append(("min", k, list(u)))
    return family


def test_criterion_4_competitive_guarantees():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    viol_max = viol_min = viol_two_stage = 0
    n_random = 10_000

    ratios_max = {k: competitive_ratio(LMIN, LMAX, k, "max-search") for k in range(1, 5)}
    ratios_min = {k: competitive_ratio(LMIN, LMAX, k, "min-search") for k in range(1, 5)}

    for i in range(n_random):
        k = int(rng.integers(1, 5))
        horizon = int(rng.integers(k, 16))
        prices = [float(p) for p in rng.uniform(LMIN, LMAX, size=horizon)]
        value = _kmax_battery_value(prices, k, ratios_max[k])
        opt = _opt_topk_sell(prices, k)
        if value * ratios_max[k] < opt - 1e-9:
            viol_max += 1
        cost = _kmin_classical_cost(prices, k, ratios_min[k])
        if cost > ratios_min[k] * min(_opt_mink_buy(prices, k), k * min(prices) * 2.0) + 1e-9:
            viol_min += 1
        if i % 500 == 0:
            # spot-check the sort-based OPT against the constrained DP
            params = BatteryParams(0.0, 4.0 * horizon, 2.0, 2.0 * k, horizon)
            dp_opt, _ = offline_opt(day(prices), params, fixed_k=(0, k), terminal="free")
            pad = max(0, k - horizon) * LMIN * 2.0
            assert abs(dp_opt + pad - opt) < 1e-9

    for side, k, prices in _adversarial_family():
        if side == "max":
            value = _kmax_battery_value(prices, k, ratios_max[k])
            if value * ratios_max[k] < _opt_topk_sell(prices, k) - 1e-9:
                viol_max += 1
        else:
            # on descending walks the per-step battery policy and the
            # classical multi-unit search coincide; check the battery itself
            horizon = len(prices)
            params = BatteryParams(0.0, 2.0 * horizon + 2.0 * k, 2.0, 0.0, horizon)
            traj = run_policy(
                day(prices), params, k, 0, "static",
                const_bounds(LMIN, LMAX, horizon), alpha=ratios_min[k],
            )
            cost = -compulsory_value(traj, k, 0, LMIN, LMAX, 2.0)
            if cost > ratios_min[k] * _opt_mink_buy(prices, k) + 1e-9:
                viol_min += 1

    n_two_stage = 10_000
    for _ in range(n_two_stage):
        k = int(rng.integers(1, 5))
        horizon = int(rng.integers(k + 1, 16))
        prices = [float(p) for p in rng.uniform(LMIN, LMAX, size=horizon)]
        params = BatteryParams(0.0, 4.0 * horizon, 2.0, 2.0 * k, horizon)
        t_bar = int(rng.integers(1, horizon + 1))
        k_bar = int(rng.integers(1, k + 1))
        bounds = const_bounds(LMIN, LMAX, horizon)
        try:
            result = run_with_discharge_reduction(day(prices), params, k, t_bar, k_bar, bounds)
        except ValueError:
            result = run_with_discharge_reduction(day(prices), params, k, t_bar, k, bounds)
        if result.revenue * result.stage2_ratio < result.benchmark - 1e-9:
            viol_two_stage += 1

    elapsed = time.perf_counter() - start
    ok = viol_max == 0 and viol_min == 0 and viol_two_stage == 0 and elapsed < 120.0
    report_line(
        4,
        ok,
        f"competitive guarantees on {n_random} random + adversarial family: "
        f"k-max viol={viol_max}, k-min viol={viol_min}, "
        f"two-stage viol={viol_two_stage} over {n_two_stage}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 5. Stopping-time contract
# --------------------------------------------------------------------------


def test_criterion_5_stopping_time_contract():
    rng = np.random.default_rng(55)
    failures = []
    for trial in range(80):
        horizon = int(rng.integers(1, 8))
        e0 = float(rng.integers(0, 11))
        params = BatteryParams(0.0, 10.0, 2.0, e0, horizon)
        probs = []
        for _ in range(horizon):
            a, b, _ = rng.dirichlet([1.0, 1.0, 1.0])
            probs.append(ActionProbs(float(a), float(b), 1.0 - float(a) - float(b)))
        lo = float(rng.integers(0, 9))
        band = TargetBand.from_interval(lo, lo + float(rng.integers(1, 4)))
        eps = float(rng.uniform(0.05, 0.5))
        mode = ("idle", "full-control", "continue-policy")[trial % 3]
        result = stopping_time(propagate(params, probs, horizon, horizon), band, eps, mode)
        thresh = 1.0 - eps
        if result.tau_star is not None:
            if result.big_q[result.tau_star - 1] < thresh:
                failures.append(f"trial {trial}: Q at tau below 1-eps")
            if any(q >= thresh for q in result.big_q[: result.tau_star - 1]):
                failures.append(f"trial {trial}: earlier Q already clears 1-eps")
        else:
            if any(q >= thresh for q in result.big_q):
                failures.append(f"trial {trial}: tau None despite crossing")
        if mode == "idle":
            # independent oracle: band mass per step from path enumeration
            oracle = brute_force_distribution(params, probs, horizon, horizon)
            for t in range(1, horizon + 1):
                direct = math.fsum(
                    mass for e, mass in oracle.marginal(t).items() if band.contains(e)
                )
                if abs(result.big_q[t - 1] - direct) > 1e-12:
                    failures.append(f"trial {trial}: idle Q[{t}] != band mass")
    ok = not failures
    report_line(
        5,
        ok,
        "stopping-time contract on 80 randomized runs (all post-stop modes)"
        + ("" if ok else f"; failures: {failures[:5]}"),
    )


# --------------------------------------------------------------------------
# 6. Conservation and feasibility suite
# --------------------------------------------------------------------------


def test_criterion_6_conservation_feasibility():
    rng = np.random.default_rng(66)
    failures = []
    for trial in range(150):
        horizon = int(rng.integers(1, 10))
        e_min = float(rng.integers(0, 3))
        e_max = e_min + float(rng.integers(2, 11))
        e0 = float(min(e_min + rng.integers(0, int(e_max - e_min) + 1), e_max))
        params = BatteryParams(e_min, e_max, 2.0, e0, horizon)
        probs = []
        for _ in range(horizon):
            a, b, _ = rng.dirichlet([1.0, 1.0, 1.0])
            probs.append(ActionProbs(float(a), float(b), 1.0 - float(a) - float(b)))
        k_ch = int(rng.integers(0, 5))
        k_dis = int(rng.integers(0, 5))
        dist = propagate(params, probs, k_ch, k_dis)
        for t in range(horizon + 1):
            if abs(math.fsum(dist.per_step[t].values()) - 1.0) > 1e-12:
                failures.append(f"trial {trial}: mass at t={t}")
            for e in dist.marginal(t):
                if not e_min - 1e-9 <= e <= e_max + 1e-9:
                    failures.append(f"trial {trial}: support at {e}")
        for t in range(horizon + 1):
            for (m, c, d), _ in dist.per_step[t].items():
                if m != c - d or c > k_ch or d > k_dis:
                    failures.append(f"trial {trial}: lattice identity at t={t}")
    # mirror symmetry of counting, exact integer equality
    for e0 in (1.0, 2.0, 5.0, 7.0, 9.0):
        for lo, hi in ((5.0, 7.0), (3.0, 8.0), (2.0, 9.0)):
            for steps in (2, 3, 5, 8):
                direct = count_feasible_trajectories(
                    BatteryParams(0.0, 10.0, 2.0, e0, steps), steps,
                    TargetBand.from_interval(lo, hi),
                )
                mirror = count_feasible_trajectories(
                    BatteryParams(0.0, 10.0, 2.0, 10.0 - e0, steps), steps,
                    TargetBand.from_interval(10.0 - hi, 10.0 - lo),
                )
                if direct != mirror:
                    failures.append(f"mirror {e0} [{lo},{hi}] n={steps}")
    ok = not failures
    report_line(
        6,
        ok,
        "conservation (1e-12), capacity support, lattice identity, mirror symmetry"
        + ("" if ok else f"; failures: {failures[:5]}"),
    )


# --------------------------------------------------------------------------
# 7. CQR validity at desk scale
# --------------------------------------------------------------------------


def _cqr_trial(features, labels, order, epsilon, n_train, n_calib):
    train_idx = order[:n_train]
    calib_idx = order[n_train : n_train + n_calib]
    test_idx = order[n_train + n_calib :]
    scaler = FeatureScaler.fit(features[train_idx])
    x_train = scaler.transform(features[train_idx])
    low_w = train_quantile_model(x_train, labels[train_idx], epsilon / 2, epochs=250)
    high_w = train_quantile_model(x_train, labels[train_idx], 1 - epsilon / 2, epochs=250)
    scores = nonconformity_scores(
        low_w, high_w, scaler, features[calib_idx], labels[calib_idx]
    )
    delta = conformal_quantile(scores, epsilon)
    model = ConformalModel(
        tuple(low_w), tuple(high_w), epsilon / 2, 1 - epsilon / 2, delta, scaler
    )
    covered = certified = 0
    for idx in test_idx:
        interval = predict_interval(model, features[idx])
        if interval.lo - 1e-12 <= labels[idx] <= interval.hi + 1e-12:
            covered += 1
        if interval.lo >= 3.0 - 1e-12 and interval.hi <= 8.0 + 1e-12:
            certified += 1
    return covered / len(test_idx), certified / len(test_idx)


def test_criterion_7_cqr_validity():
    start = time.perf_counter()
    epsilon = 0.1
    n_calib = 200
    # hand-computed order statistics
    ok_delta = (
        conformal_quantile(list(range(1, 11)), 0.1) == 10.0
        and conformal_quantile(list(range(1, 101)), 0.1) == 91.0
        and conformal_quantile([0.0] * 50, 0.1) == 0.0
    )

    days = synthetic_day_matrix(500, 24, seed=777)
    bounds = compute_bounds(days, 1)
    params = BatteryParams(0.0, 10.0, 2.0, 4.0, 24)
    feats = np.array([day_features(d) for d in days])
    labels = np.array(
        [run_policy(d, params, 3, 3, "static", bounds).soc_path[-1] for d in days]
    )

    rng = np.random.default_rng(778)
    coverages = []
    for _ in range(50):
        order = rng.permutation(len(days))
        cov, _ = _cqr_trial(feats, labels, order, epsilon, 240, n_calib)
        coverages.append(cov)
    mean_cov = float(np.mean(coverages))

    # qualitative claims on the same harness: coverage roughly flat in e0,
    # certificate rate non-decreasing as e0 approaches the band [3, 8]
    per_e0_cov = {}
    per_e0_cert = {}
    for e0 in (1.0, 3.0, 5.0):
        p = BatteryParams(0.0, 10.0, 2.0, e0, 24)
        f_e0 = np.array([day_features(d) for d in days])
        y_e0 = np.array(
            [run_policy(d, p, 3, 3, "static", bounds).soc_path[-1] for d in days]
        )
        rng_e0 = np.random.default_rng(779)
        covs, certs = [], []
        for _ in range(8):
            order = rng_e0.permutation(len(days))
            cov, cert = _cqr_trial(f_e0, y_e0, order, epsilon, 240, n_calib)
            covs.append(cov)
            certs.append(cert)
        per_e0_cov[e0] = float(np.mean(covs))
        per_e0_cert[e0] = float(np.mean(certs))

    elapsed = time.perf_counter() - start
    flat = all(c >= 1.0 - epsilon - 0.05 for c in per_e0_cov.values())
    monotone = per_e0_cert[1.0] <= per_e0_cert[3.0] + 1e-12 <= per_e0_cert[5.0] + 2e-12
    ok = (
        ok_delta
        and 0.87 <= mean_cov <= 1.0
        and flat
        and monotone
        and elapsed < 120.0
    )
    report_line(
        7,
        ok,
        f"CQR: mean coverage {mean_cov:.3f} over 50 resamplings (need >= 0.87), "
        f"delta-hat order stats exact, per-e0 coverage {per_e0_cov}, "
        f"certificate rates {per_e0_cert}, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 8. End-to-end determinism
# --------------------------------------------------------------------------

BACKTEST_CONFIG = """
battery.e_min = 0
battery.e_max = 10
battery.rate = 2
battery.e0 = 5
battery.horizon = 8
bands = 5:7, 3:8
e0_sweep = 1, 9
start_steps = 4, 2
epsilon = 0.1
k_grid = 2:2
seed = 99
synthetic.n_days = 70
cqr.epochs = 120
"""


def test_criterion_8_backtest_determinism():
    config = parse_config(BACKTEST_CONFIG)
    first = run_experiment(config)
    second = run_experiment(config)
    identical = first.without_timestamp() == second.without_timestamp()
    nonempty = bool(first.payload["cells"]) and "cqr" in first.payload
    ok = identical and nonempty
    report_line(8, ok, "backtest report identical across runs (timestamp excluded)")
