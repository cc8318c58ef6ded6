"""Slow reference implementations that the tests compare the library against."""

import math
from dataclasses import replace

from socarb.reachability import ActionProbs, SocDistribution
from socarb.thresholds import (
    CHARGE,
    DISCHARGE,
    FEAS_EPS,
    IDLE,
    BatteryParams,
    Trajectory,
    _thresholds_for,
    build_schedule,
    initial_state,
    search_ratios,
)


def brute_force_distribution(
    params: BatteryParams,
    probs_per_step: list[ActionProbs],
    k_ch: int,
    k_dis: int,
) -> SocDistribution:
    """Enumerate all action sequences path-wise; oracle for :func:`propagate`.

    Applies the same fold-to-idle rule along each path.  Limited to horizons
    of at most 10 (3^T paths).
    """
    horizon = len(probs_per_step)
    if horizon > 10:
        raise ValueError("brute force enumeration limited to horizon <= 10")
    m_lo = -params.max_discharges(params.e0)
    m_hi = params.max_charges(params.e0)
    steps: list[dict] = [{} for _ in range(horizon + 1)]
    steps[0][(0, 0, 0)] = 1.0

    def walk(t, m, c, d, mass):
        if t == horizon:
            return
        ap = probs_per_step[t]
        can_up = m + 1 <= m_hi and c < k_ch
        can_down = m - 1 >= m_lo and d < k_dis
        idle = ap.gamma + (0.0 if can_up else ap.alpha) + (0.0 if can_down else ap.beta)
        branches = []
        if can_up:
            branches.append((m + 1, c + 1, d, ap.alpha))
        if can_down:
            branches.append((m - 1, c, d + 1, ap.beta))
        branches.append((m, c, d, idle))
        for m2, c2, d2, p in branches:
            if p <= 0.0:
                continue
            key = (m2, c2, d2)
            steps[t + 1][key] = steps[t + 1].get(key, 0.0) + mass * p
            walk(t + 1, m2, c2, d2, mass * p)

    walk(0, 0, 0, 0, 1.0)
    return SocDistribution(params, k_ch, k_dis, "augmented", tuple(steps))


def reference_step_policy(state, params, lambda_t, u_next, l_next):
    """The per-step rule on a frozen ``PolicyState``, advanced by ``replace``."""
    can_charge = (
        state.j_next <= state.k_ch
        and u_next is not None
        and lambda_t <= u_next
        and state.e + params.rate <= params.e_max + FEAS_EPS
    )
    if can_charge:
        new = replace(
            state,
            t=state.t + 1,
            e=min(state.e + params.rate, params.e_max),
            j_next=state.j_next + 1,
            activated_ch=state.activated_ch + ((u_next, state.t),),
        )
        return CHARGE, new
    can_discharge = (
        state.i_next <= state.k_dis
        and l_next is not None
        and lambda_t >= l_next
        and state.e - params.rate >= params.e_min - FEAS_EPS
    )
    if can_discharge:
        new = replace(
            state,
            t=state.t + 1,
            e=max(state.e - params.rate, params.e_min),
            i_next=state.i_next + 1,
            activated_dis=state.activated_dis + ((l_next, state.t),),
        )
        return DISCHARGE, new
    return IDLE, replace(state, t=state.t + 1)


def reference_run_policy(
    day, params, k_ch, k_dis, threshold_mode, bounds, alpha=None, omega=None
) -> Trajectory:
    """One day of the online policy, re-solving ratios and schedule per call.

    Oracle for :func:`socarb.thresholds.run_policy_days`: it carries the full
    ``PolicyState`` through every step.
    """
    alpha, omega = search_ratios(bounds, k_ch, k_dis, alpha, omega)
    schedule = None
    if threshold_mode == "static":
        schedule = build_schedule(bounds, k_ch, k_dis, alpha, omega)

    state = initial_state(params, k_ch, k_dis)
    actions: list[int] = []
    soc = [params.e0]
    cash: list[float] = []
    for lam in day.values:
        u, l = _thresholds_for(state, params, threshold_mode, bounds, schedule, alpha, omega)
        action, state = reference_step_policy(state, params, lam, u, l)
        actions.append(action)
        soc.append(state.e)
        cash.append(-action * lam * params.rate)
    return Trajectory(tuple(actions), tuple(soc), tuple(cash), math.fsum(cash))


def reference_offline_opt(
    day,
    params: BatteryParams,
    fixed_k: tuple[int, int] | None = None,
    terminal: str = "cyclic",
) -> tuple[float, Trajectory]:
    """Perfect-foresight optimum over (m, c, d) tables with both counters always tracked.

    Oracle for :func:`socarb.thresholds.offline_opt`.

    Maximizes total profit (discharge revenue positive); with ``fixed_k`` the
    action counts are capped at (k_ch, k_dis).  Ties break toward fewer
    actions, then earlier discharges.

    ``terminal`` picks the benchmark convention: ``cyclic`` (default) requires
    the schedule to end at the initial SoC, so profit measures captured spread
    rather than liquidation of stored energy; ``free`` leaves the terminal SoC
    unconstrained, which is the one-sided k-search benchmark.
    """
    if terminal not in ("cyclic", "free"):
        raise ValueError(f"unknown terminal convention {terminal!r}")
    horizon = len(day.values)
    rate = params.rate
    m_lo = -params.max_discharges(params.e0)
    m_hi = params.max_charges(params.e0)
    k_ch = fixed_k[0] if fixed_k else horizon
    k_dis = fixed_k[1] if fixed_k else horizon

    def moves(state, lam, table):
        """Candidate (value, action) pairs from ``state`` against ``table``.

        Values are (profit, -actions) tuples compared lexicographically; the
        same float expressions are reused in reconstruction so equality is
        exact.
        """
        m, c, d = state
        yield table[(m, c, d)], IDLE
        if d < k_dis and m - 1 >= m_lo:
            down = table[(m - 1, c, d + 1)]
            yield (down[0] + lam * rate, down[1] - 1), DISCHARGE
        if c < k_ch and m + 1 <= m_hi:
            up = table[(m + 1, c + 1, d)]
            yield (up[0] - lam * rate, up[1] - 1), CHARGE

    infeasible = (-math.inf, 0)
    terminal_table = {
        (m, c, d): (0.0, 0) if (terminal == "free" or m == 0) else infeasible
        for m in range(m_lo, m_hi + 1)
        for c in range(k_ch + 1)
        for d in range(k_dis + 1)
    }
    tables = [terminal_table]
    for t in range(horizon - 1, -1, -1):
        lam = day.values[t]
        nxt = tables[-1]
        tables.append({s: max(v for v, _ in moves(s, lam, nxt)) for s in nxt})
    tables.reverse()  # tables[t] = value-to-go before acting at step t (0-based)

    # forward reconstruction; prefer discharge, then idle, then charge
    m, c, d = 0, 0, 0
    actions = []
    soc = [params.e0]
    cash = []
    for t in range(horizon):
        lam = day.values[t]
        target = tables[t][(m, c, d)]
        ranked = sorted(moves((m, c, d), lam, tables[t + 1]), key=lambda va: va[1])
        chosen = next(a for v, a in ranked if v == target)
        if chosen == DISCHARGE:
            m, d = m - 1, d + 1
        elif chosen == CHARGE:
            m, c = m + 1, c + 1
        actions.append(chosen)
        soc.append(params.e0 + m * rate)
        cash.append(-chosen * lam * rate)
    profit = math.fsum(cash)
    return profit, Trajectory(tuple(actions), tuple(soc), tuple(cash), profit)
