"""Slow reference implementations that the tests compare the library against."""

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

import numpy as np

from socarb import conformal
from socarb.conformal import CoverageReport
from socarb.market_data import DayPrices
from socarb.reachability import (
    BAND_EPS,
    POST_STOP_MODES,
    ActionProbs,
    StaticStep,
    TargetBand,
    policy_distributions,
)
from socarb.thresholds import (
    CHARGE,
    DISCHARGE,
    FEAS_EPS,
    IDLE,
    BatteryParams,
    PolicyState,
    Trajectory,
    TwoStageResult,
    build_schedule,
    competitive_ratio,
    search_ratios,
    static_discharge_thresholds,
)


@dataclass(frozen=True)
class DictDistribution:
    """Probability mass over augmented states (t, SoC offset, n_ch, n_dis).

    Offsets index the lattice e = e0 + m * rate.  ``per_step[t]`` maps state
    keys to mass; keys are (m, n_ch, n_dis) in augmented mode and bare m in
    marginal mode.  Step 0 is the deterministic initial state.
    """

    params: BatteryParams
    k_ch: int
    k_dis: int
    mode: str
    per_step: tuple = field(repr=False)

    @property
    def horizon(self) -> int:
        return len(self.per_step) - 1

    def energy(self, offset: int) -> float:
        return self.params.e0 + offset * self.params.rate

    def marginal(self, t: int) -> dict[float, float]:
        """dist_t[e]: probability mass per SoC value at step t."""
        out: dict[float, float] = {}
        for key, mass in self.per_step[t].items():
            m = key if self.mode == "marginal" else key[0]
            e = self.energy(m)
            out[e] = out.get(e, 0.0) + mass
        return out


def brute_force_distribution(
    params: BatteryParams,
    probs_per_step: list[ActionProbs],
    k_ch: int,
    k_dis: int,
) -> DictDistribution:
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
    return DictDistribution(params, k_ch, k_dis, "augmented", tuple(steps))


def reference_propagate(
    params: BatteryParams,
    probs_per_step: list[ActionProbs],
    k_ch: int,
    k_dis: int,
    mode: str = "augmented",
) -> DictDistribution:
    """Forward-propagate the SoC probability mass with pruning, one dict per step.

    Oracle for :func:`socarb.reachability.propagate`.  Whenever an action
    would leave capacity (or, in augmented mode, exceed its budget), its
    probability mass folds into the idle branch.
    """
    if mode not in ("augmented", "marginal"):
        raise ValueError(f"unknown propagation mode {mode!r}")
    m_lo = -params.max_discharges(params.e0)
    m_hi = params.max_charges(params.e0)

    if mode == "augmented":
        current: dict = {(0, 0, 0): 1.0}
    else:
        current = {0: 1.0}
    steps = [dict(current)]
    for ap in probs_per_step:
        nxt: dict = {}

        def add(key, mass):
            if mass > 0.0:
                nxt[key] = nxt.get(key, 0.0) + mass

        for key, mass in current.items():
            if mode == "augmented":
                m, c, d = key
                can_up = m + 1 <= m_hi and c < k_ch
                can_down = m - 1 >= m_lo and d < k_dis
                up_key = (m + 1, c + 1, d)
                down_key = (m - 1, c, d + 1)
                stay_key = key
            else:
                m = key
                can_up = m + 1 <= m_hi
                can_down = m - 1 >= m_lo
                up_key = m + 1
                down_key = m - 1
                stay_key = m
            idle_mass = ap.gamma
            if can_up:
                add(up_key, mass * ap.alpha)
            else:
                idle_mass += ap.alpha
            if can_down:
                add(down_key, mass * ap.beta)
            else:
                idle_mass += ap.beta
            add(stay_key, mass * idle_mass)
        current = nxt
        steps.append(current)
    return DictDistribution(params, k_ch, k_dis, mode, tuple(steps))


def _reachable_in_band(
    params: BatteryParams, e: float, steps_left: int, band: TargetBand
) -> bool:
    """Can any feasible deterministic action sequence reach the band?"""
    down = params.max_discharges(e)
    up = params.max_charges(e)
    m_lo = -min(down, steps_left)
    m_hi = min(up, steps_left)
    lo_needed = math.ceil((band.lo - e) / params.rate - BAND_EPS)
    hi_allowed = math.floor((band.hi - e) / params.rate + BAND_EPS)
    return max(m_lo, lo_needed) <= min(m_hi, hi_allowed)


@dataclass(frozen=True)
class EagerStoppingResult:
    """A stopping-time result with every field computed up front."""

    q_table: object = field(repr=False, compare=False)
    big_q: tuple[float, ...]
    tau_star: int | None
    epsilon: float
    post_stop_mode: str


def reference_stopping_time(
    params: BatteryParams,
    probs_per_step: list[ActionProbs],
    band: TargetBand,
    epsilon: float,
    post_stop_mode: str = "full-control",
) -> EagerStoppingResult:
    """Minimum stopping time over per-step dicts; ``q_table`` maps (t, e) to q.

    Oracle for :func:`socarb.reachability.stopping_time`.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if post_stop_mode not in ("idle", "full-control", "continue-policy"):
        raise ValueError(f"unknown post-stop mode {post_stop_mode!r}")
    horizon = len(probs_per_step)
    dist = reference_propagate(
        params, probs_per_step, k_ch=horizon, k_dis=horizon, mode="marginal"
    )
    m_lo = -params.max_discharges(params.e0)
    m_hi = params.max_charges(params.e0)
    offsets = range(m_lo, m_hi + 1)

    # q[m] per step, built backward where needed
    q_by_step: list[dict[int, float]] = [dict() for _ in range(horizon + 1)]
    if post_stop_mode == "continue-policy":
        q_by_step[horizon] = {
            m: 1.0 if band.contains(params.e0 + m * params.rate) else 0.0 for m in offsets
        }
        for t in range(horizon - 1, 0, -1):
            ap = probs_per_step[t]  # action taken between step t and t+1
            nxt = q_by_step[t + 1]
            cur = {}
            for m in offsets:
                can_up = m + 1 <= m_hi
                can_down = m - 1 >= m_lo
                idle = ap.gamma + (0.0 if can_up else ap.alpha) + (0.0 if can_down else ap.beta)
                val = idle * nxt[m]
                if can_up:
                    val += ap.alpha * nxt[m + 1]
                if can_down:
                    val += ap.beta * nxt[m - 1]
                cur[m] = val
            q_by_step[t] = cur
    else:
        for t in range(1, horizon + 1):
            for m in offsets:
                e = params.e0 + m * params.rate
                if post_stop_mode == "idle":
                    q_by_step[t][m] = 1.0 if band.contains(e) else 0.0
                else:
                    q_by_step[t][m] = (
                        1.0 if _reachable_in_band(params, e, horizon - t, band) else 0.0
                    )

    q_table: dict[tuple[int, float], float] = {}
    big_q = []
    for t in range(1, horizon + 1):
        terms = []
        for key, mass in dist.per_step[t].items():
            m = key
            e = params.e0 + m * params.rate
            q = q_by_step[t].get(m, 0.0)
            q_table[(t, e)] = q
            terms.append(mass * q)
        big_q.append(min(1.0, max(0.0, math.fsum(terms))))
    tau_star = next((t for t, q in enumerate(big_q, start=1) if q >= 1.0 - epsilon), None)
    return EagerStoppingResult(q_table, tuple(big_q), tau_star, epsilon, post_stop_mode)


def _eager_chain(params, probs, k_ch, k_dis):
    """Every step's idle weights and moves (weight, from, to) as (T, n_ch, n_dis) arrays.

    Action probabilities fold a blocked action's mass into idle.  The static
    policy's own steps charge where charging is allowed, and discharge where
    discharging is allowed with the overlap chance if charging is allowed
    too, the whole upper tail if not; what does neither idles.
    """
    horizon = len(probs)
    m_lo, m_hi = params.offsets[0], params.offsets[-1]
    c, d = np.indices((min(k_ch, horizon) + 1, min(k_dis, horizon) + 1))
    up_ok = (c - d + 1 <= m_hi) & (c < k_ch)
    down_ok = (c - d - 1 >= m_lo) & (d < k_dis)
    if probs and isinstance(probs[0], StaticStep):
        n_ch, n_dis = c.shape
        charge = np.array([step.charge[1:] for step in probs])[:, :, None]
        tail = np.array([step.discharge[1 : 1 + n_dis] for step in probs])[:, None, :]
        overlap = np.array([step.discharge[1 + n_dis :].reshape(n_ch, n_dis) for step in probs])
        # a move off the last row or column would leave the lattice; no step starts there
        alpha = charge * (up_ok & (c < n_ch - 1))
        beta = np.where(up_ok, overlap, tail) * (down_ok & (d < n_dis - 1))
        moves = (
            (beta[:, :, :-1], np.index_exp[:, :-1], np.index_exp[:, 1:]),
            (alpha[:, :-1, :], np.index_exp[:-1, :], np.index_exp[1:, :]),
        )
        return (1.0 - alpha) - beta, moves
    alpha, beta, gamma = (
        np.array([getattr(ap, name) for ap in probs], dtype=float).reshape(horizon, 1, 1)
        for name in ("alpha", "beta", "gamma")
    )
    stay = (gamma + alpha * ~up_ok) + beta * ~down_ok
    moves = (
        ((beta * down_ok)[:, :, :-1], np.index_exp[:, :-1], np.index_exp[:, 1:]),
        ((alpha * up_ok)[:, :-1, :], np.index_exp[:-1, :], np.index_exp[1:, :]),
    )
    return stay, moves


def eager_propagate(params, probs, k_ch, k_dis):
    """One battery's masses and m_masses, from the chain built for every step at once.

    Oracle for :func:`socarb.reachability.propagate_lanes`, which builds each
    step's weights inside its loop and steps all lanes together.  Returns the
    (T+1, n_ch, n_dis) masses and their (T+1, n) diagonal sums.
    """
    stay, moves = _eager_chain(params, probs, k_ch, k_dis)
    masses = np.zeros((len(probs) + 1,) + stay.shape[1:])
    masses[0, 0, 0] = 1.0
    for t, (cur, nxt) in enumerate(zip(masses, masses[1:])):
        np.multiply(cur, stay[t], out=nxt)
        for weight, src, dst in moves:
            nxt[dst] += cur[src] * weight[t]
    offsets = params.offsets
    c, d = np.indices(masses.shape[1:])
    column = c - d - offsets[0]
    inside = (0 <= column) & (column < len(offsets))
    steps, n = len(masses), len(offsets)
    bins = (np.arange(steps)[:, None] * n + column[inside]).ravel()
    sums = np.bincount(bins, masses[:, inside].ravel(), minlength=steps * n)
    return masses, sums.reshape(steps, n)


def eager_stopping_time(soc_dist, band, epsilon, post_stop_mode="full-control"):
    """The array stopping time with its chain, every Q_t and q_table built up front.

    Oracle for :func:`socarb.reachability.stopping_time`, whose result sums Q_t
    only up to tau_star and builds ``big_q`` and ``q_table`` when first read.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if post_stop_mode not in POST_STOP_MODES:
        raise ValueError(f"unknown post-stop mode {post_stop_mode!r}")
    horizon, params = soc_dist.horizon, soc_dist.params
    e = np.array(soc_dist.grid)
    column, inside = soc_dist._columns()

    def probabilities(rows):
        return tuple(min(1.0, max(0.0, math.fsum(row.ravel().tolist()))) for row in rows)

    if post_stop_mode == "continue-policy":
        stay, moves = _eager_chain(params, soc_dist.probs, soc_dist.k_ch, soc_dist.k_dis)
        q = np.empty((horizon,) + column.shape)
        q[-1:] = band.contains(e)[column]
        for t in range(horizon - 1, 0, -1):
            nxt, cur = q[t], q[t - 1]
            np.multiply(stay[t], nxt, out=cur)
            for weight, src, dst in reversed(moves):
                cur[src] += weight[t] * nxt[dst]
        q *= inside
        big_q = probabilities(soc_dist.masses[1:] * q)
    else:
        if post_stop_mode == "idle":
            q_m = np.tile(band.contains(e), (horizon, 1))
        else:
            steps_left = np.arange(horizon - 1, -1, -1)[:, None]
            m = np.array(params.offsets)
            down, up = m - m[0], m[-1] - m
            lo_needed = np.ceil((band.lo - e) / params.rate - BAND_EPS)
            hi_allowed = np.floor((band.hi - e) / params.rate + BAND_EPS)
            q_m = np.maximum(-np.minimum(down, steps_left), lo_needed) <= np.minimum(
                np.minimum(up, steps_left), hi_allowed
            )
        big_q = probabilities(soc_dist.m_masses[1:] * q_m)
        q = q_m[:, column] & inside
    tau_star = next((t for t, q_t in enumerate(big_q, start=1) if q_t >= 1.0 - epsilon), None)
    return EagerStoppingResult(
        q.astype(float, copy=False), big_q, tau_star, epsilon, post_stop_mode
    )


def reference_count_feasible_trajectories(
    params: BatteryParams, steps: int, band: TargetBand
) -> tuple[int, int, float]:
    """Counting DP over a dict of reachable offsets.

    Oracle for :func:`socarb.reachability.count_feasible_trajectories`.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    m_lo = -params.max_discharges(params.e0)
    m_hi = params.max_charges(params.e0)
    counts = {0: 1}
    for _ in range(steps):
        nxt: dict[int, int] = {}
        for m, c in counts.items():
            for dm in (-1, 0, 1):
                m2 = m + dm
                if m_lo <= m2 <= m_hi:
                    nxt[m2] = nxt.get(m2, 0) + c
        counts = nxt
    total = sum(counts.values())
    in_band = sum(
        c for m, c in counts.items() if band.contains(params.e0 + m * params.rate)
    )
    return in_band, total, 100.0 * in_band / total


def reference_trajectory_counts(params: BatteryParams, steps) -> partial:
    """Counts per (steps, band) call, each from its own dict DP.

    Oracle for :func:`socarb.reachability.trajectory_counts`, whose one DP
    the backtest shares across a battery's windows: patched into
    ``socarb.backtest``, every cell counts on its own again.
    """
    return partial(reference_count_feasible_trajectories, params)


def reference_policy_distributions(lanes, dist, bounds, k_ch, k_dis, threshold_mode):
    """Each battery's SoC distribution from a policy run of its own.

    Oracle for :func:`socarb.reachability.policy_distributions`, which lets
    the batteries whose rule never reads the SoC share one chain: patched
    into ``socarb.backtest``, every (e0, budget pair) propagates alone.
    """
    return [
        soc_dist
        for params in lanes
        for soc_dist in policy_distributions([params], dist, bounds, k_ch, k_dis, threshold_mode)
    ]


@dataclass(frozen=True)
class HistoryState:
    """The policy state as a full record: counters, budgets, SoC, activations.

    ``activated_ch`` / ``activated_dis`` hold (threshold value, time) pairs in
    activation order.  ``reference_step_policy`` carries one through every
    step; :func:`policy_state` reduces it to the library's ``PolicyState``.
    """

    t: int
    e: float
    j_next: int
    i_next: int
    k_ch: int
    k_dis: int
    activated_ch: tuple[tuple[float, int], ...] = ()
    activated_dis: tuple[tuple[float, int], ...] = ()

    def __post_init__(self):
        if not 1 <= self.j_next <= self.k_ch + 1:
            raise ValueError("j_next outside 1..k_ch+1")
        if not 1 <= self.i_next <= self.k_dis + 1:
            raise ValueError("i_next outside 1..k_dis+1")
        if len(self.activated_ch) != self.j_next - 1:
            raise ValueError("activated_ch length must equal j_next-1")
        if len(self.activated_dis) != self.i_next - 1:
            raise ValueError("activated_dis length must equal i_next-1")


def activated_sum(values):
    """Values added left to right, as the executor's ``+=`` adds activated
    thresholds and ``PriceBounds.sums`` adds the sorted bounds.

    Not ``sum()``: from Python 3.12 it adds floats with compensation.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def policy_state(state: HistoryState) -> PolicyState:
    """The library's (t, e, c, d, sum u*, sum l*) view of a full record."""
    return PolicyState(
        state.t,
        state.e,
        state.j_next - 1,
        state.i_next - 1,
        activated_sum(v for v, _ in state.activated_ch),
        activated_sum(v for v, _ in state.activated_dis),
    )


def initial_state(params: BatteryParams, k_ch: int, k_dis: int) -> HistoryState:
    return HistoryState(t=1, e=params.e0, j_next=1, i_next=1, k_ch=k_ch, k_dis=k_dis)


def reference_step_policy(state, params, lambda_t, u_next, l_next):
    """The per-step rule on a frozen ``HistoryState``, advanced by ``replace``."""
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


def reference_remaining(bounds, t):
    """Sorted (ascending mins, descending maxes) for slots t..horizon, sorted afresh at every call.

    Both lists are empty once t is past the horizon.
    """
    if t < bounds.t_start:
        raise ValueError(f"t={t} precedes bound coverage starting at {bounds.t_start}")
    off = t - bounds.t_start
    return sorted(bounds.per_slot_min[off:]), sorted(bounds.per_slot_max[off:], reverse=True)


def _reference_timedep_side(activated, n_needed, z_sorted, envelope):
    """Activated values plus the first n_needed bounds, padded with the envelope."""
    if len(z_sorted) < n_needed:
        z_sorted = z_sorted + [envelope] * (n_needed - len(z_sorted))
    return activated_sum(v for v, _ in activated) + activated_sum(z_sorted[:n_needed])


def reference_timedep_thresholds(state, bounds, alpha, omega):
    """Time-dependent thresholds on bound lists sorted at every step.

    Oracle for :func:`socarb.thresholds.timedep_thresholds`, read off a
    ``HistoryState``.
    """
    z_min_sorted, z_max_sorted = reference_remaining(bounds, state.t)
    u_next = None
    l_next = None
    if state.k_ch >= 1 and state.j_next <= state.k_ch:
        total = _reference_timedep_side(
            state.activated_ch, state.k_ch - (state.j_next - 1), z_max_sorted, bounds.lambda_max
        )
        u_next = total / (alpha * state.k_ch)
    if state.k_dis >= 1 and state.i_next <= state.k_dis:
        total = _reference_timedep_side(
            state.activated_dis, state.k_dis - (state.i_next - 1), z_min_sorted, bounds.lambda_min
        )
        l_next = omega * total / state.k_dis
    return u_next, l_next


def reference_slot(bounds, t):
    """(lower, upper) bound for absolute slot t."""
    off = t - bounds.t_start
    if off < 0 or off >= len(bounds.per_slot_min):
        raise ValueError(f"slot {t} outside bound coverage")
    return bounds.per_slot_min[off], bounds.per_slot_max[off]


def reference_feasible_bounds(params, bounds, t, e, side):
    """Bounds of the slots t..horizon that admit one ``side`` action on some feasible path.

    One ``reference_slot()`` call per slot, sorted like ``remaining``:
    charge-side upper bounds descending, discharge-side lower bounds ascending.
    """
    down = params.max_discharges(e)
    up = params.max_charges(e)
    if side == CHARGE:
        feas_upper = [
            reference_slot(bounds, tau)[1]
            for tau in range(t, params.horizon + 1)
            if up + min(tau - t, down) >= 1
        ]
        feas_upper.sort(reverse=True)
        return feas_upper
    feas_lower = [
        reference_slot(bounds, tau)[0]
        for tau in range(t, params.horizon + 1)
        if down + min(tau - t, up) >= 1
    ]
    feas_lower.sort()
    return feas_lower


def reference_feasibility_aware_thresholds(state, params, bounds, alpha, omega):
    """Feasibility thresholds over the filtered, per-step sorted bound lists.

    Oracle for :func:`socarb.thresholds.feasibility_aware_thresholds`, read off
    a ``HistoryState``.
    """
    t, e = state.t, state.e
    slots_left = params.horizon - t + 1
    down = params.max_discharges(e)
    up = params.max_charges(e)

    u_next = None
    l_next = None

    if state.k_ch >= 1 and state.j_next <= state.k_ch:
        k_rem = min(state.k_ch - (state.j_next - 1), up, max(slots_left, 0))
        if k_rem >= 1:
            feas_upper = reference_feasible_bounds(params, bounds, t, e, CHARGE)
            if len(feas_upper) < k_rem:
                raise ValueError("insufficient feasible bound entries on charge side")
            activated = activated_sum(v for v, _ in state.activated_ch)
            total = activated + activated_sum(feas_upper[:k_rem])
            u_next = total / (alpha * k_rem)

    if state.k_dis >= 1 and state.i_next <= state.k_dis:
        k_rem = min(state.k_dis - (state.i_next - 1), down, max(slots_left, 0))
        if k_rem >= 1:
            feas_lower = reference_feasible_bounds(params, bounds, t, e, DISCHARGE)
            if len(feas_lower) < k_rem:
                raise ValueError("insufficient feasible bound entries on discharge side")
            activated = activated_sum(v for v, _ in state.activated_dis)
            total = activated + activated_sum(feas_lower[:k_rem])
            l_next = omega * total / k_rem
    return u_next, l_next


def reference_run_policy(
    day, params, k_ch, k_dis, threshold_mode, bounds, alpha=None, omega=None
) -> Trajectory:
    """One day of the online policy, re-solving ratios and schedule per call.

    Oracle for :func:`socarb.thresholds.run_policy` and the batch executor
    behind :func:`socarb.thresholds.policy_outcomes`: it carries a full
    ``HistoryState`` through every step and takes the timedep and feasibility
    thresholds from the references above, which sort the bounds at every step.
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
        if threshold_mode == "static":
            u = schedule.charge[state.j_next - 1] if state.j_next <= state.k_ch else None
            l = schedule.discharge[state.i_next - 1] if state.i_next <= state.k_dis else None
        elif threshold_mode == "timedep":
            u, l = reference_timedep_thresholds(state, bounds, alpha, omega)
        elif threshold_mode == "feasibility":
            u, l = reference_feasibility_aware_thresholds(state, params, bounds, alpha, omega)
        else:
            raise ValueError(f"unknown threshold mode {threshold_mode!r}")
        action, state = reference_step_policy(state, params, lam, u, l)
        actions.append(action)
        soc.append(state.e)
        cash.append(-action * lam * params.rate)
    return Trajectory(tuple(actions), tuple(soc), tuple(cash), math.fsum(cash))


def reference_lanes(days, params_list, budgets, threshold_mode, bounds):
    """A :func:`reference_run_policy` trajectory per (battery, budget pair, day) lane, nested."""
    return [
        [
            [reference_run_policy(day, params, k_ch, k_dis, threshold_mode, bounds) for day in days]
            for k_ch, k_dis in budgets
        ]
        for params in params_list
    ]


def reference_policy_outcomes(days, params_list, budgets, threshold_mode, bounds):
    """Profit and terminal SoC of every (battery, budget pair, day), one lane at a time.

    Oracle for :func:`socarb.thresholds.policy_outcomes`, from
    :func:`reference_lanes`.
    """
    shape = (len(params_list), len(budgets), len(days))
    lanes = reference_lanes(days, params_list, budgets, threshold_mode, bounds)
    profit = np.array([[[traj.profit for traj in row] for row in rows] for rows in lanes])
    return profit.reshape(shape), reference_terminal_soc(lanes).reshape(shape)


def reference_run_lanes(days, params_list, budgets, threshold_mode, bounds):
    """Terminal SoC and per-step moves (-action) of every lane, one lane at a time.

    Oracle for the batch executor ``socarb.thresholds._run_lanes``, from
    :func:`reference_lanes`: the moves carry the step axis first.
    """
    shape = (len(params_list), len(budgets), len(days))
    lanes = reference_lanes(days, params_list, budgets, threshold_mode, bounds)
    actions = np.array([[[traj.actions for traj in row] for row in rows] for rows in lanes])
    moves = -actions.reshape(shape + (days.prices.shape[1],)).astype(np.int8)
    return reference_terminal_soc(lanes).reshape(shape), np.moveaxis(moves, -1, 0)


def reference_terminal_soc(lanes):
    return np.array([[[traj.soc_path[-1] for traj in row] for row in rows] for rows in lanes])


def reference_run_with_discharge_reduction(
    day, params, k_dis, t_bar, k_bar, bounds
) -> TwoStageResult:
    """Two hand-written stage loops that carry a ``HistoryState`` through every step.

    Oracle for :func:`socarb.thresholds.run_with_discharge_reduction`.  A strict
    reduction restarts the sell side as a fresh search with budget k_bar minus
    the sales already executed.
    """
    if not 1 <= t_bar <= params.horizon:
        raise ValueError("t_bar outside horizon")
    omega = competitive_ratio(bounds.lambda_min, bounds.lambda_max, k_dis, "max-search")
    schedule = static_discharge_thresholds(bounds.lambda_min, omega, k_dis)
    state = initial_state(params, 0, k_dis)
    actions: list[int] = []
    cash: list[float] = []
    soc = [params.e0]
    for t in range(1, t_bar):
        lam = day.values[t - 1]
        l = schedule[state.i_next - 1] if state.i_next <= state.k_dis else None
        action, state = reference_step_policy(state, params, lam, None, l)
        actions.append(action)
        soc.append(state.e)
        cash.append(-action * lam * params.rate)
    stage1_revenue = math.fsum(cash)
    executed = state.i_next - 1

    if k_bar > k_dis:
        raise ValueError(f"k_bar={k_bar} exceeds the budget k_dis={k_dis}")
    if k_bar < executed:
        raise ValueError(f"k_bar={k_bar} below {executed} already-executed sales")
    if k_bar == k_dis:
        # identity reduction: the original search continues untouched
        k_rem = k_dis - executed
        omega2 = omega
        schedule2 = schedule
    else:
        k_rem = k_bar - executed
        state = replace(state, k_dis=k_rem, i_next=1, activated_dis=())
        _, omega2 = search_ratios(bounds, 0, k_rem)
        schedule2 = (
            static_discharge_thresholds(bounds.lambda_min, omega2, k_rem) if k_rem >= 1 else []
        )
    for t in range(t_bar, params.horizon + 1):
        lam = day.values[t - 1]
        l = schedule2[state.i_next - 1] if state.i_next <= state.k_dis else None
        action, state = reference_step_policy(state, params, lam, None, l)
        actions.append(action)
        soc.append(state.e)
        cash.append(-action * lam * params.rate)

    stage2_executed = state.i_next - 1 - (executed if k_bar == k_dis else 0)
    traj = Trajectory(tuple(actions), tuple(soc), tuple(cash), math.fsum(cash))
    revenue = traj.profit + (k_rem - stage2_executed) * bounds.lambda_min * params.rate

    remaining = sorted(day.values[t_bar - 1 :], reverse=True)[:k_rem]
    bench_stage2 = (
        math.fsum(remaining) + max(0, k_rem - len(remaining)) * bounds.lambda_min
    ) * params.rate
    benchmark = stage1_revenue + bench_stage2
    return TwoStageResult(
        trajectory=traj,
        revenue=revenue,
        benchmark=benchmark,
        stage2_ratio=omega2,
        stage1_revenue=stage1_revenue,
        executed_stage1=executed,
        k_rem=k_rem,
    )


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


def reference_synthetic_day_matrix(n_days: int, horizon: int, seed: int) -> list[DayPrices]:
    """``backtest.synthetic_day_matrix`` as a loop: one noise draw and one day per step."""
    mu, sigma, amplitude = math.log(30.0), 0.35, 0.5
    rng = np.random.default_rng(seed)
    hours = np.arange(horizon)
    level = mu + amplitude * np.sin(2.0 * math.pi * (hours - 4.0) / max(horizon, 2))
    days = []
    for d in range(n_days):
        prices = np.exp(level + sigma * rng.standard_normal(horizon))
        days.append(DayPrices(f"synthetic-{d:04d}", tuple(float(p) for p in prices)))
    return days


def pinball_loss(y: float, yhat: float, theta: float) -> float:
    """L_theta(y, yhat) = max(theta*(y - yhat), (theta - 1)*(y - yhat)).

    Oracle for the per-day loss that
    :func:`socarb.conformal.train_quantile_models` averages over its labels.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    diff = y - yhat
    return max(theta * diff, (theta - 1.0) * diff)


def _exact_solve(matrix, rhs):
    """x with matrix @ x == rhs in Fractions, by Gauss–Jordan elimination; None if singular."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    size = len(rows)
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(size):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col] / rows[col][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [row[-1] / row[i] for i, row in enumerate(rows)]


def _pivot_columns(matrix, order):
    """The columns of ``matrix`` in ``order`` that are independent of the ones before, exactly."""
    echelon, kept = [], []
    for col in order:
        vec = [row[col] for row in matrix]
        for lead, basis in echelon:
            if vec[lead] != 0:
                factor = vec[lead] / basis[lead]
                vec = [a - factor * b for a, b in zip(vec, basis)]
        lead = next((i for i, v in enumerate(vec) if v != 0), None)
        if lead is not None:
            echelon.append((lead, vec))
            kept.append(col)
    return kept


def reference_quantile_loss(features, labels, theta, penalty=0.0) -> float:
    """The least summed pinball loss plus ``penalty`` · Σ|slopes|, by enumerating bases.

    Oracle for :func:`socarb.conformal.train_quantile_models`.  Quantile
    regression is a linear program, and some optimum interpolates as many
    rows as the design's rank, on a nonsingular square of the design's
    independent columns (Koenker & Bassett, Econometrica 1978, Theorem
    3.1).  So the least loss over every such set of rows is the optimum.
    The ℓ1 penalty is one more row per slope, penalty · e_j with label 0
    and cost |residual|, and the same holds with those rows.  Every step is
    exact, in Fractions of the float inputs, so the one rounding is the
    final float.  The design is the features and an intercept column; with
    fewer rows than features plus one it is the intercept alone, as the
    solver's rule has it.  Exponential in the row count: for n ≤ 10 and
    d ≤ 2.
    """
    x = np.asarray(features, dtype=float)
    n, d = x.shape
    design = [[Fraction(v) for v in row] + [Fraction(1)] for row in x.tolist()]
    cols = [d] if n < d + 1 else _pivot_columns(design, [d, *range(d)])
    design = [[row[c] for c in cols] for row in design]
    y = [Fraction(v) for v in np.asarray(labels, dtype=float).tolist()]
    th = Fraction(theta)
    # a row costs up per unit of positive residual and down per unit of negative
    up, down = [th] * n, [1 - th] * n
    slopes = len(cols) - 1
    if penalty and slopes:
        lam = Fraction(penalty)
        slope_cols = [i for i, c in enumerate(cols) if c != d]
        design += [[lam * (i == j) for i in range(len(cols))] for j in slope_cols]
        y += [Fraction(0)] * slopes
        up += [Fraction(1)] * slopes
        down += [Fraction(1)] * slopes
    # a fit in floats loses at least the optimum, up to rounding, so a basis
    # whose float fit loses far more than the least of them is not solved
    # exactly
    bases = np.array(list(itertools.combinations(range(len(design)), len(cols))))
    floats, targets = np.array(design, dtype=float), np.array(y, dtype=float)
    fits = np.linalg.pinv(floats[bases]) @ targets[bases][:, :, None]
    resid = targets - (floats @ fits)[:, :, 0]
    costs = np.array(up, dtype=float), -np.array(down, dtype=float)
    approx = np.sum(np.maximum(costs[0] * resid, costs[1] * resid), axis=1)
    best = None
    for rows in bases[approx <= approx.min() + 1e-3 * (1.0 + approx.min())].tolist():
        beta = _exact_solve([design[i] for i in rows], [y[i] for i in rows])
        if beta is None:
            continue
        loss = 0
        for yy, row, u, v in zip(y, design, up, down):
            r = yy - sum(a * b for a, b in zip(row, beta))
            loss += r * u if r > 0 else -r * v
        best = loss if best is None else min(best, loss)
    return float(best)


def crossover_intercepts(labels, thetas) -> np.ndarray:
    """The intercepts that the interior point and the crossover give intercept-only LPs.

    Oracle for the closed form of :func:`socarb.conformal.train_quantile_models`:
    :func:`socarb.conformal._frisch_newton` for ``EPOCHS`` iterations and then
    :func:`socarb.conformal._crossover`, on the ones column of row i of
    ``labels`` (k, n) at level ``thetas[i]``.
    """
    y = np.asarray(labels, dtype=float)
    up = np.repeat(np.asarray(thetas, dtype=float)[:, None], y.shape[1], axis=1)
    down = 1.0 - up
    x1 = np.ones((y.shape[1], 1))
    interior = conformal._frisch_newton(x1, y, up, down, conformal.EPOCHS)
    return conformal._crossover(x1, y, up, down, interior)[:, 0]


def reference_predict_interval(model, features):
    """One day's conformal interval (lo, hi), predicted on its own.

    Oracle for :func:`socarb.conformal.predict_intervals`: the scaled day as
    a one-row matrix, crossed quantiles swapped, then widened by delta_hat.
    """
    x = model.scaler.transform(features)
    low, high = np.array(model.low_weights), np.array(model.high_weights)
    lo = float((x @ low[:-1] + low[-1])[0])
    hi = float((x @ high[:-1] + high[-1])[0])
    if lo > hi:
        lo, hi = hi, lo
    return lo - model.delta_hat, hi + model.delta_hat


def reference_evaluate_coverage(model, features, labels, band=None):
    """Coverage of labelled days, one interval per day in a Python loop.

    Oracle for :func:`socarb.conformal.evaluate_coverage`, which takes the
    same arguments: one battery's test days as
    :func:`socarb.conformal.label_days` labels them.
    """
    covered = 0
    certified = 0
    widths = []
    for feats, y in zip(features, labels):
        lo, hi = reference_predict_interval(model, feats)
        widths.append(hi - lo)
        if lo - 1e-12 <= y <= hi + 1e-12:
            covered += 1
        if band is not None and band.contains(lo) and band.contains(hi):
            certified += 1
    n = len(labels)
    return CoverageReport(
        marginal_coverage=covered / n,
        band_certificate_rate=(certified / n) if band is not None else 0.0,
        mean_interval_width=float(np.mean(widths)),
        n_test=n,
    )
