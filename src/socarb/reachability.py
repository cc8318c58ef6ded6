"""Exact state-of-charge distributions under the threshold policy.

Converts thresholds plus a price distribution into per-step action
probabilities, forward-propagates the SoC probability mass with pruning
(capacity-infeasible action mass folds into the idle branch), evaluates the
terminal-band chance constraint, computes minimum stopping times, counts
feasible trajectories, and forms the budget-pair pre-policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import thresholds as th
from .market_data import PriceBounds, PriceDistribution
from .thresholds import BatteryParams, run_policy_days

MASS_TOL = 1e-12
BAND_EPS = 1e-9


@dataclass(frozen=True)
class ActionProbs:
    """Per-step probabilities of charging, discharging, and idling."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name, p in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not -MASS_TOL <= p <= 1.0 + MASS_TOL:
                raise ValueError(f"{name}={p} outside [0, 1]")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-12:
            raise ValueError("action probabilities must sum to 1")


@dataclass(frozen=True)
class TargetBand:
    """Terminal SoC band [e_target - delta, e_target + delta]."""

    e_target: float
    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be non-negative")

    @classmethod
    def from_interval(cls, lo: float, hi: float) -> "TargetBand":
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"band edges must be finite, got {lo!r}, {hi!r}")
        if hi < lo:
            raise ValueError("band upper edge below lower edge")
        return cls(0.5 * (lo + hi), 0.5 * (hi - lo))

    @property
    def lo(self) -> float:
        return self.e_target - self.delta

    @property
    def hi(self) -> float:
        return self.e_target + self.delta

    def contains(self, e: float) -> bool:
        return self.lo - BAND_EPS <= e <= self.hi + BAND_EPS

    def count_bounds(self, e0: float, rate: float) -> tuple[float, float]:
        """Bounds on net charges minus discharges that land in the band."""
        return (self.lo - e0) / rate, (self.hi - e0) / rate


@dataclass(frozen=True)
class SocDistribution:
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

    @property
    def grid(self) -> tuple[float, ...]:
        lo = -self.params.max_discharges(self.params.e0)
        hi = self.params.max_charges(self.params.e0)
        return tuple(self.energy(m) for m in range(lo, hi + 1))

    def marginal(self, t: int) -> dict[float, float]:
        """dist_t[e]: probability mass per SoC value at step t."""
        out: dict[float, float] = {}
        for key, mass in self.per_step[t].items():
            m = key if self.mode == "marginal" else key[0]
            e = self.energy(m)
            out[e] = out.get(e, 0.0) + mass
        return out

    def terminal_marginal(self) -> dict[float, float]:
        return self.marginal(self.horizon)


@dataclass(frozen=True)
class StoppingResult:
    """Stopping-time analysis output.

    ``q_table[(t, e)]`` is the success probability from state (t, e) under the
    chosen post-stop behavior; ``big_q[t-1]`` aggregates it against dist_t;
    ``tau_star`` is the first step whose aggregate clears 1 - epsilon, if any.
    """

    q_table: dict[tuple[int, float], float]
    big_q: tuple[float, ...]
    tau_star: int | None
    epsilon: float
    post_stop_mode: str


@dataclass(frozen=True)
class KappaPolicy:
    """Probability weights over candidate (k_ch, k_dis) budget pairs."""

    weights: dict[tuple[int, int], float]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("kappa policy needs at least one pair")
        if any(w < -MASS_TOL for w in self.weights.values()):
            raise ValueError("kappa weights must be non-negative")
        if abs(sum(self.weights.values()) - 1.0) > 1e-12:
            raise ValueError("kappa weights must sum to 1")


def action_probabilities(u: float | None, l: float | None, cdf) -> ActionProbs:
    """Charge/discharge/idle probabilities induced by thresholds under F_t.

    Charge fires when the price falls to u or below, discharge when it rises
    to l or above (inclusive at equality, matching the policy); an inactive
    side contributes zero.
    """
    if u is not None and l is not None and u >= l:
        raise ValueError(f"active thresholds must satisfy u < l (got u={u}, l={l})")
    alpha = float(cdf.prob_le(u)) if u is not None else 0.0
    beta = float(cdf.prob_ge(l)) if l is not None else 0.0
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0 or alpha + beta > 1.0 + 1e-12:
        raise ValueError(f"malformed CDF: alpha={alpha}, beta={beta}")
    return ActionProbs(alpha, beta, max(0.0, 1.0 - alpha - beta))


def policy_action_probabilities(
    params: BatteryParams,
    dist: PriceDistribution,
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    threshold_mode: str = "static",
    alpha: float | None = None,
    omega: float | None = None,
) -> list[ActionProbs]:
    """Per-step action probabilities along the expected activation order.

    Thresholds advance when their side's cumulative firing probability mass
    reaches the next unit, approximating the path-dependent threshold index by
    its expected progression.
    """
    if dist.horizon != params.horizon:
        raise ValueError("distribution horizon must match params.horizon")
    alpha, omega = th.search_ratios(bounds, k_ch, k_dis, alpha, omega)
    schedule = th.build_schedule(bounds, k_ch, k_dis, alpha, omega)
    probs = []
    ch_mass = 0.0
    dis_mass = 0.0
    activated_ch: list[tuple[float, int]] = []
    activated_dis: list[tuple[float, int]] = []
    for t in range(1, params.horizon + 1):
        e_expected = min(
            max(params.e0 + (ch_mass - dis_mass) * params.rate, params.e_min), params.e_max
        )
        state = th.PolicyState(
            t=t,
            e=e_expected,
            j_next=len(activated_ch) + 1,
            i_next=len(activated_dis) + 1,
            k_ch=k_ch,
            k_dis=k_dis,
            activated_ch=tuple(activated_ch),
            activated_dis=tuple(activated_dis),
        )
        u, l = th._thresholds_for(
            state, params, threshold_mode, bounds, schedule, alpha, omega
        )
        cdf = dist.cdf(t)
        if u is not None and l is not None and u >= l:
            # overlapping books (normal for k >= 2 ratio-derived schedules):
            # charge wins at or below u, so discharge fires strictly above u
            a = float(cdf.prob_le(u))
            ap = ActionProbs(a, 1.0 - a, 0.0)
        else:
            ap = action_probabilities(u, l, cdf)
        probs.append(ap)
        # advance a side once its cumulative firing mass clears the next whole
        # unit, recording the threshold value it would have activated at
        if u is not None and ch_mass + ap.alpha >= len(activated_ch) + 1:
            activated_ch.append((u, t))
        if l is not None and dis_mass + ap.beta >= len(activated_dis) + 1:
            activated_dis.append((l, t))
        ch_mass = min(ch_mass + ap.alpha, float(k_ch))
        dis_mass = min(dis_mass + ap.beta, float(k_dis))
    return probs


def propagate(
    params: BatteryParams,
    probs_per_step: list[ActionProbs],
    k_ch: int,
    k_dis: int,
    mode: str = "augmented",
) -> SocDistribution:
    """Forward-propagate the SoC probability mass with pruning.

    Whenever an action would leave capacity (or, in augmented mode, exceed its
    budget), its probability mass folds into the idle branch.  Mass is
    conserved exactly at every step.
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
    return SocDistribution(params, k_ch, k_dis, mode, tuple(steps))


def terminal_band_probability(dist: SocDistribution, band: TargetBand) -> float:
    """Probability that the terminal SoC lands inside the band, clamped to [0, 1]."""
    p = math.fsum(mass for e, mass in dist.terminal_marginal().items() if band.contains(e))
    return min(1.0, max(0.0, p))


def mix_over_kappa(results: dict[tuple[int, int], float], kappa: KappaPolicy) -> float:
    """Probability of the band under the budget-pair pre-policy mixture."""
    if set(results) != set(kappa.weights):
        raise ValueError("kappa weights must cover exactly the result keys")
    return math.fsum(kappa.weights[k] * results[k] for k in results)


def kappa_prepolicy(
    pairs: list[tuple[int, int]],
    params: BatteryParams,
    bounds: PriceBounds,
    dist: PriceDistribution,
    n_sims: int = 200,
    seed: int = 0,
    threshold_mode: str = "static",
) -> KappaPolicy:
    """Uniform pre-policy over budget pairs with positive expected profit.

    Expected profit per pair is estimated by simulating the policy on days
    sampled from the price distribution; unprofitable pairs are discarded and
    the survivors share weight equally.  If none survive, all weight collapses
    onto the all-idle pair (0, 0).
    """
    if not pairs:
        raise ValueError("kappa_prepolicy needs at least one candidate pair")
    if n_sims < 1:
        raise ValueError("n_sims must be at least 1")
    rng = np.random.default_rng(seed)
    sim_days = [dist.sample_day(rng, day_id=f"sim{i}") for i in range(n_sims)]
    survivors = []
    for k_ch, k_dis in pairs:
        trajs = run_policy_days(sim_days, params, k_ch, k_dis, threshold_mode, bounds)
        total = sum(traj.profit for traj in trajs)
        if total / n_sims > 0.0:
            survivors.append((k_ch, k_dis))
    if not survivors:
        return KappaPolicy({(0, 0): 1.0})
    w = 1.0 / len(survivors)
    return KappaPolicy({pair: w for pair in survivors})


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


def stopping_time(
    params: BatteryParams,
    probs_per_step: list[ActionProbs],
    band: TargetBand,
    epsilon: float,
    post_stop_mode: str = "full-control",
) -> StoppingResult:
    """Minimum stopping time for the terminal-band chance constraint.

    q_t(e) is the probability of finishing in the band given e_t = e under the
    post-stop behavior: ``idle`` holds the SoC, ``full-control`` asks whether
    any feasible action sequence reaches the band, and ``continue-policy``
    keeps following the action probabilities.  Q_t sums dist_t[e] * q_t(e);
    tau_star is the first t with Q_t >= 1 - epsilon (None if never).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if post_stop_mode not in ("idle", "full-control", "continue-policy"):
        raise ValueError(f"unknown post-stop mode {post_stop_mode!r}")
    horizon = len(probs_per_step)
    dist = propagate(params, probs_per_step, k_ch=horizon, k_dis=horizon, mode="marginal")
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
    return StoppingResult(q_table, tuple(big_q), tau_star, epsilon, post_stop_mode)


def count_feasible_trajectories(
    params: BatteryParams, steps: int, band: TargetBand
) -> tuple[int, int, float]:
    """Exact counts of feasible action sequences and those ending in the band.

    Counting DP over the SoC lattice: all 3^n action sequences whose every
    intermediate state respects capacity.  Returns (in_band, total, percent).
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
