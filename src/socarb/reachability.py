"""Exact state-of-charge distributions under the threshold policy.

Converts thresholds plus a price distribution into per-step action
probabilities, forward-propagates the SoC probability mass with pruning
(capacity-infeasible action mass folds into the idle branch), evaluates the
terminal-band chance constraint, computes minimum stopping times, counts
feasible trajectories, and forms the budget-pair pre-policy.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

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

    def contains(self, e):
        """Whether e lies in the band; elementwise when e is an array."""
        return (self.lo - BAND_EPS <= e) & (e <= self.hi + BAND_EPS)

    def count_bounds(self, e0: float, rate: float) -> tuple[float, float]:
        """Bounds on net charges minus discharges that land in the band."""
        return (self.lo - e0) / rate, (self.hi - e0) / rate


class StepMasses(Mapping):
    """One step's positive masses keyed by state: (m, n_ch, n_dis) or bare m.

    A read-only view of the step's array.  ``len`` counts the positive
    entries; the dict behind lookups and iteration is built on first use.
    """

    def __init__(self, masses: np.ndarray, m_first: int):
        self._masses = masses
        self._m_first = m_first  # m of index 0 in marginal mode
        self._dict: dict | None = None

    def _states(self) -> dict:
        if self._dict is None:
            index = np.nonzero(self._masses > 0.0)
            values = self._masses[index].tolist()
            if self._masses.ndim == 2:
                keys = [(c - d, c, d) for c, d in zip(*(i.tolist() for i in index))]
            else:
                keys = [self._m_first + i for i in index[0].tolist()]
            self._dict = dict(zip(keys, values))
        return self._dict

    def __getitem__(self, key):
        return self._states()[key]

    def __iter__(self):
        return iter(self._states())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._masses > 0.0))


@dataclass(frozen=True)
class SocDistribution:
    """Probability mass over the SoC lattice e = e0 + m * rate, one array per step.

    ``masses[t]`` holds step t; step 0 is the deterministic initial state.  In
    augmented mode a step is a dense (n_ch, n_dis) array of shape
    (min(k_ch, T)+1, min(k_dis, T)+1): every reachable state has
    m = n_ch - n_dis, so m needs no axis of its own.  In marginal mode a step
    is a vector over m = m_lo .. m_hi.

    ``m_masses[t]`` is step t's mass per SoC offset m = m_lo .. m_hi,
    ``per_step[t]`` maps state keys, (m, n_ch, n_dis) or bare m, to their
    positive masses, and ``marginal(t)`` maps SoC values to mass; all are
    derived from the arrays when first read.
    """

    params: BatteryParams
    k_ch: int
    k_dis: int
    mode: str
    masses: np.ndarray = field(repr=False, compare=False)

    @property
    def horizon(self) -> int:
        return len(self.masses) - 1

    @property
    def grid(self) -> tuple[float, ...]:
        lo = -self.params.max_discharges(self.params.e0)
        hi = self.params.max_charges(self.params.e0)
        return tuple(self.params.e0 + m * self.params.rate for m in range(lo, hi + 1))

    @cached_property
    def per_step(self) -> tuple[StepMasses, ...]:
        m_first = -self.params.max_discharges(self.params.e0)
        return tuple(StepMasses(step, m_first) for step in self.masses)

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Per lattice point: its column in m_masses (0 outside capacity), and if in capacity."""
        m_lo = -self.params.max_discharges(self.params.e0)
        n = self.params.max_charges(self.params.e0) - m_lo + 1
        if self.mode == "marginal":
            return np.arange(n), np.ones(n, dtype=bool)
        c, d = np.indices(self.masses.shape[1:])
        column = c - d - m_lo
        inside = (0 <= column) & (column < n)
        return np.where(inside, column, 0), inside

    @cached_property
    def m_masses(self) -> np.ndarray:
        """(T+1, n) mass per SoC offset; the (n_ch, n_dis) diagonal sums in augmented mode."""
        column, inside = self._columns()
        steps, n = len(self.masses), len(self.grid)
        bins = (np.arange(steps)[:, None] * n + column[inside]).ravel()
        sums = np.bincount(bins, self.masses[:, inside].ravel(), minlength=steps * n)
        return sums.reshape(steps, n)

    def marginal(self, t: int) -> dict[float, float]:
        """dist_t[e]: probability mass per SoC value at step t."""
        return {e: mass for e, mass in zip(self.grid, self.m_masses[t].tolist()) if mass > 0.0}

    def terminal_marginal(self) -> dict[float, float]:
        return self.marginal(self.horizon)


@dataclass(frozen=True)
class StoppingResult:
    """Stopping-time analysis output.

    ``q_table[t - 1]`` has the shape of the distribution's ``masses[t]``: the
    success probability from each lattice point at step t under the chosen
    post-stop behavior, 0 where the point lies outside capacity.
    ``big_q[t-1]`` aggregates it against dist_t; ``tau_star`` is the first
    step whose aggregate clears 1 - epsilon, if any.
    """

    q_table: np.ndarray = field(repr=False, compare=False)
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
    if k_ch < 0 or k_dis < 0:
        raise ValueError("budgets must be non-negative")
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


def _chain(
    params: BatteryParams, probs_per_step: list[ActionProbs], k_ch: int, k_dis: int, mode: str
):
    """The chain that propagate steps forward and stopping_time backward.

    Returns the start index, the per-step idle weights (blocked moves folded
    in) and the moves (weight, from, to): discharge, then charge.
    """
    if mode not in ("augmented", "marginal"):
        raise ValueError(f"unknown propagation mode {mode!r}")
    if k_ch < 0 or k_dis < 0:
        raise ValueError("budgets must be non-negative")
    horizon = len(probs_per_step)
    m_lo = -params.max_discharges(params.e0)
    m_hi = params.max_charges(params.e0)
    if mode == "augmented":
        c, d = np.indices((min(k_ch, horizon) + 1, min(k_dis, horizon) + 1))
        up_ok = (c - d + 1 <= m_hi) & (c < k_ch)
        down_ok = (c - d - 1 >= m_lo) & (d < k_dis)
        start = (0, 0)
        # charge moves along n_ch, discharge along n_dis
        up_from, up_to = np.index_exp[:-1, :], np.index_exp[1:, :]
        down_from, down_to = np.index_exp[:, :-1], np.index_exp[:, 1:]
    else:
        m = np.arange(m_lo, m_hi + 1)
        up_ok = m + 1 <= m_hi
        down_ok = m - 1 >= m_lo
        start = (-m_lo,)
        up_from, up_to = np.index_exp[:-1], np.index_exp[1:]
        down_from, down_to = np.index_exp[1:], np.index_exp[:-1]

    # per-step probabilities broadcast against the lattice: (T, 1, 1) or (T, 1)
    shape = (horizon,) + (1,) * up_ok.ndim
    alpha, beta, gamma = (
        np.array([getattr(ap, name) for ap in probs_per_step], dtype=float).reshape(shape)
        for name in ("alpha", "beta", "gamma")
    )
    stay = (gamma + alpha * ~up_ok) + beta * ~down_ok
    moves = (
        ((beta * down_ok)[(slice(None),) + down_from], down_from, down_to),
        ((alpha * up_ok)[(slice(None),) + up_from], up_from, up_to),
    )
    return start, stay, moves


def propagate(
    params: BatteryParams,
    probs_per_step: list[ActionProbs],
    k_ch: int,
    k_dis: int,
    mode: str = "augmented",
) -> SocDistribution:
    """Forward-propagate the SoC probability mass with pruning.

    Whenever an action would leave capacity (or, in augmented mode, exceed its
    budget), its probability mass folds into the idle branch.  Each step is a
    few whole-array operations on the (n_ch, n_dis) lattice (augmented) or the
    m vector (marginal): stay + shifted down + shifted up, with idle mass
    (gamma + alpha * [up blocked]) + beta * [down blocked].
    """
    start, stay, moves = _chain(params, probs_per_step, k_ch, k_dis, mode)
    masses = np.zeros((len(probs_per_step) + 1,) + stay.shape[1:])
    masses[(0,) + start] = 1.0
    for t, (cur, nxt) in enumerate(zip(masses, masses[1:])):
        np.multiply(cur, stay[t], out=nxt)
        for weight, src, dst in moves:
            nxt[dst] += cur[src] * weight[t]
    return SocDistribution(params, k_ch, k_dis, mode, masses)


def _probabilities(rows: np.ndarray) -> tuple[float, ...]:
    """Exactly rounded sum of each row, clamped to [0, 1]."""
    return tuple(min(1.0, max(0.0, math.fsum(row.ravel().tolist()))) for row in rows)


def terminal_band_probability(dist: SocDistribution, band: TargetBand) -> float:
    """Probability that the terminal SoC lands inside the band, clamped to [0, 1]."""
    return _probabilities(dist.m_masses[-1:] * band.contains(np.array(dist.grid)))[0]


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


def stopping_time(
    soc_dist: SocDistribution,
    probs_per_step: list[ActionProbs],
    band: TargetBand,
    epsilon: float,
    post_stop_mode: str = "full-control",
) -> StoppingResult:
    """Minimum stopping time for the terminal-band chance constraint.

    ``soc_dist`` is what ``propagate`` built from ``probs_per_step``: the one
    distribution, budgets included, that ``terminal_band_probability`` reads.
    q_t is the chance of finishing in the band from each state at step t:
    ``idle`` holds the SoC (so idle Q_T is p_band), ``full-control`` asks
    whether any feasible action sequence reaches the band, budget-free as the
    operator takes over after the stop, and ``continue-policy`` runs the
    adjoint of soc_dist's own chain (so every Q_t is p_band).  Q_t sums
    dist_t * q_t; tau_star is the first t with Q_t >= 1 - epsilon, or None.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if post_stop_mode not in ("idle", "full-control", "continue-policy"):
        raise ValueError(f"unknown post-stop mode {post_stop_mode!r}")
    horizon = soc_dist.horizon
    if len(probs_per_step) != horizon:
        raise ValueError(f"{len(probs_per_step)} action steps for a {horizon}-step distribution")
    params = soc_dist.params
    e = np.array(soc_dist.grid)
    column, inside = soc_dist._columns()

    if post_stop_mode == "continue-policy":
        # the adjoint of propagate's chain, backward; row t - 1 holds q_t
        _, stay, moves = _chain(
            params, probs_per_step, soc_dist.k_ch, soc_dist.k_dis, soc_dist.mode
        )
        q = np.empty((horizon,) + column.shape)
        q[-1:] = band.contains(e)[column]  # no rows when there are no steps
        for t in range(horizon - 1, 0, -1):
            nxt, cur = q[t], q[t - 1]  # weights t: the action between step t and t+1
            np.multiply(stay[t], nxt, out=cur)
            # charge term first, as in the dict recursion of tests/oracles.py, so q matches it
            # bit for bit
            for weight, src, dst in reversed(moves):
                cur[src] += weight[t] * nxt[dst]
        q *= inside
        big_q = _probabilities(soc_dist.masses[1:] * q)
    else:
        if post_stop_mode == "idle":
            q_m = np.tile(band.contains(e), (horizon, 1))
        else:
            # some feasible action sequence from e with steps_left = T - t
            # steps lands in the band
            lo, hi, rate = band.lo, band.hi, params.rate
            steps_left = np.arange(horizon - 1, -1, -1)[:, None]
            down = np.maximum(0, np.floor((e - params.e_min) / rate + th.FEAS_EPS))
            up = np.maximum(0, np.floor((params.e_max - e) / rate + th.FEAS_EPS))
            lo_needed = np.ceil((lo - e) / rate - BAND_EPS)
            hi_allowed = np.floor((hi - e) / rate + BAND_EPS)
            q_m = np.maximum(-np.minimum(down, steps_left), lo_needed) <= np.minimum(
                np.minimum(up, steps_left), hi_allowed
            )
        big_q = _probabilities(soc_dist.m_masses[1:] * q_m)
        q = q_m[:, column] & inside
    tau_star = next((t for t, q_t in enumerate(big_q, start=1) if q_t >= 1.0 - epsilon), None)
    return StoppingResult(q.astype(float, copy=False), big_q, tau_star, epsilon, post_stop_mode)


def count_feasible_trajectories(
    params: BatteryParams, steps: int, band: TargetBand
) -> tuple[int, int, float]:
    """Exact counts of feasible action sequences and those ending in the band.

    Counting DP over the SoC lattice: all 3^n action sequences whose every
    intermediate state respects capacity.  Returns (in_band, total, percent).
    Counts stay Python ints: they pass 2**63 within 48 steps.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    m_lo = -params.max_discharges(params.e0)
    m_hi = params.max_charges(params.e0)
    counts = [0] * (m_hi - m_lo + 1)
    counts[-m_lo] = 1
    for _ in range(steps):
        # m is reached by charging from m - 1, idling at m or discharging from m + 1
        counts = [a + b + c for a, b, c in zip([0] + counts[:-1], counts, counts[1:] + [0])]
    total = sum(counts)
    in_band = sum(
        n for m, n in enumerate(counts, start=m_lo) if band.contains(params.e0 + m * params.rate)
    )
    return in_band, total, 100.0 * in_band / total
