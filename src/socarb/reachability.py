"""Exact state-of-charge distributions under the threshold policy.

Converts thresholds plus a price distribution into per-step action
probabilities, forward-propagates the SoC probability mass with pruning
(capacity-infeasible action mass folds into the idle branch), evaluates the
terminal-band chance constraint, computes minimum stopping times, and counts
feasible trajectories.

The policy is read from one place each: the books from
:func:`socarb.thresholds.build_schedule`, the decision rule on one step,
overlapping books included, from :func:`action_probabilities`, and the SoC
lattice m_lo..m_hi from :attr:`socarb.thresholds.BatteryParams.offsets`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import thresholds as th
from .market_data import PriceBounds, PriceDistribution
from .thresholds import BatteryParams

MASS_TOL = 1e-12
BAND_EPS = 1e-9

POST_STOP_MODES = ("idle", "full-control", "continue-policy")


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
        return tuple(self.params.e0 + m * self.params.rate for m in self.params.offsets)

    @cached_property
    def per_step(self) -> tuple[StepMasses, ...]:
        m_first = self.params.offsets[0]
        return tuple(StepMasses(step, m_first) for step in self.masses)

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Per lattice point: its column in m_masses (0 outside capacity), and if in capacity."""
        offsets = self.params.offsets
        m_lo, n = offsets[0], len(offsets)
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


def action_probabilities(u: float | None, l: float | None, cdf) -> ActionProbs:
    """Charge/discharge/idle probabilities of the policy's one-step rule under F_t.

    Charge fires when the price falls to u or below, discharge when it rises
    to l or above (inclusive at equality, matching the policy); an inactive
    side contributes zero.  Charging is checked first, so on overlapping books
    (u >= l, normal for k >= 2 ratio-derived schedules) discharge fires
    strictly above u: alpha = F(u), beta = 1 - alpha and nothing idles.
    """
    alpha = float(cdf.prob_le(u)) if u is not None else 0.0
    if u is not None and l is not None and u >= l:
        return ActionProbs(alpha, 1.0 - alpha, 0.0)
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
) -> list[ActionProbs]:
    """Per-step action probabilities along the expected activation order.

    Thresholds advance when their side's cumulative firing probability mass
    reaches the next unit, approximating the path-dependent threshold index by
    its expected progression.  So this is not the executed policy: on 24-step
    synthetic days (k = 3:3, e0 = 1, 5, 9) the propagated terminal SoC is 0.38,
    0.51 and 0.95 in Kolmogorov distance from a simulation of run_policy_days
    (ROADMAP item 1).  The schedule and its ratios come from one
    :func:`~socarb.thresholds.build_schedule` call, and the thresholds at
    each step from the executor's :func:`~socarb.thresholds.threshold_rule`.
    """
    schedule = th.build_schedule(bounds, k_ch, k_dis)
    if dist.horizon != params.horizon:
        raise ValueError("distribution horizon must match params.horizon")
    rule = th.threshold_rule(threshold_mode, params, bounds, schedule, k_ch, k_dis)
    probs = []
    ch_mass = 0.0
    dis_mass = 0.0
    c = d = 0  # thresholds advanced past on each side
    s_ch = s_dis = 0.0  # and the sums of their values
    for t in range(1, params.horizon + 1):
        e_expected = min(
            max(params.e0 + (ch_mass - dis_mass) * params.rate, params.e_min), params.e_max
        )
        u, l = rule(th.PolicyState(t, e_expected, c, d, s_ch, s_dis))
        ap = action_probabilities(u, l, dist.cdf(t))
        probs.append(ap)
        # advance a side once its cumulative firing mass clears the next whole
        # unit, adding the threshold value it would have activated at
        if u is not None and ch_mass + ap.alpha >= c + 1:
            c += 1
            s_ch += u
        if l is not None and dis_mass + ap.beta >= d + 1:
            d += 1
            s_dis += l
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
    offsets = params.offsets
    m_lo, m_hi = offsets[0], offsets[-1]
    if mode == "augmented":
        c, d = np.indices((min(k_ch, horizon) + 1, min(k_dis, horizon) + 1))
        up_ok = (c - d + 1 <= m_hi) & (c < k_ch)
        down_ok = (c - d - 1 >= m_lo) & (d < k_dis)
        start = (0, 0)
        # charge moves along n_ch, discharge along n_dis
        up_from, up_to = np.index_exp[:-1, :], np.index_exp[1:, :]
        down_from, down_to = np.index_exp[:, :-1], np.index_exp[:, 1:]
    else:
        m = np.array(offsets)
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
    if post_stop_mode not in POST_STOP_MODES:
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
            # steps lands in the band; from offset m, m - m_lo discharges and
            # m_hi - m charges fit, the masks _chain applies
            lo, hi, rate = band.lo, band.hi, params.rate
            steps_left = np.arange(horizon - 1, -1, -1)[:, None]
            m = np.array(params.offsets)
            down, up = m - m[0], m[-1] - m
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
    offsets = params.offsets
    counts = [0] * len(offsets)
    counts[-offsets[0]] = 1
    for _ in range(steps):
        # m is reached by charging from m - 1, idling at m or discharging from m + 1
        counts = [a + b + c for a, b, c in zip([0] + counts[:-1], counts, counts[1:] + [0])]
    total = sum(counts)
    in_band = sum(
        n for m, n in zip(offsets, counts) if band.contains(params.e0 + m * params.rate)
    )
    return in_band, total, 100.0 * in_band / total
