"""Exact state-of-charge distributions under the threshold policy.

Converts thresholds plus a price distribution into the policy's chain,
forward-propagates the SoC probability mass over the budgeted (n_ch, n_dis)
lattice with pruning (an action that capacity or budget forbids never
fires), evaluates the terminal-band chance constraint, computes minimum
stopping times, and counts feasible trajectories.  A
:class:`SocDistribution` carries the per-step chain it was built from, so
the stopping time reads the same chain the masses came from.  Batteries
that share that chain and their budgets propagate in one batch
(:func:`propagate_lanes`), and one counting DP serves every step count of
a battery (:func:`trajectory_counts`).

The policy is read from one place each: the books from
:func:`socarb.thresholds.build_schedule`, the SoC lattice m_lo..m_hi from
:attr:`socarb.thresholds.BatteryParams.offsets`, and the decision rule on one
step from the executor's own: charge first where the charge is open, else
discharge where the discharge is open, overlapping books included.
:func:`policy_distributions` picks the chain by threshold mode.  Static mode
is a Markov chain on the book index (n_ch, n_dis), which
:func:`static_steps` builds exactly; the timedep and feasibility thresholds
read more of the past, so those modes step
:func:`policy_action_probabilities` along the expected activation order
(:data:`CHAIN_METHODS`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
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
    """Terminal SoC band [lo, hi], its edges stored as given."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"band edges must be finite, got {self.lo!r}, {self.hi!r}")
        if self.hi < self.lo:
            raise ValueError("band upper edge below lower edge")

    @classmethod
    def from_interval(cls, lo: float, hi: float) -> "TargetBand":
        """The band [lo, hi], its edges as floats."""
        return cls(float(lo), float(hi))

    def contains(self, e):
        """Whether e lies in the band; elementwise when e is an array."""
        return (self.lo - BAND_EPS <= e) & (e <= self.hi + BAND_EPS)


class StepMasses(Mapping):
    """One step's positive masses keyed by state (m, n_ch, n_dis).

    A read-only view of the step's array.  ``len`` counts the positive
    entries; the dict behind lookups and iteration is built on first use.
    """

    def __init__(self, masses: np.ndarray):
        self._masses = masses
        self._dict: dict | None = None

    def _states(self) -> dict:
        if self._dict is None:
            index = np.nonzero(self._masses > 0.0)
            keys = [(c - d, c, d) for c, d in zip(*(i.tolist() for i in index))]
            self._dict = dict(zip(keys, self._masses[index].tolist()))
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

    ``probs[t - 1]`` is the chain's step between steps t - 1 and t, action
    probabilities or a :class:`StaticStep`: two distributions are equal when
    their battery, budgets and steps are, as the masses follow from those.
    ``masses[t]`` holds step t; step 0 is the deterministic initial state.  A
    step is a dense (n_ch, n_dis) array of shape
    (min(k_ch, T)+1, min(k_dis, T)+1): every reachable state has
    m = n_ch - n_dis, so m needs no axis of its own.

    ``m_masses[t]`` is step t's mass per SoC offset m = m_lo .. m_hi, the
    sums along the (n_ch, n_dis) diagonals, which :func:`propagate_lanes`
    adds up for all its lanes at once.  ``per_step[t]`` maps state keys
    (m, n_ch, n_dis) to their positive masses, and ``marginal(t)`` maps SoC
    values to mass; both are derived from the arrays when first read.
    ``grid`` holds the SoC value of each offset m_lo .. m_hi; it and the
    float array that the band checks read are made once per distribution.
    """

    params: BatteryParams
    k_ch: int
    k_dis: int
    probs: tuple[ActionProbs, ...] | tuple[StaticStep, ...] = field(repr=False)
    masses: np.ndarray = field(repr=False, compare=False)
    m_masses: np.ndarray = field(repr=False, compare=False)

    @property
    def horizon(self) -> int:
        return len(self.probs)

    @cached_property
    def grid(self) -> tuple[float, ...]:
        return tuple(self.params.e0 + m * self.params.rate for m in self.params.offsets)

    @cached_property
    def _grid_values(self) -> np.ndarray:
        """``grid`` as a read-only float array, made once."""
        values = np.array(self.grid)
        values.flags.writeable = False
        return values

    @cached_property
    def per_step(self) -> tuple[StepMasses, ...]:
        return tuple(StepMasses(step) for step in self.masses)

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Per lattice point: its column in m_masses (0 outside capacity), and if in capacity."""
        return _columns(self.params, self.masses.shape[1:])

    def marginal(self, t: int) -> dict[float, float]:
        """dist_t[e]: probability mass per SoC value at step t."""
        return {e: mass for e, mass in zip(self.grid, self.m_masses[t].tolist()) if mass > 0.0}


def _columns(params: BatteryParams, shape) -> tuple[np.ndarray, np.ndarray]:
    """Per point of an (n_ch, n_dis) lattice: its SoC column (0 outside capacity), and if inside."""
    offsets = params.offsets
    c, d = np.indices(shape)
    column = c - d - offsets[0]
    inside = (0 <= column) & (column < len(offsets))
    return np.where(inside, column, 0), inside


def _probability(row: np.ndarray) -> float:
    """Exactly rounded sum of a row, clamped to [0, 1]."""
    return min(1.0, max(0.0, math.fsum(row.ravel().tolist())))


@dataclass(frozen=True)
class StoppingResult:
    """Stopping-time analysis output.

    ``terms[t - 1]`` holds dist_t * q_t, so its sum is Q_t.  ``tau_star`` is
    the first step whose Q_t clears 1 - epsilon, if any; it is set at
    construction, summing Q_t row by row only up to that first crossing.
    ``big_q[t - 1]`` is Q_t for every step, and ``q_table[t - 1]``, of the
    shape of the distribution's ``masses[t]``, the success probability from
    each lattice point at step t under the chosen post-stop behavior, 0 where
    the point lies outside capacity; ``table`` builds it.  Both are built
    when first read.
    """

    terms: np.ndarray = field(repr=False, compare=False)
    table: Callable[[], np.ndarray] = field(repr=False, compare=False)
    epsilon: float
    post_stop_mode: str
    tau_star: int | None = field(init=False)

    def __post_init__(self):
        crossings = (
            t for t, row in enumerate(self.terms, start=1)
            if _probability(row) >= 1.0 - self.epsilon
        )
        object.__setattr__(self, "tau_star", next(crossings, None))

    @cached_property
    def big_q(self) -> tuple[float, ...]:
        return tuple(map(_probability, self.terms))

    @cached_property
    def q_table(self) -> np.ndarray:
        return self.table()


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


# threshold modes whose rule never reads the SoC, so that every e0 of a battery
# steps the same chain
SOC_FREE_MODES = ("static", "timedep")

# how :func:`policy_distributions` builds each mode's chain, as a report cell states it
CHAIN_METHODS = {"static": "exact", "timedep": "expected-order", "feasibility": "expected-order"}


def policy_action_probabilities(
    params: BatteryParams,
    dist: PriceDistribution,
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    threshold_mode: str,
) -> list[ActionProbs]:
    """Per-step action probabilities of a timedep or feasibility run, in expected activation order.

    Thresholds advance when their side's cumulative firing probability mass
    reaches the next unit, approximating the path-dependent threshold index
    and sums by their expected progression.  So this is not the executed
    policy, and a report cell built from it says ``"method":
    "expected-order"`` (ROADMAP item 2).  Static mode has the policy's own
    chain, :func:`static_steps`, and is refused here.  The schedule and its
    ratios come from one :func:`~socarb.thresholds.build_schedule` call, and
    the thresholds at each step from the executor's
    :func:`~socarb.thresholds.threshold_rule`.
    """
    if threshold_mode == "static":
        raise ValueError("static mode propagates its exact chain: see static_steps")
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


@dataclass(frozen=True, eq=False)
class StaticStep:
    """One step of the static policy's own chain, per book index (n_ch, n_dis).

    Each point of the lattice picks its charge and its discharge chance from
    these two vectors, entry 0 (no move) included.  ``charge[1 + c]`` is
    F_t(U[c]), the chance that the next charge threshold fires.
    ``discharge[1 + d]`` is P_t(lambda >= L[d]), and
    ``discharge[1 + n_dis * (1 + c) + d]`` is min(1 - F_t(U[c]),
    P_t(lambda >= L[d])), the discharge chance where a charge may fire too,
    as the executor checks the charge first.  A spent side (c = k_ch,
    d = k_dis) reads 0.  Steps compare and hash by value.
    """

    charge: np.ndarray
    discharge: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, StaticStep):
            return NotImplemented
        return np.array_equal(self.charge, other.charge) and np.array_equal(
            self.discharge, other.discharge
        )

    def __hash__(self):
        return hash((self.charge.tobytes(), self.discharge.tobytes()))


def static_steps(
    dist: PriceDistribution, bounds: PriceBounds, k_ch: int, k_dis: int
) -> tuple[StaticStep, ...]:
    """The static policy's chain on the (n_ch, n_dis) lattice: one step per hour of ``dist``.

    The static thresholds are the books of one
    :func:`~socarb.thresholds.build_schedule` call at the book index (n_ch,
    n_dis), and :meth:`~socarb.market_data.PriceDistribution.sample_day`
    draws each hour on its own, so the policy is a Markov chain on that
    lattice and this one is exact.  F_t(U[c]) and P_t(lambda >= L[d]) are
    the sample fractions that ``prob_le`` and ``prob_ge`` give, from one
    ``searchsorted`` per hour.  The lattice is the one
    :func:`propagate_lanes` builds for these budgets and this horizon.
    """
    schedule = th.build_schedule(bounds, k_ch, k_dis)
    horizon = dist.horizon
    u = schedule.charge[: horizon + 1]
    l = schedule.discharge[: horizon + 1]
    # the samples below L[d] are those at or below the float just under it
    queries = np.concatenate([u, np.nextafter(l, -np.inf)])
    at_or_below = np.array(
        [cdf.samples.searchsorted(queries, side="right") for cdf in dist.cdfs]
    ).reshape(horizon, len(queries))
    sizes = np.array([[cdf.samples.size] for cdf in dist.cdfs])
    charge = np.zeros((horizon, min(k_ch, horizon) + 2))
    tail = np.zeros((horizon, min(k_dis, horizon) + 1))
    charge[:, 1 : len(u) + 1] = at_or_below[:, : len(u)] / sizes
    tail[:, : len(l)] = (sizes - at_or_below[:, len(u) :]) / sizes
    overlap = np.minimum(1.0 - charge[:, 1:, None], tail[:, None, :]).reshape(horizon, -1)
    discharge = np.concatenate([np.zeros((horizon, 1)), tail, overlap], axis=1)
    return tuple(map(StaticStep, charge, discharge))


@dataclass(frozen=True)
class _Chain:
    """The chain that propagate_lanes steps forward and stopping_time backward.

    The (n_ch, n_dis) lattices of all lanes lie end to end on one flat axis,
    where a discharge moves mass by 1 and a charge by n_dis; the masks are
    (lanes, n_ch, n_dis) arrays.  ``blocked`` is 1.0 where capacity or
    budget forbid a discharge, then a charge; ``moves`` is 1.0 where a
    discharge, then a charge, may leave the point, never across a row or
    lane edge.  ``picks`` index each point's discharge, then charge, chance
    in a :class:`StaticStep`.
    """

    shape: tuple[int, int]
    blocked: tuple[np.ndarray, np.ndarray]
    moves: tuple[np.ndarray, np.ndarray]
    picks: tuple[np.ndarray, np.ndarray]

    def weights(self, step: ActionProbs | StaticStep):
        """One step's idle weight per point, and its moves (weight per point, shift).

        Action probabilities weigh every point alike, and a blocked action's
        mass folds into idle.  A :class:`StaticStep` weighs each point by its
        book index, with the executor's rule: a charge fires where it is
        open, and a discharge where it is open and the charge did not fire,
        so a charge blocked by capacity leaves the discharge the whole upper
        tail.
        """
        if isinstance(step, ActionProbs):
            down_blocked, up_blocked = self.blocked
            stay = (step.gamma + step.alpha * up_blocked) + step.beta * down_blocked
            down, up = step.beta * self.moves[0], step.alpha * self.moves[1]
        else:
            down, up = step.discharge.take(self.picks[0]), step.charge.take(self.picks[1])
            stay = (1.0 - up) - down
        return stay.ravel(), ((down.ravel(), 1), (up.ravel(), self.shape[1]))


def _chain(lanes: list[BatteryParams], horizon: int, k_ch: int, k_dis: int) -> _Chain:
    if k_ch < 0 or k_dis < 0:
        raise ValueError("budgets must be non-negative")
    shape = (min(k_ch, horizon) + 1, min(k_dis, horizon) + 1)
    c, d = np.indices(shape)
    down_ok = np.array([(c - d - 1 >= p.offsets[0]) & (d < k_dis) for p in lanes], dtype=bool)
    up_ok = np.array([(c - d + 1 <= p.offsets[-1]) & (c < k_ch) for p in lanes], dtype=bool)
    blocked = ((~down_ok).astype(float), (~up_ok).astype(float))
    # StaticStep entries: the overlap where a charge may fire, else the whole upper tail
    discharge_pick = np.where(up_ok, 1 + shape[1] * (1 + c) + d, 1 + d)
    down_ok[..., -1] = up_ok[:, -1] = False  # these moves would wrap to the next row or lane
    picks = (np.where(down_ok, discharge_pick, 0), np.where(up_ok, 1 + c, 0))
    return _Chain(shape, blocked, (down_ok.astype(float), up_ok.astype(float)), picks)


def propagate_lanes(
    lanes: list[BatteryParams],
    probs: list[ActionProbs] | tuple[StaticStep, ...],
    k_ch: int,
    k_dis: int,
) -> list[SocDistribution]:
    """Forward-propagate the SoC probability mass of batteries that share one chain.

    The batteries (lanes) share the budgets and the chain's steps:
    ``probs[t - 1]`` is the step between t - 1 and t, and each distribution
    keeps them.  A step is either one set of action probabilities for every
    state, whose mass folds into the idle branch whenever an action would
    leave a lane's capacity or exceed its budget, or a :class:`StaticStep`
    of :func:`static_steps` for these budgets, the static policy's own rule
    per book index.  Each step is a few whole-array operations on every
    lane's (n_ch, n_dis) lattice at once, laid end to end: stay + shifted
    down + shifted up, with weights that ``_Chain.weights`` builds for that
    step alone.  Every lane's masses equal, bit for bit, those it gets
    alone, and one ``bincount`` per step sums the ``m_masses`` of all lanes.
    No lane gives no distribution.
    """
    lanes, probs = list(lanes), tuple(probs)
    if not lanes:
        return []
    horizon = len(probs)
    chain = _chain(lanes, horizon, k_ch, k_dis)
    n_ch, n_dis = chain.shape
    for step in probs:
        if isinstance(step, StaticStep) and (
            step.charge.size != 1 + n_ch or step.discharge.size != 1 + n_dis * (1 + n_ch)
        ):
            raise ValueError("static steps of other budgets or another horizon")
    masses = np.zeros((horizon + 1, len(lanes)) + chain.shape)
    masses[0, :, 0, 0] = 1.0
    flat = masses.reshape(horizon + 1, -1)
    for step, cur, nxt in zip(probs, flat, flat[1:]):
        stay, moves = chain.weights(step)
        np.multiply(cur, stay, out=nxt)
        for weight, shift in moves:
            nxt[shift:] += cur[:-shift] * weight[:-shift]
    # a point's bin is its lane's first m_masses column plus its own, lanes end to
    # end; points outside capacity, which never hold mass, go to a spare last bin
    starts = np.cumsum([0] + [len(params.offsets) for params in lanes]).tolist()
    bins = np.array(
        [np.where(inside, start + column, starts[-1])
         for params, start in zip(lanes, starts)
         for column, inside in [_columns(params, chain.shape)]],
        dtype=np.intp,
    ).ravel()
    sums = np.array([np.bincount(bins, step, minlength=starts[-1] + 1) for step in flat])
    return [
        SocDistribution(params, k_ch, k_dis, probs, masses[:, i], sums[:, start:end].copy())
        for i, (params, start, end) in enumerate(zip(lanes, starts, starts[1:]))
    ]


def propagate(
    params: BatteryParams,
    probs: list[ActionProbs] | tuple[StaticStep, ...],
    k_ch: int,
    k_dis: int,
) -> SocDistribution:
    """Forward-propagate one battery's SoC probability mass with pruning.

    The one-lane call of :func:`propagate_lanes`: ``probs[t - 1]`` is the
    step between t - 1 and t; the distribution keeps them.  The backtest
    propagates each window's batteries in one batch per budget pair instead.
    """
    return propagate_lanes([params], probs, k_ch, k_dis)[0]


def policy_distributions(
    lanes: list[BatteryParams],
    dist: PriceDistribution,
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    threshold_mode: str,
) -> list[SocDistribution]:
    """Each battery's SoC distribution under the policy of ``threshold_mode``.

    Static mode propagates the policy's own chain, :func:`static_steps`,
    which is exact; timedep and feasibility propagate
    :func:`policy_action_probabilities`, which follow the expected
    activation order (``CHAIN_METHODS``).  Batteries share one batch where
    the rule never reads the SoC (``SOC_FREE_MODES``); in feasibility mode
    each battery is a batch of its own.  No lane gives no distribution, and
    an unknown mode is refused with or without lanes.
    """
    if threshold_mode not in th.THRESHOLD_MODES:
        raise ValueError(f"unknown threshold mode {threshold_mode!r}")
    lanes = list(lanes)
    if any(params.horizon != dist.horizon for params in lanes):
        raise ValueError("distribution horizon must match params.horizon")
    if not lanes:
        return []
    if threshold_mode == "static":
        return propagate_lanes(lanes, static_steps(dist, bounds, k_ch, k_dis), k_ch, k_dis)
    groups = [lanes] if threshold_mode in SOC_FREE_MODES else [[params] for params in lanes]
    soc_dists = []
    for group in groups:
        probs = policy_action_probabilities(group[0], dist, bounds, k_ch, k_dis, threshold_mode)
        soc_dists += propagate_lanes(group, probs, k_ch, k_dis)
    return soc_dists


def terminal_band_probability(dist: SocDistribution, band: TargetBand) -> float:
    """Probability that the terminal SoC lands inside the band, clamped to [0, 1]."""
    return _probability(dist.m_masses[-1] * band.contains(dist._grid_values))


def stopping_time(
    soc_dist: SocDistribution,
    band: TargetBand,
    epsilon: float,
    post_stop_mode: str = "full-control",
) -> StoppingResult:
    """Minimum stopping time for the terminal-band chance constraint.

    ``soc_dist`` is the one distribution, budgets included, that
    ``terminal_band_probability`` reads; it carries the per-step action
    probabilities it was built from.  q_t is the chance of finishing in the
    band from each state at step t: ``idle`` holds the SoC (so idle Q_T is
    p_band), ``full-control`` asks whether any feasible action sequence
    reaches the band, budget-free as the operator takes over after the stop,
    and ``continue-policy`` runs the adjoint of the chain in soc_dist.probs
    (so every Q_t is p_band).  Q_t sums dist_t * q_t; tau_star is the first
    t with Q_t >= 1 - epsilon, or None, and Q_t is summed only up to that
    first crossing.  ``big_q`` and ``q_table`` are built when first read.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if post_stop_mode not in POST_STOP_MODES:
        raise ValueError(f"unknown post-stop mode {post_stop_mode!r}")
    horizon = soc_dist.horizon
    params = soc_dist.params
    e = soc_dist._grid_values

    if post_stop_mode == "continue-policy":
        # the adjoint of propagate's chain, backward; row t - 1 holds q_t
        column, inside = soc_dist._columns()
        chain = _chain([params], horizon, soc_dist.k_ch, soc_dist.k_dis)
        q = np.empty((horizon,) + column.shape)
        q[-1:] = band.contains(e)[column]  # no rows when there are no steps
        flat = q.reshape(horizon, column.size)
        for t in range(horizon - 1, 0, -1):
            nxt, cur = flat[t], flat[t - 1]  # weights t: the action between step t and t+1
            stay, moves = chain.weights(soc_dist.probs[t])
            np.multiply(stay, nxt, out=cur)
            # charge term first, as in the dict recursion of tests/oracles.py, so q matches it
            # bit for bit
            for weight, shift in reversed(moves):
                cur[:-shift] += weight[:-shift] * nxt[shift:]
        q *= inside
        return StoppingResult(soc_dist.masses[1:] * q, lambda: q, epsilon, post_stop_mode)

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

    def table():
        column, inside = soc_dist._columns()
        return (q_m[:, column] & inside).astype(float)

    return StoppingResult(soc_dist.m_masses[1:] * q_m, table, epsilon, post_stop_mode)


@dataclass(frozen=True)
class TrajectoryCounts:
    """Exact counts of the feasible action sequences from one battery's e0.

    ``per_step[n][i]`` counts the n-step sequences, of all 3^n, whose every
    state respects capacity and that end at offset ``params.offsets[i]``,
    for each step count n it was asked for.  Counts stay Python ints: they
    pass 2**63 within 48 steps.  Calling it with (steps, band) gives
    (in_band, total, percent) for one of those step counts.
    """

    params: BatteryParams
    per_step: dict[int, list[int]] = field(repr=False)

    def __call__(self, steps: int, band: TargetBand) -> tuple[int, int, float]:
        params, counts = self.params, self.per_step[steps]
        total = sum(counts)
        in_band = sum(
            n for m, n in zip(params.offsets, counts) if band.contains(params.e0 + m * params.rate)
        )
        return in_band, total, 100.0 * in_band / total


def trajectory_counts(params: BatteryParams, steps: Iterable[int]) -> TrajectoryCounts:
    """One counting DP over the SoC lattice, up to the longest of the step counts.

    The backtest runs it once per battery lattice for all its windows, and
    ``socarb table1`` once for all its step counts.
    """
    steps = set(steps)
    if min(steps) < 1:
        raise ValueError("steps must be at least 1")
    offsets = params.offsets
    counts = [0] * len(offsets)
    counts[-offsets[0]] = 1
    per_step = {}
    for n in range(1, max(steps) + 1):
        # m is reached by charging from m - 1, idling at m or discharging from m + 1
        counts = [a + b + c for a, b, c in zip([0] + counts[:-1], counts, counts[1:] + [0])]
        if n in steps:
            per_step[n] = counts
    return TrajectoryCounts(params, per_step)


def count_feasible_trajectories(
    params: BatteryParams, steps: int, band: TargetBand
) -> tuple[int, int, float]:
    """Exact counts of feasible action sequences and those ending in the band.

    Counting DP over the SoC lattice: all 3^n action sequences whose every
    intermediate state respects capacity.  Returns (in_band, total, percent).
    The one-step-count call of :func:`trajectory_counts`, whose one DP the
    backtest and ``socarb table1`` share across their step counts.
    """
    return trajectory_counts(params, [steps])(steps, band)
