"""k-search threshold construction and the online charge/discharge policy.

Implements static reservation-price schedules, time-dependent thresholds that
fold in previously activated thresholds plus remaining worst-case bounds,
feasibility-aware thresholds conditioned on the current state of charge, the
perfect-foresight offline optimum used in competitive checks, and the
mid-horizon discharge-budget reduction with its two-stage benchmark.

:func:`build_schedule` is the one solver of the books U[c] and L[d] (its
:func:`search_ratios` checks the budgets) and :attr:`BatteryParams.offsets` the
one SoC lattice m_lo..m_hi.  :func:`threshold_rule` binds a run's budgets,
ratios and bounds once and returns ``rule(t, e, c, d, s_ch, s_dis) -> (u, l)``
in every mode, on the six values of a :class:`PolicyState`; the rules of
:func:`_lane_rule` take the same six values as lane arrays.

The one charge-first, fall-through-to-discharge decision rule has two
executors, and the size of the input picks one; no mode does.  One day runs
in a loop that yields its trajectory: :func:`run_policy`, ``socarb
simulate`` and both stages of the budget reduction.  A batch of days, one
``DayMatrix``, runs in :func:`_run_lanes`, which steps every (battery,
budget pair, day) lane at once in numpy, in all three modes.  Its callers
need only outcomes: :func:`policy_outcomes` returns the profit and terminal
SoC of every lane, and the backtest runs each window's whole e0 sweep ×
k_grid through one call; ``conformal.label_days``, the CQR layer's one
labeller, takes the terminal SoC of a report's days for a whole e0 sweep
from one call.  A numpy step costs about the same for one lane as for a
thousand, so single days stay on the loop.  On a 2-vCPU VM (``nproc`` 2,
Python 3.11, numpy 2.4; medians of three runs for static, timedep and
feasibility), one 24-step day took 0.45, 0.69 and 1.0 ms in lanes against
0.016, 0.020 and 0.038 ms in the loop; 73 days 0.50, 0.76 and 1.2 ms
against 1.2, 1.5 and 2.7 ms; and 5 e0 × 3 budget pairs × 73 days 2.0, 2.5
and 3.2 ms against 20, 26 and 47 ms.
``tests/test_policy_batch.py`` holds both executors equal, lane by lane, to
each other and to the reference loop in ``tests/oracles.py``.
"""
from __future__ import annotations

import functools
import itertools
import logging
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .market_data import DayMatrix, DayPrices, PriceBounds, check_horizon

log = logging.getLogger(__name__)

RATIO_TOL = 1e-10
FEAS_EPS = 1e-9

CHARGE = 1
IDLE = 0
DISCHARGE = -1

THRESHOLD_MODES = ("static", "timedep", "feasibility")


@dataclass(frozen=True)
class BatteryParams:
    """Capacity limits, fixed step rate, initial charge, and horizon."""

    e_min: float
    e_max: float
    rate: float
    e0: float
    horizon: int

    def __post_init__(self):
        for name in ("e_min", "e_max", "rate", "e0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.e_max <= self.e_min:
            raise ValueError("e_max must exceed e_min")
        if not self.e_min <= self.e0 <= self.e_max:
            raise ValueError(f"e0={self.e0} outside [{self.e_min}, {self.e_max}]")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        # offsets is a range, whose len() must fit in an index
        if not (self.e_max - self.e_min) / self.rate < sys.maxsize:
            raise ValueError(
                f"rate {self.rate!r} is too small: the SoC lattice from e_min to e_max "
                "would have more levels than an index can count"
            )
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    def max_discharges(self, e: float) -> int:
        """How many discharge steps fit between e and e_min."""
        return max(0, math.floor((e - self.e_min) / self.rate + FEAS_EPS))

    def max_charges(self, e: float) -> int:
        """How many charge steps fit between e and e_max."""
        return max(0, math.floor((self.e_max - e) / self.rate + FEAS_EPS))

    @property
    def offsets(self) -> range:
        """SoC lattice offsets m_lo..m_hi.

        From e0 + m * rate, m - m_lo discharges and m_hi - m charges fit.
        """
        return range(-self.max_discharges(self.e0), self.max_charges(self.e0) + 1)


def _check_ratio(name: str, value: float) -> float:
    """A competitive ratio given by the caller: a finite number >= 1."""
    if not (math.isfinite(value) and value >= 1.0):
        raise ValueError(f"{name} must be a finite number >= 1, got {value}")
    return float(value)


@dataclass(frozen=True)
class ThresholdSchedule:
    """Static buy (charge) and sell (discharge) reservation prices."""

    charge: tuple[float, ...]
    discharge: tuple[float, ...]
    alpha: float
    omega: float

    def __post_init__(self):
        _check_ratio("alpha", self.alpha)
        _check_ratio("omega", self.omega)
        # strictly monotone for ratios above 1; flat schedules are the
        # degenerate alpha == 1 / omega == 1 case.  Both books read upward here.
        for name, trend, book, ratio in (
            ("charge", "decreasing", self.charge[::-1], self.alpha),
            ("discharge", "increasing", self.discharge, self.omega),
        ):
            if any(a >= b if ratio > 1.0 else a > b for a, b in zip(book, book[1:])):
                raise ValueError(f"{name} thresholds must be {trend}")
        # overlapping books (u_1 >= l_1) are structural for ratio-derived
        # schedules with k >= 2; charging wins the overlap by policy order
        if self.charge and self.discharge and self.charge[0] >= self.discharge[0]:
            log.debug(
                "threshold overlap: u_1=%.4g >= l_1=%.4g; charging wins the overlap",
                self.charge[0],
                self.discharge[0],
            )


class PolicyState(NamedTuple):
    """State of the online policy before step ``t``.

    ``c`` and ``d`` count the charges and discharges done so far, ``s_ch`` and
    ``s_dis`` sum the thresholds they activated.  The timedep and feasibility
    thresholds read the past only through these sums.  The rule that
    :func:`threshold_rule` binds for a run takes the six values: ``rule(*state)``.
    """

    t: int
    e: float
    c: int
    d: int
    s_ch: float
    s_dis: float


@dataclass(frozen=True)
class Trajectory:
    """Realized actions, SoC path (including e0), and cash flows.

    Cash flows are signed so discharge revenue is positive and charge cost is
    negative; ``profit`` is their sum.
    """

    actions: tuple[int, ...]
    soc_path: tuple[float, ...]
    cash_flows: tuple[float, ...]
    profit: float

    @property
    def charges(self) -> int:
        return sum(1 for a in self.actions if a == CHARGE)

    @property
    def discharges(self) -> int:
        return sum(1 for a in self.actions if a == DISCHARGE)


def competitive_ratio(lambda_min: float, lambda_max: float, k: int, side: str) -> float:
    """Optimal k-search competitive ratio for the given price envelope.

    ``max-search`` solves (M-1)/(r-1) = (1 + r/k)^k and ``min-search`` solves
    (r-1)((1 + 1/(rk))^k - 1) = (M-r)/M for their unique roots r >= 1, with
    M = lambda_max/lambda_min, by bisection to 1e-10 (or to adjacent floats,
    for roots too large to resolve that finely).  Roots are memoized per
    (lambda_min, lambda_max, k, side), so an envelope is solved once.
    """
    if not (math.isfinite(lambda_min) and math.isfinite(lambda_max)):
        raise ValueError("price bounds must be finite")
    if lambda_min <= 0:
        raise ValueError("lambda_min must be positive")
    if lambda_max < lambda_min:
        raise ValueError("lambda_max must be >= lambda_min")
    if k < 1:
        raise ValueError("k must be a positive integer")
    return _k_search_root(lambda_min, lambda_max, k, side)


def _min_search_gap(r: float, k: int) -> float:
    """1 - (r-1)((1 + 1/(rk))^k - 1), summed from positive terms.

    Expanding the binomial gives ((k+1)/k) * sum over i = 1..k of
    C(k,i) * i/(i+1) * (rk)^-i.  Evaluated directly, the left side subtracts
    two numbers near 1 once 1/(rk) nears the float epsilon, which puts the
    k = 1 root 1.54 times above sqrt(M) at M = 1e16.  The terms fall faster
    than 1/i!, so the sum stops at the first one too small to move it; the
    ones after it could not move it either.
    """
    u = 1.0 / (r * k)
    term, total = 1.0, 0.0
    for i in range(1, k + 1):
        term *= u * (k - i + 1) / i
        step = term * i / (i + 1)
        if total + step == total:
            break
        total += step
    return (k + 1) / k * total


@functools.lru_cache(maxsize=1024, typed=True)
def _k_search_root(lambda_min: float, lambda_max: float, k: int, side: str) -> float:
    """The bisection behind :func:`competitive_ratio`, on checked arguments."""
    big_m = lambda_max / lambda_min
    if big_m <= 1.0 + 1e-15:
        return 1.0

    if side == "max-search":
        def excess(r: float) -> float:
            try:
                return (r - 1.0) * (1.0 + r / k) ** k - (big_m - 1.0)
            except OverflowError:  # (1 + r/k)^k past the float range: far above the root
                return math.inf
    elif side == "min-search":
        def excess(r: float) -> float:
            # (r-1)((1 + 1/(rk))^k - 1) - (M-r)/M, without the cancellation
            return r / big_m - _min_search_gap(r, k)
    else:
        raise ValueError(f"unknown side {side!r}")

    lo, hi = 1.0, big_m
    while hi - lo > RATIO_TOL:
        mid = 0.5 * (lo + hi)
        # a midpoint equal to the end it replaces means lo and hi are adjacent
        # floats, still wider apart than RATIO_TOL: no further halving moves
        if excess(mid) > 0.0:
            if mid == hi:
                break
            hi = mid
        else:
            if mid == lo:
                break
            lo = mid
    return 0.5 * (lo + hi)


def search_ratios(
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    alpha: float | None = None,
    omega: float | None = None,
) -> tuple[float, float]:
    """(alpha, omega) for the charge and discharge sides of an envelope.

    Budgets must be non-negative.  A given ratio must be a finite number
    >= 1; a side without one solves its k-search equation (min-search for
    charging, max-search for discharging), or gets 1.0 when its budget is 0.
    """
    if k_ch < 0 or k_dis < 0:
        raise ValueError("budgets must be non-negative")
    if alpha is not None:
        alpha = _check_ratio("alpha", alpha)
    elif k_ch >= 1:
        alpha = competitive_ratio(bounds.lambda_min, bounds.lambda_max, k_ch, "min-search")
    if omega is not None:
        omega = _check_ratio("omega", omega)
    elif k_dis >= 1:
        omega = competitive_ratio(bounds.lambda_min, bounds.lambda_max, k_dis, "max-search")
    return (1.0 if alpha is None else alpha), (1.0 if omega is None else omega)


def static_charge_thresholds(lambda_max: float, alpha: float, k_ch: int) -> list[float]:
    """u_j = lambda_max * [1 - (1 - 1/alpha)(1 + 1/(alpha*k))^(j-1)], j = 1..k."""
    _check_ratio("alpha", alpha)
    if k_ch < 1:
        raise ValueError("k_ch must be >= 1")
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ValueError(f"lambda_max must be positive and finite, got {lambda_max}")
    shrink = 1.0 - 1.0 / alpha
    growth = 1.0 + 1.0 / (alpha * k_ch)
    return [lambda_max * (1.0 - shrink * growth ** (j - 1)) for j in range(1, k_ch + 1)]


def static_discharge_thresholds(lambda_min: float, omega: float, k_dis: int) -> list[float]:
    """l_i = lambda_min * [1 + (omega - 1)(1 + omega/k)^(i-1)], i = 1..k."""
    _check_ratio("omega", omega)
    if k_dis < 1:
        raise ValueError("k_dis must be >= 1")
    if not (math.isfinite(lambda_min) and lambda_min > 0):
        raise ValueError(f"lambda_min must be positive and finite, got {lambda_min}")
    growth = 1.0 + omega / k_dis
    try:
        return [
            lambda_min * (1.0 + (omega - 1.0) * growth ** (i - 1)) for i in range(1, k_dis + 1)
        ]
    except OverflowError:
        raise ValueError(f"omega={omega} overflows the discharge thresholds") from None


def build_schedule(
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    alpha: float | None = None,
    omega: float | None = None,
) -> ThresholdSchedule:
    """Static schedule for both sides from a price envelope.

    The one solver of the books: ratios come from :func:`search_ratios`, which
    also checks the budgets, and the schedule carries the ratios it used.
    """
    alpha, omega = search_ratios(bounds, k_ch, k_dis, alpha, omega)
    u = static_charge_thresholds(bounds.lambda_max, alpha, k_ch) if k_ch >= 1 else []
    l = static_discharge_thresholds(bounds.lambda_min, omega, k_dis) if k_dis >= 1 else []
    return ThresholdSchedule(tuple(u), tuple(l), alpha, omega)


def timedep_thresholds(
    state: PolicyState,
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    alpha: float,
    omega: float,
) -> tuple[float | None, float | None]:
    """Time-dependent next thresholds from activations plus remaining bounds.

    u_next = (1/(alpha*k_ch)) * (s_ch + top k_ch-c remaining upper bounds);
    l_next = (omega/k_dis) * (s_dis + bottom k_dis-d remaining lower bounds).
    A side with exhausted budget is inactive (None).  When the remaining
    horizon is shorter than the remaining budget, the bound lists are padded
    with the global scalar envelope (the no-prediction fallback).  Both sums
    are entries of ``bounds.sums``: H[t, k_ch - c] and L[t, k_dis - d].  A
    step past the horizon has no slot left and pads from the first term; a
    step before ``bounds.t_start`` is refused.
    """
    return _timedep_rule(bounds, k_ch, k_dis, alpha, omega)(*_covered(state, bounds))


def _timedep_rule(bounds, k_ch, k_dis, alpha, omega):
    """:func:`timedep_thresholds` for one run: a step indexes two lists and hashes nothing."""
    low, high = bounds.sum_rows(max(k_ch, k_dis))
    t0 = bounds.t_start

    def rule(t, e, c, d, s_ch, s_dis):
        u_next = (s_ch + high[t - t0][k_ch - c]) / (alpha * k_ch) if c < k_ch else None
        l_next = omega * (s_dis + low[t - t0][k_dis - d]) / k_dis if d < k_dis else None
        return u_next, l_next

    return rule


def feasibility_aware_thresholds(
    state: PolicyState,
    params: BatteryParams,
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    alpha: float,
    omega: float,
) -> tuple[float | None, float | None]:
    """Thresholds restricted to feasible SoC trajectories from (t, e).

    The effective budget on each side becomes K_rem = min(remaining budget,
    capacity-limited action count, remaining horizon); K_rem = 0 marks the
    side inactive.  The bound lists are the whole remaining tail of slots
    t..horizon: a side with K_rem >= 1 has at least one action of its type
    feasible from e right now, and it stays feasible at every later slot
    (idling keeps e), so no slot is out of reach.  K_rem never exceeds the
    slots left, so the entries H[t, K_rem] and L[t, K_rem] of
    ``bounds.sums`` are never padded.  The bounds must therefore cover
    exactly slots 1..horizon of the battery, per slot; a ``ValueError`` says
    when they do not, from the check :func:`threshold_rule` makes once per
    run.
    """
    _check_day_bounds("feasibility", params, bounds)
    rule = _feasibility_rule(params, bounds, k_ch, k_dis, alpha, omega)
    return rule(*_covered(state, bounds))


def _feasibility_rule(params, bounds, k_ch, k_dis, alpha, omega):
    """:func:`feasibility_aware_thresholds` for one run, on checked bounds."""
    low, high = bounds.sum_rows(min(max(k_ch, k_dis), params.horizon))

    def rule(t, e, c, d, s_ch, s_dis):
        slots_left = params.horizon - t + 1
        u_next = None
        l_next = None
        # a side with no budget or no slot left need not count what capacity allows
        k_rem = min(k_ch - c, slots_left)
        if k_rem >= 1:
            k_rem = min(k_rem, params.max_charges(e))
        if k_rem >= 1:
            u_next = (s_ch + high[t - 1][k_rem]) / (alpha * k_rem)
        k_rem = min(k_dis - d, slots_left)
        if k_rem >= 1:
            k_rem = min(k_rem, params.max_discharges(e))
        if k_rem >= 1:
            l_next = omega * (s_dis + low[t - 1][k_rem]) / k_rem
        return u_next, l_next

    return rule


def _covered(state: PolicyState, bounds: PriceBounds) -> PolicyState:
    """``state`` on a row of ``bounds.sums``: every step past the horizon reads the last."""
    if state.t < bounds.t_start:
        raise ValueError(f"t={state.t} precedes bound coverage starting at {bounds.t_start}")
    return state._replace(t=min(state.t, max(bounds.horizon + 1, bounds.t_start)))


def _check_day_bounds(mode: str, params: BatteryParams, bounds: PriceBounds) -> None:
    """Bounds of a timedep or feasibility run cover exactly slots 1..horizon of its day.

    Feasibility reads the per-slot lists, so there an envelope alone covers
    no slot, whatever its ``horizon`` field says; PriceBounds holds both
    per-slot lists to one length.
    """
    covered = bounds.horizon
    if mode == "feasibility":
        covered = bounds.t_start + len(bounds.per_slot_min) - 1
    if bounds.t_start != 1 or covered != params.horizon:
        raise ValueError(
            f"bounds cover slots {bounds.t_start}..{covered} but the day "
            f"spans 1..{params.horizon}"
        )


def threshold_rule(
    mode: str,
    params: BatteryParams,
    bounds: PriceBounds,
    schedule: ThresholdSchedule,
    k_ch: int,
    k_dis: int,
) -> Callable[[int, float, int, int, float, float], tuple[float | None, float | None]]:
    """The policy's next (u, l) as ``rule(t, e, c, d, s_ch, s_dis)`` of its state, for one run.

    ``static`` reads the books of ``schedule``; ``timedep`` and
    ``feasibility`` use its ratios and need bounds that cover exactly slots
    1..horizon of the day, checked here once.  A side whose budget is spent
    has no threshold (None).
    """
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"unknown threshold mode {mode!r}")
    if mode == "static":
        u_book, l_book = schedule.charge, schedule.discharge
        return lambda t, e, c, d, s_ch, s_dis: (
            u_book[c] if c < k_ch else None,
            l_book[d] if d < k_dis else None,
        )
    _check_day_bounds(mode, params, bounds)
    alpha, omega = schedule.alpha, schedule.omega
    if mode == "timedep":
        return _timedep_rule(bounds, k_ch, k_dis, alpha, omega)
    return _feasibility_rule(params, bounds, k_ch, k_dis, alpha, omega)


def _run_day(values, params, k_ch, k_dis, threshold_mode, bounds, alpha, omega) -> Trajectory:
    """The one-day loop: the policy on ``params.horizon`` prices, as a trajectory."""
    schedule = build_schedule(bounds, k_ch, k_dis, alpha, omega)
    rule = threshold_rule(threshold_mode, params, bounds, schedule, k_ch, k_dis)

    rate, e_max, e_min = params.rate, params.e_max, params.e_min
    charge_cap, discharge_floor = e_max + FEAS_EPS, e_min - FEAS_EPS
    e = params.e0
    c = d = 0  # charges / discharges done
    s_ch = s_dis = 0.0  # sums of the thresholds they activated
    actions: list[int] = []
    soc = [e]
    cash: list[float] = []
    for t, lam in enumerate(values, start=1):
        u, l = rule(t, e, c, d, s_ch, s_dis)
        # a side whose budget is spent has no threshold (None); charge is
        # checked first, and a blocked charge falls through to discharge
        if u is not None and lam <= u and e + rate <= charge_cap:
            e = min(e + rate, e_max)
            c += 1
            s_ch += u
            actions.append(CHARGE)
            cash.append(-1 * lam * rate)
        elif l is not None and lam >= l and e - rate >= discharge_floor:
            e = max(e - rate, e_min)
            d += 1
            s_dis += l
            actions.append(DISCHARGE)
            cash.append(1 * lam * rate)
        else:
            actions.append(IDLE)
            # not 0.0: a negative price gives -0.0
            cash.append(0 * lam * rate)
        soc.append(e)
    return Trajectory(tuple(actions), tuple(soc), tuple(cash), math.fsum(cash))


def run_policy(
    day: DayPrices,
    params: BatteryParams,
    k_ch: int,
    k_dis: int,
    threshold_mode: str,
    bounds: PriceBounds,
    alpha: float | None = None,
    omega: float | None = None,
) -> Trajectory:
    """Execute the online policy on one realized price day.

    The schedule and its ratios depend only on ``bounds`` and the budgets;
    ratios default to the k-search equations on the envelope in ``bounds``,
    and ``alpha``/``omega`` set them.  The trajectory never forces trades;
    end-of-horizon behavior belongs to the reachability layer.  The day's
    prices go to the loop as they are: stacking one day into a matrix would
    add about 9 µs to a static run of about 15 µs (24 steps, 2-vCPU VM,
    Python 3.11).
    """
    check_horizon(len(day.values), params.horizon)
    return _run_day(day.values, params, k_ch, k_dis, threshold_mode, bounds, alpha, omega)


def policy_outcomes(
    days: DayMatrix,
    params_list: list[BatteryParams],
    budgets: list[tuple[int, int]],
    threshold_mode: str,
    bounds: PriceBounds,
) -> tuple[np.ndarray, np.ndarray]:
    """Profit and terminal SoC of the policy for every battery, budget pair and day.

    Returns two float64 arrays of shape (len(params_list), len(budgets),
    len(days)); entry [i, j, n] is the ``profit`` and ``soc_path[-1]`` of
    ``run_policy(days[n], params_list[i], *budgets[j], threshold_mode,
    bounds)``, bit for bit.  The batteries may differ only in ``e0``.  All
    lanes step at once in :func:`_run_lanes`; each lane's profit is the
    ``math.fsum`` of its cash flows, as in the loop.
    """
    params_list = list(params_list)
    soc, moves = _run_lanes(days, params_list, budgets, threshold_mode, bounds)
    # -action * lam * rate, as in the loop: an idle step on a negative price gives -0.0
    cash = moves * days.prices.T.reshape(len(moves), 1, 1, len(days))
    cash *= params_list[0].rate if params_list else 1.0  # no battery: no lane
    lanes = cash.reshape(len(cash), soc.size).T.tolist()
    return np.array(list(map(math.fsum, lanes))).reshape(soc.shape), soc


def _check_days(days: DayMatrix, params_list: list[BatteryParams]) -> None:
    """A batch's days have its batteries' horizon; no day or no battery checks nothing."""
    if len(days) and params_list:
        check_horizon(days.horizon, params_list[0].horizon)


def _check_shared_battery(params_list: list[BatteryParams]) -> None:
    for params in params_list[1:]:
        for name in ("e_min", "e_max", "rate", "horizon"):
            if getattr(params, name) != getattr(params_list[0], name):
                raise ValueError(f"batteries of one batch may differ only in e0, not in {name}")


def _run_lanes(
    days: DayMatrix,
    params_list: list[BatteryParams],
    budgets: list[tuple[int, int]],
    threshold_mode: str,
    bounds: PriceBounds,
) -> tuple[np.ndarray, np.ndarray]:
    """The batch executor: every (battery, budget pair, day) lane at once, in every mode.

    Returns the terminal SoC of every lane, shape (len(params_list),
    len(budgets), len(days)), and each step's move (-action: 1 discharge,
    -1 charge, 0 idle) as int8, step axis first.  The batteries may differ
    only in ``e0``.  Each step takes every lane's (u, l) from
    :func:`_lane_rule`, a missing side as -inf (charge) or +inf (discharge),
    and applies the loop's rule and ``FEAS_EPS`` capacity checks.
    """
    if threshold_mode not in THRESHOLD_MODES:
        raise ValueError(f"unknown threshold mode {threshold_mode!r}")
    params_list, budgets = list(params_list), list(budgets)
    _check_days(days, params_list)
    _check_shared_battery(params_list)
    shape = (len(params_list), len(budgets), len(days))
    if not params_list:
        return np.empty(shape), np.empty((days.prices.shape[1],) + shape, dtype=np.int8)
    first = params_list[0]
    horizon, rate, e_max, e_min = first.horizon, first.rate, first.e_max, first.e_min
    start, rule = _lane_rule(threshold_mode, first, budgets, bounds)
    sums = threshold_mode != "static"  # the books read no sums: skip their upkeep

    charge_cap, discharge_floor = e_max + FEAS_EPS, e_min - FEAS_EPS
    e = np.empty(shape)
    e[...] = np.array([params.e0 for params in params_list])[:, None, None]
    c = np.empty(shape, dtype=np.intp)
    c[...] = start
    d = c.copy()
    s_ch, s_dis = np.zeros(shape), np.zeros(shape)
    prices = days.prices.reshape(len(days), horizon)  # an empty batch has no width
    moves = np.empty((horizon,) + shape, dtype=np.int8)
    # a side without a threshold may divide by a count of 0; the rule masks it
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, lam in enumerate(prices.T, start=1):
            u, l = rule(t, e, c, d, s_ch, s_dis)
            up, down = e + rate, e - rate
            charge = (lam <= u) & (up <= charge_cap)
            discharge = ~charge & (lam >= l) & (down >= discharge_floor)
            # min(up, e_max) and max(down, e_min), with the loop's tie-breaks
            e = np.where(
                charge,
                np.where(e_max < up, e_max, up),
                np.where(discharge, np.where(e_min > down, e_min, down), e),
            )
            c += charge
            d += discharge
            if sums:
                s_ch = np.where(charge, s_ch + u, s_ch)
                s_dis = np.where(discharge, s_dis + l, s_dis)
            np.subtract(discharge.view(np.int8), charge.view(np.int8), out=moves[t - 1])
    return e, moves


def _lane_rule(mode: str, params: BatteryParams, budgets: list[tuple[int, int]], bounds):
    """:func:`threshold_rule` for a batch: every lane's next (u, l) from its state.

    Returns each budget pair's first table index, shape (len(budgets), 1),
    and the rule, a function of (t, e, c, d, s_ch, s_dis) over lane arrays.
    A lane's c and d count from that index along its pair's row: before
    step t a side has done at most min(k, t - 1) actions.  Every threshold
    is the loop's own expression on the loop's own numbers, so it keeps its
    bits.  Static reads the books.  The other modes read ``bounds.sums``
    with no Python loop over its entries: timedep gathers H[t, k - c] and
    L[t, k - d] by actions done with one fancy index (padded past the
    horizon), and feasibility reads H[t, n] and L[t, n] for n up to the
    largest budget or the horizon, never past the slots left.
    """
    horizon = params.horizon
    schedules = [build_schedule(bounds, k_ch, k_dis) for k_ch, k_dis in budgets]
    k_max = max((k for pair in budgets for k in pair), default=0)
    width = 1 + min(k_max, horizon - 1)
    start = np.arange(len(budgets), dtype=np.intp)[:, None] * width
    if mode == "static":
        u_book = np.full((len(budgets), width), -np.inf)
        l_book = np.full((len(budgets), width), np.inf)
        for j, schedule in enumerate(schedules):
            u_book[j, : len(schedule.charge)] = schedule.charge[:width]
            l_book[j, : len(schedule.discharge)] = schedule.discharge[:width]
        return start, lambda t, e, c, d, s_ch, s_dis: (u_book.take(c), l_book.take(d))

    _check_day_bounds(mode, params, bounds)
    omega = np.array([s.omega for s in schedules]).reshape(-1, 1)
    k_ch = np.array([k for k, _ in budgets], dtype=np.intp).reshape(-1, 1)
    k_dis = np.array([k for _, k in budgets], dtype=np.intp).reshape(-1, 1)
    if mode == "timedep":
        # [t - 1, j, n]: H[t, k - n] and L[t, k - n] for pair j after n actions, +-inf once spent
        lows, highs = bounds.sums(k_max)
        n = np.arange(width)
        highs = np.where(n < k_ch, highs[:horizon, np.maximum(k_ch - n, 0)], -np.inf)
        lows = np.where(n < k_dis, lows[:horizon, np.maximum(k_dis - n, 0)], np.inf)
        ch_div = np.array([s.alpha * k for s, (k, _) in zip(schedules, budgets)]).reshape(-1, 1)
        return start, lambda t, e, c, d, s_ch, s_dis: (
            (s_ch + highs[t - 1].take(c)) / ch_div,
            omega * (s_dis + lows[t - 1].take(d)) / k_dis,
        )

    lows, highs = bounds.sums(min(k_max, horizon))
    alpha = np.array([s.alpha for s in schedules]).reshape(-1, 1)
    ch_end, dis_end = start + k_ch, start + k_dis  # a side's index once its budget is spent
    rate, e_max, e_min = params.rate, params.e_max, params.e_min

    def rule(t, e, c, d, s_ch, s_dis):
        # K_rem = min(budget left, slots left, actions capacity allows)
        slots_left = horizon - t + 1
        n = np.minimum(np.floor((e_max - e) / rate + FEAS_EPS), np.minimum(ch_end - c, slots_left))
        n = n.astype(np.intp)
        u = np.where(n >= 1, (s_ch + highs[t - 1].take(n)) / (alpha * n), -np.inf)
        n = np.minimum(np.floor((e - e_min) / rate + FEAS_EPS), np.minimum(dis_end - d, slots_left))
        n = n.astype(np.intp)
        l = np.where(n >= 1, omega * (s_dis + lows[t - 1].take(n)) / n, np.inf)
        return u, l

    return start, rule


def offline_opt(
    day: DayPrices,
    params: BatteryParams,
    fixed_k: tuple[int, int] | None = None,
    terminal: str = "cyclic",
) -> tuple[float, Trajectory]:
    """Perfect-foresight optimum by dynamic programming over the SoC lattice.

    Maximizes total profit (discharge revenue positive) over a day of
    ``params.horizon`` slots; with ``fixed_k`` the action counts are capped at
    (k_ch, k_dis), both non-negative.  Ties break toward fewer actions, then
    earlier discharges.

    The states (m, c, d) are numbered once, with each one's discharge and
    charge successor (None where capacity or budget blocks it).  A side's
    counter is tracked only when its budget is below the horizon, which is
    the only case where it can block a move: the m range alone without
    ``fixed_k``, times (k + 1) per binding side.  The value-to-go is two flat
    lists, profit and -actions; each step scores idle, discharge, charge and
    keeps a later move only when it is strictly better.

    ``terminal`` picks the benchmark convention: ``cyclic`` (default) requires
    the schedule to end at the initial SoC, so profit measures captured spread
    rather than liquidation of stored energy; ``free`` leaves the terminal SoC
    unconstrained, which is the one-sided k-search benchmark.
    """
    if terminal not in ("cyclic", "free"):
        raise ValueError(f"unknown terminal convention {terminal!r}")
    check_horizon(len(day.values), params.horizon)
    values = day.values
    horizon = len(values)
    k_ch, k_dis = fixed_k if fixed_k else (horizon, horizon)
    if k_ch < 0 or k_dis < 0:
        raise ValueError("budgets must be non-negative")
    rate = params.rate
    # a side whose budget cannot bind keeps its counter at 0
    dc = 1 if k_ch < horizon else 0
    dd = 1 if k_dis < horizon else 0
    states = list(itertools.product(params.offsets, range(k_ch * dc + 1), range(k_dis * dd + 1)))
    index = {s: i for i, s in enumerate(states)}
    # (discharge successor, charge successor) per state; a key off the lattice has none
    moves = [(index.get((m - 1, c, d + dd)), index.get((m + 1, c + dc, d))) for m, c, d in states]
    free = terminal == "free"
    tables = [([0.0 if free or m == 0 else -math.inf for m, _, _ in states], [0] * len(states))]
    for t in range(horizon - 1, -1, -1):
        lam = values[t]
        nxt_v, nxt_a = tables[-1]
        val, act = nxt_v[:], nxt_a[:]  # idle
        for i, (down, up) in enumerate(moves):
            if down is not None:
                v, a = nxt_v[down] + lam * rate, nxt_a[down] - 1
                if v > val[i] or (v == val[i] and a > act[i]):
                    val[i], act[i] = v, a
            if up is not None:
                v, a = nxt_v[up] - lam * rate, nxt_a[up] - 1
                if v > val[i] or (v == val[i] and a > act[i]):
                    val[i], act[i] = v, a
        tables.append((val, act))
    tables.reverse()  # tables[t] = value-to-go before acting at step t (0-based)

    # forward reconstruction; prefer discharge, then idle, then charge (the
    # table holds one of the three candidate values, so charge is what is left)
    i = index[(0, 0, 0)]
    actions, soc, cash = [], [params.e0], []
    for t in range(horizon):
        lam = values[t]
        (val, act), (nxt_v, nxt_a) = tables[t], tables[t + 1]
        down, up = moves[i]
        if down is not None and (nxt_v[down] + lam * rate, nxt_a[down] - 1) == (val[i], act[i]):
            chosen, i = DISCHARGE, down
        elif (nxt_v[i], nxt_a[i]) == (val[i], act[i]):
            chosen = IDLE
        else:
            chosen, i = CHARGE, up
        actions.append(chosen)
        soc.append(params.e0 + states[i][0] * rate)
        cash.append(-chosen * lam * rate)
    profit = math.fsum(cash)
    return profit, Trajectory(tuple(actions), tuple(soc), tuple(cash), profit)


def compulsory_value(
    traj: Trajectory,
    k_ch: int,
    k_dis: int,
    lambda_min: float,
    lambda_max: float,
    rate: float,
) -> float:
    """Trajectory value under the k-search compulsory-trade convention.

    Unexecuted discharge budget is force-sold at lambda_min and unexecuted
    charge budget force-bought at lambda_max.
    """
    value = traj.profit
    value += (k_dis - traj.discharges) * lambda_min * rate
    value -= (k_ch - traj.charges) * lambda_max * rate
    return value


@dataclass(frozen=True)
class TwoStageResult:
    """Outcome of a mid-horizon discharge-budget reduction run."""

    trajectory: Trajectory
    revenue: float
    benchmark: float
    stage2_ratio: float
    stage1_revenue: float
    executed_stage1: int
    k_rem: int


def run_with_discharge_reduction(
    day: DayPrices,
    params: BatteryParams,
    k_dis: int,
    t_bar: int,
    k_bar: int,
    bounds: PriceBounds,
) -> TwoStageResult:
    """Run the sell-side policy, reducing the budget to ``k_bar`` at ``t_bar``.

    Stage 1 runs the k_dis-search through step t_bar - 1.  The reduced search
    then restarts fresh from stage 1's terminal SoC with budget k_bar minus
    executed sales; ``k_bar == k_dis`` is the identity, where the original
    search runs the whole day.  The benchmark matches stage-1 decisions and
    takes the offline optimum of the reduced subproblem on the remaining
    steps, with compulsory sales at lambda_min.  Revenue times the stage-2
    ratio must cover the benchmark.
    """
    if not 1 <= t_bar <= params.horizon:
        raise ValueError("t_bar outside horizon")
    check_horizon(len(day.values), params.horizon)
    # competitive_ratio rejects k_dis < 1, which search_ratios would map to 1.0
    omega = competitive_ratio(bounds.lambda_min, bounds.lambda_max, k_dis, "max-search")
    if k_bar > k_dis:
        raise ValueError(f"k_bar={k_bar} exceeds the budget k_dis={k_dis}")

    def sell(values, e0, k, ratio):
        stage = replace(params, e0=e0, horizon=len(values))
        return _run_day(values, stage, 0, k, "static", bounds, None, ratio)

    n1 = t_bar - 1  # stage-1 steps
    if k_bar == k_dis:
        traj = sell(day.values, params.e0, k_dis, omega)
        executed = traj.actions[:n1].count(DISCHARGE)
        stage1_revenue = math.fsum(traj.cash_flows[:n1])
        k_rem, omega2 = k_dis - executed, omega
        stage2_executed = traj.discharges - executed
    else:
        stage1 = (
            sell(day.values[:n1], params.e0, k_dis, omega)
            if n1
            else Trajectory((), (params.e0,), (), 0.0)
        )
        executed = stage1.discharges
        if k_bar < executed:
            raise ValueError(f"k_bar={k_bar} below {executed} already-executed sales")
        k_rem = k_bar - executed
        _, omega2 = search_ratios(bounds, 0, k_rem)
        stage2 = sell(day.values[n1:], stage1.soc_path[-1], k_rem, omega2)
        cash = stage1.cash_flows + stage2.cash_flows
        traj = Trajectory(
            stage1.actions + stage2.actions,
            stage1.soc_path + stage2.soc_path[1:],
            cash,
            math.fsum(cash),
        )
        stage1_revenue = stage1.profit
        stage2_executed = stage2.discharges
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
