"""Conformalized quantile regression for the terminal state of charge.

Fits linear lower/upper quantile predictors of the policy's terminal SoC via
ℓ1-penalised pinball loss, calibrates a split-conformal width on held-out days, and emits
prediction intervals plus band certificates with empirical coverage metrics.
Days come in as one ``DayMatrix`` per split; :func:`label_days` turns one
into features and labels, and everything after it works on those arrays.
The labels come from one call of the policy's batch executor, the same in
every threshold mode, for a whole e0 sweep.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .market_data import DayMatrix, DayPrices, PriceBounds
from .reachability import TargetBand
from .thresholds import BatteryParams, _run_lanes

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FeatureScaler:
    """Frozen standardization statistics; zero-variance columns are dropped."""

    means: tuple[float, ...]
    scales: tuple[float, ...]
    keep: tuple[int, ...]

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureScaler":
        means = features.mean(axis=0)
        scales = features.std(axis=0)
        keep = tuple(int(i) for i in np.nonzero(scales > 1e-12)[0])
        if len(keep) < features.shape[1]:
            log.warning(
                "dropping %d zero-variance feature column(s)", features.shape[1] - len(keep)
            )
        return cls(tuple(float(m) for m in means), tuple(float(s) for s in scales), keep)

    def transform(self, features: np.ndarray) -> np.ndarray:
        arr = np.atleast_2d(np.asarray(features, dtype=float))
        # fewer columns than fitted are fine while every kept one is present:
        # older models carry a constant trailing e0 column they never kept
        width, fitted = arr.shape[1], len(self.means)
        if not max(self.keep, default=-1) < width <= fitted:
            raise ValueError(f"features have {width} columns but the model was fitted on {fitted}")
        means = np.array(self.means)[list(self.keep)]
        scales = np.array(self.scales)[list(self.keep)]
        return (arr[:, list(self.keep)] - means) / scales


def day_features(day: DayPrices) -> np.ndarray:
    """Raw feature vector: the day's hourly prices.

    The initial SoC, the same on every day of a fit, is not one: models saved
    with it as a last column still predict, as their scaler never kept it.
    """
    return np.array(day.values, dtype=float)


def label_days(
    days: DayMatrix,
    params_list: list[BatteryParams],
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    threshold_mode: str = "static",
) -> tuple[np.ndarray, np.ndarray]:
    """Day features (n, d) and each battery's terminal SoC labels (len(params_list), n).

    The one place the CQR layer runs the policy, for a whole e0 sweep at
    once: one call of the batch executor behind ``thresholds.policy_outcomes``,
    whose terminal SoC are the labels.  The batteries may differ only in
    ``e0``, so the features are shared: the days' read-only price matrix.
    """
    soc, _ = _run_lanes(days, params_list, [(k_ch, k_dis)], threshold_mode, bounds)
    return days.prices, soc[:, 0]


# the one default cap on the CQR solver's iterations: library, CLI and config
EPOCHS = 400
# a model stops once its duality gap is at most this share of 1 + |its dual
# objective|; each step goes this share of the way to the nearest bound
_GAP_TOL = 1e-6
_STEP = 0.9995
# the ℓ1 weight of :func:`l1_penalty`: the chance that noise alone would move
# a slope, and the margin over the noise.  Belloni & Chernozhukov take 1.1;
# on lattice labels 2 gave no lower band-certificate rate than 1.1 or 3 in any
# desk-grid or golden report (CHANGES.md), and coverage holds at any margin
PENALTY_LEVEL = 0.1
PENALTY_MARGIN = 2.0


def _pinball(x1, y, up, down, weights):
    """Each model's summed loss at its weights, one product per model.

    A row costs ``up`` per unit its label lies above the fit and ``down`` per
    unit below: θ and 1 - θ on a data row, which is the pinball loss, and 1
    both ways on a penalty row.
    """
    resid = y - np.matmul(x1[None], weights[:, :, None])[:, :, 0]
    return np.add.reduce(np.maximum(up * resid, -down * resid), axis=1)


def _independent_columns(gram, order):
    """The columns in ``order`` that are independent of the ones kept before them.

    A column is kept when its part orthogonal to the kept ones has a squared
    norm above 1e-10 of its own: the last pivot of a Cholesky factor of
    their Gram matrix.  A Cholesky factor, not an SVD or eigenvalues: those
    LAPACK routines raise a report's peak memory.
    """
    size = np.diagonal(gram)
    kept = []
    for j in order:
        try:
            last = np.linalg.cholesky(gram[np.ix_(kept + [j], kept + [j])])[-1, -1] ** 2
        except np.linalg.LinAlgError:
            continue
        if last > 1e-10 * size[j]:
            kept.append(j)
    return sorted(kept)


def _solve(matrices, rhs):
    """``np.linalg.solve`` of each stacked system as if solved alone; NaN where singular."""
    try:
        return np.linalg.solve(matrices, rhs)
    except np.linalg.LinAlgError:
        if len(matrices) == 1:
            return np.full(rhs.shape, np.nan)
        return np.concatenate([_solve(m[None], b[None]) for m, b in zip(matrices, rhs)])


def _room(v, dv):
    """Per model, the longest step along ``dv`` that keeps every entry of ``v`` non-negative."""
    return np.where(dv < 0.0, v / -dv, np.inf).min(axis=1)


def _steps(a, s, z, w, dx, dz, dw):
    """The primal and the dual step of m models: ``_STEP`` of the way to the nearest bound, ≤ 1."""
    primal = np.minimum(_room(a, dx), _room(s, -dx))
    dual = np.minimum(_room(z, dz), _room(w, dw))
    return np.minimum(_STEP * primal, 1.0), np.minimum(_STEP * dual, 1.0)


def _newton_step(x1, xt, state, dual):
    """One Frisch–Newton iteration of m models: predictor, then Mehrotra's corrector.

    ``state`` stacks the primal a, its slack s = u - a to its upper bound
    and the dual slacks z and w of the two bounds, each (m, n); ``xt`` is
    ``x1.T`` in C order.  The corrector replaces the predictor of each model
    whose predictor step a bound cuts short, as in Koenker's ``lp_fnm``.
    Every array is (m, n) or smaller, and each one a step no longer needs is
    dropped, so the solver's peak memory stays near a handful of label arrays.
    """
    a, s, z, w = state
    za, ws = z / a, w / s
    q = 1.0 / (za + ws)
    # one model at a time: a (m, p, n) stack of scaled rows would be the
    # largest array of a report
    normal = np.stack([(xt * qi) @ x1 for qi in q])

    def direction(rhs):
        """The Newton move of the dual (m, p) and of a (m, n) for ``rhs``."""
        # an explicit (m, p, 1) right-hand side: a stack of columns in every numpy
        dy = _solve(normal, np.matmul(xt, (q * rhs)[:, :, None]))
        return dy[:, :, 0], q * (np.matmul(x1, dy)[:, :, 0] - rhs)

    def slack_moves(dx, dxdz=0.0, dsdw=0.0, mu=0.0):
        """The moves of z and w that go with the move ``dx`` of a."""
        return mu / a - z - za * dx - dxdz, mu / s - w + ws * dx - dsdw

    r = z - w
    dy, dx = direction(r)
    dz, dw = slack_moves(dx)
    fp, fd = _steps(a, s, z, w, dx, dz, dw)
    short = np.minimum(fp, fd) < 1.0
    if short.any():
        # centred by how much of the complementarity the predictor would leave
        mu = (z * a + w * s).sum(axis=1)
        left = (z + fd[:, None] * dz) * (a + fp[:, None] * dx)
        left += (w + fd[:, None] * dw) * (s - fp[:, None] * dx)
        mu = (mu * (left.sum(axis=1) / mu) ** 3 / (2 * len(x1)))[:, None]
        del left
        dxdz, dsdw = dx * dz, -dx * dw
        dy_c, dx_c = direction(r + dxdz - dsdw - mu * (1.0 / a - 1.0 / s))
        dz_c, dw_c = slack_moves(dx_c, dxdz, dsdw, mu)
        del dxdz, dsdw
        fp_c, fd_c = _steps(a, s, z, w, dx_c, dz_c, dw_c)
        if short.all():
            dy, dx, dz, dw, fp, fd = dy_c, dx_c, dz_c, dw_c, fp_c, fd_c
        else:
            pick = short[:, None]
            dy, dx, dz, dw = (
                np.where(pick, c, p) for c, p in ((dy_c, dy), (dx_c, dx), (dz_c, dz), (dw_c, dw))
            )
            fp, fd = np.where(short, fp_c, fp), np.where(short, fd_c, fd)
        del dy_c, dx_c, dz_c, dw_c
    fp, fd = fp[:, None], fd[:, None]
    new = np.empty_like(state)
    moves = ((a, fp, dx), (s, -fp, dx), (z, fd, dz), (w, fd, dw))
    for out, (base, step, move) in zip(new, moves):
        np.multiply(step, move, out=out)
        out += base
    return new, dual + fd * dy


def _start(x1, xt, y, up, down):
    """The least-squares start: a at ``down``, and dual slacks z - w = r both lifted by 0.001.

    The lift leaves neither slack at 0 where a residual is 0 up to rounding.
    """
    gram = np.broadcast_to(xt @ x1, (len(y), len(xt), len(xt)))
    dual = -np.linalg.solve(gram, np.matmul(xt, y[:, :, None]))[:, :, 0]
    r = -y - np.matmul(x1, dual[:, :, None])[:, :, 0]
    z = np.maximum(r, 0.0) + 0.001
    return np.stack([down, up, z, z - r]), dual


def _frisch_newton(x1, y, up, down, iterations):
    """The (k, p) weights of k LPs over one full-column-rank design ``x1``.

    Each model minimises its :func:`_pinball` loss through Koenker's dual of
    quantile regression: minimise -y·a subject to x1ᵀa = x1ᵀ·down and
    0 ≤ a ≤ up + down, by the Frisch–Newton primal–dual interior point
    (Portnoy & Koenker, Statistical Science 1997).  The multipliers of the
    equality are the negated weights.  A model stops once its duality gap
    is at most ``_GAP_TOL`` of 1 + |its dual objective|, or at its last
    finite iterate; no model runs more than ``iterations`` steps.  No
    model's arithmetic reads another's, so each comes out as if solved alone.
    """
    xt = np.ascontiguousarray(x1.T)
    state, dual = _start(x1, xt, y, up, down)
    b = np.matmul(xt, down[:, :, None])[:, :, 0]
    upper = up + down

    def running(live, state, dual):
        """The models of ``live`` whose duality gap is still above the tolerance."""
        a, w = state[0], state[3]
        gap = (upper[live] * w).sum(axis=1) - (y[live] * a).sum(axis=1)
        gap -= (b[live] * dual).sum(axis=1)
        objective = (y[live] * (a - down[live])).sum(axis=1)
        return live[gap > _GAP_TOL * (1.0 + np.abs(objective))]

    live = running(np.arange(len(y)), state, dual)
    with np.errstate(all="ignore"):
        for _ in range(iterations):
            if live.size == 0:
                break
            # every model still runs in most iterations: then no copy is made
            whole = live.size == len(y)
            new_state, new_dual = _newton_step(
                x1, xt, state if whole else state[:, live], dual if whole else dual[live]
            )
            finite = np.isfinite(new_state).all(axis=(0, 2)) & np.isfinite(new_dual).all(axis=1)
            if not finite.all():
                live, new_state, new_dual = live[finite], new_state[:, finite], new_dual[finite]
            state[:, live], dual[live] = new_state, new_dual
            live = running(live, new_state, new_dual)
    return -dual


def _vertex(x1, y, rows, base):
    """Weights that fit each model's labels exactly on its p ``rows``: NaN where singular.

    Solved for the labels less ``base`` (k, 1) on each row that has an
    intercept, so that a basis whose labels all equal ``base`` gives slopes
    of exactly 0; the intercept is the last column.
    """
    picked = np.take_along_axis(y - base * x1[:, -1], rows, axis=1)[:, :, None]
    vertex = _solve(x1[rows], picked)[:, :, 0]
    vertex[:, -1] += base[:, 0]
    return vertex


def _purify(x1, y, up, down, weights):
    """The basis rows of a vertex reached from ``weights`` without raising the loss.

    From the point, each of p moves goes along a direction that keeps the
    rows found so far at zero residual and does not raise the loss, as far
    as the first row whose residual it brings to zero; that row joins the
    basis.  The loss is linear up to that row, so the vertex reached loses
    no more than the point did.  None if some move finds no such row.
    """
    p = x1.shape[1]
    resid = y - x1 @ weights
    sizes = np.sqrt((x1 * x1).sum(axis=1))
    basis = []
    for _ in range(p):
        # a direction in the null space of the basis rows
        delta = np.linalg.svd(x1[basis])[2][-1] if basis else np.eye(p)[-1]
        s = x1 @ delta
        if np.dot(np.where(resid > 0.0, up, -down), s) < 0.0:
            delta, s = -delta, -s
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where((resid * s >= 0.0) & (np.abs(s) > 1e-9 * sizes), resid / s, np.inf)
        row = int(np.argmin(reach))
        if not np.isfinite(reach[row]):
            return None
        resid = resid - reach[row] * s
        basis.append(row)
    return basis


def _crossover(x1, y, up, down, weights):
    """Move each interior-point model to a basic solution where that loses nothing.

    A model's basis is its p rows of smallest |residual|.  Where that
    vertex loses against the interior point (its rows repeat a direction,
    the optimum is not unique, or the interior point stopped early), the
    basis is the one :func:`_purify` reaches from the interior point.  A
    vertex replaces the interior point only if its loss is no
    worse, up to the rounding of the loss sum (1e-12 of the summed
    |labels|).  An interior point inside a face of optima carries the
    rounding of every iterate; a vertex is one small square solve, and it
    moves only where the rounding changes which rows are chosen.
    """
    p = x1.shape[1]
    resid = y - np.matmul(x1[None], weights[:, :, None])[:, :, 0]
    order = np.argsort(np.abs(resid), axis=1, kind="stable")
    # the first basis row's label
    base = np.take_along_axis(y, order[:, :1], axis=1)
    vertex = _vertex(x1, y, order[:, :p], base)
    limit = _pinball(x1, y, up, down, weights) + 1e-12 * np.add.reduce(np.abs(y), axis=1)
    keep = _pinball(x1, y, up, down, vertex) <= limit
    for i in np.flatnonzero(~keep):
        one = slice(i, i + 1)
        rows = _purify(x1, y[i], up[i], down[i], weights[i])
        if rows is not None:
            retry = _vertex(x1, y[one], np.array([rows]), base[one])
            if _pinball(x1, y[one], up[one], down[one], retry)[0] <= limit[i]:
                vertex[i], keep[i] = retry[0], True
    return np.where(keep[:, None], vertex, weights)


def l1_penalty(n: int, d: int, theta: float) -> float:
    """The ℓ1 weight of the slopes of a level-θ fit on n rows of d standardized features.

    The pivotal rule of Belloni & Chernozhukov (Annals of Statistics, 2011):
    at the true quantile each feature's pinball subgradient is a sum of n
    terms of variance θ(1 - θ), and the weight
    ``PENALTY_MARGIN·sqrt(θ(1 - θ)·n)·Φ⁻¹(1 - PENALTY_LEVEL / 2d)`` exceeds
    all d of them but with probability about ``PENALTY_LEVEL``.  So a slope
    enters the fit only where it lowers the loss by more than its noise can.
    """
    # Φ⁻¹ by bisection on math.erfc: ``statistics.NormalDist`` would import
    # ``decimal`` and ``fractions`` and raise a report's peak memory
    tail, lo, hi = PENALTY_LEVEL / (2 * max(d, 1)), 0.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if 0.5 * math.erfc(mid / math.sqrt(2.0)) > tail else (lo, mid)
    return PENALTY_MARGIN * math.sqrt(theta * (1.0 - theta) * n) * lo


def _zero_slopes(x, y, th, penalty):
    """Each model's order statistic q = y₍⌈nθ⌉₎, and (k, d) where zero slopes pass the KKT test.

    The pinball subgradient g at q is θ above q, θ - 1 below, and on the
    rows tied at q the share that makes Σg = 0, which the rank keeps in
    [θ - 1, θ].  Column j passes where |x_jᵀg| < λ(1 - 1e-9); where all of
    a model's pass, complementary slackness makes every optimum's slopes 0.
    """
    # n·θ rounded to a double: 20 × 0.05 is 1, so the rank is 1, not 2
    ranks = np.ceil(len(x) * th).astype(int) - 1
    q = np.sort(y, axis=1)[np.arange(len(y)), ranks][:, None]
    below = np.count_nonzero(y < q, axis=1)
    g0 = th - (len(x) * th - below) / np.count_nonzero(y == q, axis=1)
    g = np.where(y > q, th[:, None], np.where(y < q, th[:, None] - 1.0, g0[:, None]))
    # one product per model: a model's screen does not depend on its batch
    return q[:, 0], np.abs(np.matmul(g[:, None], x)[:, 0]) < penalty * (1.0 - 1e-9)


def train_quantile_models(
    features, labels, thetas, epochs: int = EPOCHS, penalty: float = 0.0
) -> np.ndarray:
    """k linear quantile predictors over one feature matrix, each an exact LP minimiser.

    Row i of ``labels`` (k, n) is fit at level ``thetas[i]``: its weights
    minimise the summed pinball loss plus ``penalty`` times the summed
    |slopes|, a linear program.  The penalty is d more rows λ·e_j, one per
    slope, of label 0 and cost 1 both ways (see :func:`_pinball`), as in
    Koenker's ``rq.fit.lasso``.  The LP's columns are the intercept and
    every feature column independent of it and of the columns before; a
    column left out gets weight 0, as all are with fewer rows than features
    plus one, where the unpenalised LP only interpolates.  A model whose
    zero slopes :func:`_zero_slopes` proves optimal, which it always does
    without slope columns and never at penalty 0 with them, is zero slopes
    and the intercept y₍⌈nθ⌉₎ (Koenker & Bassett, Econometrica 1978), with
    no solver.  The rest are solved together by :func:`_frisch_newton` in
    at most ``epochs`` iterations and cross over to a basic solution (see
    :func:`_crossover`).  ``epochs = 0`` returns the untrained start: zero
    slopes and the intercept at the labels' θ-quantile.  Returns (k, d + 1)
    weights, intercept last.  Features must already be standardized.

    Model i comes out bit for bit as if fit alone: every product and solve
    is one per model, and every per-model sum reduces one row.
    """
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 1 or not np.all((th > 0.0) & (th < 1.0)):
        raise ValueError("theta must lie in (0, 1)")
    try:
        epochs = operator.index(epochs)
    except TypeError:
        raise ValueError(f"epochs must be an integer, got {epochs!r}") from None
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    if not (math.isfinite(penalty) and penalty >= 0.0):
        raise ValueError(f"penalty must be finite and non-negative, got {penalty!r}")
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    k = th.size
    if x.ndim != 2 or x.shape[0] == 0 or y.shape != (k, x.shape[0]):
        raise ValueError("features and labels must be non-empty and aligned")
    n, d = x.shape
    weights = np.zeros((k, d + 1))
    if epochs == 0:
        weights[:, -1] = [np.quantile(row, theta) for row, theta in zip(y, th)]
        return weights
    weights[:, d], passed = _zero_slopes(x, y, th, penalty)
    x1 = np.column_stack([x, np.ones(n)])
    cols = [d] if n < d + 1 or passed.all() else _independent_columns(x1.T @ x1, [d, *range(d)])
    refused = np.flatnonzero(~passed[:, cols[:-1]].all(axis=1))
    if refused.size == 0:
        return weights
    if len(cols) <= d:
        x1 = x1[:, cols]
    slopes = len(cols) - 1
    y, up = y[refused], np.repeat(th[refused, None], n, axis=1)
    down = 1.0 - up
    if penalty:
        x1 = np.vstack([x1, penalty * np.eye(slopes, slopes + 1)])
        y = np.column_stack([y, np.zeros((len(y), slopes))])
        up, down = (np.column_stack([u, np.ones((len(y), slopes))]) for u in (up, down))
    fit = _frisch_newton(x1, y, up, down, epochs)
    weights[np.ix_(refused, cols)] = _crossover(x1, y, up, down, fit)
    return weights


def train_quantile_model(
    features, labels, theta: float, epochs: int = EPOCHS, penalty: float = 0.0
) -> np.ndarray:
    """One linear quantile predictor, intercept last: :func:`train_quantile_models` with k = 1."""
    labels = np.asarray(labels, dtype=float)[None]
    return train_quantile_models(features, labels, [theta], epochs, penalty)[0]


def _predict(weights: np.ndarray, x_std: np.ndarray) -> np.ndarray:
    return x_std @ weights[:-1] + weights[-1]


@dataclass(frozen=True)
class ConformalModel:
    """Calibrated lower/upper quantile predictors with conformal width."""

    low_weights: tuple[float, ...]
    high_weights: tuple[float, ...]
    rho_low: float
    rho_high: float
    delta_hat: float
    scaler: FeatureScaler

    def to_json(self) -> str:
        return json.dumps(
            {
                "weights_low": list(self.low_weights),
                "weights_high": list(self.high_weights),
                "rho_low": self.rho_low,
                "rho_high": self.rho_high,
                "delta_hat": self.delta_hat,
                "standardizer": {
                    "means": list(self.scaler.means),
                    "scales": list(self.scaler.scales),
                    "keep": list(self.scaler.keep),
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ConformalModel":
        """Load a model file, rejecting any that the predictor cannot apply as written."""
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError(f"model must be a JSON object, got {type(doc).__name__}")
        try:
            std = doc["standardizer"]
            scaler = FeatureScaler(
                tuple(map(float, std["means"])),
                tuple(map(float, std["scales"])),
                tuple(map(operator.index, std["keep"])),
            )
            model = cls(
                tuple(map(float, doc["weights_low"])),
                tuple(map(float, doc["weights_high"])),
                float(doc["rho_low"]),
                float(doc["rho_high"]),
                float(doc["delta_hat"]),
                scaler,
            )
        except KeyError as exc:
            raise ValueError(f"model is missing key {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"malformed model: {exc}") from None
        model._check()
        return model

    def _check(self) -> None:
        """Raise ValueError naming the first field that makes the model unusable.

        Columns the scaler does not keep are never read, so their statistics
        go unchecked: older models carry a constant trailing e0 column there.
        """
        means, scales, keep = self.scaler.means, self.scaler.scales, self.scaler.keep
        if len(means) != len(scales):
            raise ValueError(
                f"standardizer.means has {len(means)} entries but standardizer.scales "
                f"has {len(scales)}"
            )
        if any(not 0 <= i < len(means) for i in keep) or any(
            a >= b for a, b in zip(keep, keep[1:])
        ):
            raise ValueError(
                f"standardizer.keep must list distinct column indices in [0, {len(means)}) "
                f"in increasing order, got {list(keep)}"
            )
        for i in keep:
            if not (math.isfinite(scales[i]) and scales[i] > 1e-12):
                raise ValueError(
                    f"standardizer.scales[{i}] = {scales[i]!r} is kept, so it must be "
                    "finite and above 1e-12"
                )
            if not math.isfinite(means[i]):
                raise ValueError(
                    f"standardizer.means[{i}] = {means[i]!r} is kept, so it must be finite"
                )
        named = (("weights_low", self.low_weights), ("weights_high", self.high_weights))
        for name, weights in named:
            if len(weights) != len(keep) + 1:
                raise ValueError(
                    f"{name} has {len(weights)} entries; {len(keep)} kept columns "
                    f"and an intercept need {len(keep) + 1}"
                )
            for i, w in enumerate(weights):
                if not math.isfinite(w):
                    raise ValueError(f"{name}[{i}] = {w!r} must be finite")
        # scores are never negative, so neither is the width calibration writes
        if not (math.isfinite(self.delta_hat) and self.delta_hat >= 0.0):
            raise ValueError(f"delta_hat must be finite and non-negative, got {self.delta_hat!r}")
        # the calibration rule writes rho_low = epsilon / 2 and rho_high = 1 - rho_low
        if not 0.0 < self.rho_low < 0.5:
            raise ValueError(f"rho_low must lie in (0, 0.5), got {self.rho_low!r}")
        if self.rho_high != 1.0 - self.rho_low:
            raise ValueError(
                f"rho_high must equal 1 - rho_low = {1.0 - self.rho_low!r}, "
                f"got {self.rho_high!r}"
            )


@dataclass(frozen=True)
class PredictionInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval lower edge above upper edge")


def nonconformity_scores(
    low_weights: np.ndarray,
    high_weights: np.ndarray,
    scaler: FeatureScaler,
    features: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """S_n = max(q_low(x) - y, y - q_high(x), 0): distance outside the interval."""
    if len(labels) == 0:
        raise ValueError("calibration set must be non-empty")
    x = scaler.transform(features)
    q_low = _predict(np.asarray(low_weights), x)
    q_high = _predict(np.asarray(high_weights), x)
    y = np.asarray(labels, dtype=float)
    if q_low.size != y.size:
        raise ValueError(f"{q_low.size} feature rows but {y.size} labels")
    return np.maximum.reduce([q_low - y, y - q_high, np.zeros_like(y)])


def conformal_quantile(scores, epsilon: float) -> float:
    """Empirical gamma-quantile of the scores, gamma = ceil((n+1)(1-eps))/n.

    Returns the order statistic at 1-based index ceil((n+1)(1-eps)); raises
    when that index exceeds n (calibration set too small for the risk level).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    arr = np.sort(np.asarray(scores, dtype=float))
    n = arr.size
    if n == 0:
        raise ValueError("scores must be non-empty")
    idx = math.ceil((n + 1) * (1.0 - epsilon))
    if idx > n:
        raise ValueError(
            f"calibration set of {n} too small for epsilon={epsilon}; "
            f"need at least {math.ceil((1.0 - epsilon) / epsilon)} points"
        )
    return float(arr[idx - 1])


def calibrate(
    model: ConformalModel, features: np.ndarray, labels: np.ndarray, epsilon: float
) -> ConformalModel:
    """The one calibration rule: the model with its conformal width refit at epsilon.

    The quantile predictors and the scaler are kept; ``rho_low``, ``rho_high``
    and ``delta_hat`` are refit from the calibration days' features and
    terminal SoC labels, as :func:`label_days` gives them.
    """
    scores = nonconformity_scores(
        model.low_weights, model.high_weights, model.scaler, features, labels
    )
    return replace(
        model,
        rho_low=epsilon / 2.0,
        rho_high=1.0 - epsilon / 2.0,
        delta_hat=conformal_quantile(scores, epsilon),
    )


def fit_conformal_models(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_cal: np.ndarray,
    y_cal: np.ndarray,
    epsilon: float,
    epochs: int = EPOCHS,
) -> list[ConformalModel]:
    """One calibrated model per battery, fit on the same labelled days.

    ``x_train``, ``y_train`` and ``x_cal``, ``y_cal`` are the train and the
    calibration days as :func:`label_days` gives them for a sweep of
    batteries that differ only in ``e0``: one label row per battery.  Day
    features do not depend on the battery, so the scaler is fit once and
    its zero-variance warning logs once per sweep.  The 2 × len(y_train)
    quantile predictors, at levels epsilon / 2 and 1 - epsilon / 2, train in
    one :func:`train_quantile_models` call, their slopes held back by the
    :func:`l1_penalty` of the train days' shape alone, so the calibration
    days stay unseen until :func:`calibrate`, as split conformal needs.
    Most have zero slopes, which the KKT screen proves without the solver.
    Each model, screened or solved, equals bit for bit what
    :func:`train_quantile_model` and :func:`calibrate` give for it alone.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if len(y_cal) != len(y_train):
        raise ValueError(f"{len(y_train)} train label rows but {len(y_cal)} calibration rows")
    scaler = FeatureScaler.fit(x_train)
    # rows low, high per battery, in the order of the label rows
    labels = np.repeat(y_train, 2, axis=0)
    thetas = [epsilon / 2.0, 1.0 - epsilon / 2.0] * len(y_train)
    x_std = scaler.transform(x_train)
    # θ(1 - θ) is the same at both levels, and so is the penalty
    penalty = l1_penalty(*x_std.shape, epsilon / 2.0)
    weights = train_quantile_models(x_std, labels, thetas, epochs, penalty)
    models = []
    for low_w, high_w, y in zip(weights[::2], weights[1::2], y_cal):
        low, high = tuple(map(float, low_w)), tuple(map(float, high_w))
        # the levels and the width are the calibration rule's to set
        model = ConformalModel(low, high, math.nan, math.nan, math.nan, scaler)
        models.append(calibrate(model, x_cal, y, epsilon))
    return models


def fit_conformal(
    train_days: DayMatrix,
    calib_days: DayMatrix,
    params: BatteryParams,
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    epsilon: float,
    threshold_mode: str = "static",
    epochs: int = EPOCHS,
) -> ConformalModel:
    """Train both quantile predictors, then :func:`calibrate` the conformal width.

    The one-battery case of :func:`fit_conformal_models`, on the train and
    the calibration days as :func:`label_days` labels each.
    """
    x_train, y_train = label_days(train_days, [params], bounds, k_ch, k_dis, threshold_mode)
    x_cal, y_cal = label_days(calib_days, [params], bounds, k_ch, k_dis, threshold_mode)
    return fit_conformal_models(x_train, y_train, x_cal, y_cal, epsilon, epochs)[0]


def predict_intervals(model: ConformalModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conformalized intervals [q_low - delta_hat, q_high + delta_hat], one per row.

    Returns the lower and upper edges.  Crossed raw quantiles are swapped
    before widening.  Clipping to capacity is a reporting concern and never
    happens here.  Each row is predicted as a one-row matrix of its own, so
    its edges are bit for bit those of :func:`predict_interval` on that row.
    """
    # transform returns an F-ordered array, whose rows a stacked product
    # would read with a stride and round differently
    x = np.ascontiguousarray(model.scaler.transform(features))[:, None, :]
    q_low = _predict(np.array(model.low_weights), x)[:, 0]
    q_high = _predict(np.array(model.high_weights), x)[:, 0]
    crossed = q_low > q_high
    lo = np.where(crossed, q_high, q_low) - model.delta_hat
    hi = np.where(crossed, q_low, q_high) + model.delta_hat
    if np.any(lo > hi):
        raise ValueError("interval lower edge above upper edge")
    return lo, hi


def predict_interval(model: ConformalModel, features: np.ndarray) -> PredictionInterval:
    """One day's interval: the one-row case of :func:`predict_intervals`."""
    lo, hi = predict_intervals(model, features)
    return PredictionInterval(float(lo[0]), float(hi[0]))


@dataclass(frozen=True)
class CoverageReport:
    marginal_coverage: float
    band_certificate_rate: float
    mean_interval_width: float
    n_test: int


def evaluate_coverage(
    model: ConformalModel,
    features: np.ndarray,
    labels: np.ndarray,
    band: TargetBand | None = None,
) -> CoverageReport:
    """Marginal coverage and band-certificate rate on labelled test days.

    ``features`` and ``labels`` are one battery's test days as
    :func:`label_days` gives them.  A day is covered when its realized
    terminal SoC falls inside the conformal interval; it certifies the band
    when the whole interval is contained in the band.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("test set must be non-empty")
    lo, hi = predict_intervals(model, features)
    if lo.size != n:
        raise ValueError(f"{lo.size} feature rows but {n} labels")
    covered = int(np.count_nonzero((lo - 1e-12 <= labels) & (labels <= hi + 1e-12)))
    # the band rule of p_band and the stopping time: TargetBand.contains
    certified = 0 if band is None else np.count_nonzero(band.contains(lo) & band.contains(hi))
    return CoverageReport(
        marginal_coverage=covered / n,
        band_certificate_rate=certified / n,
        mean_interval_width=float(np.mean(hi - lo)),
        n_test=n,
    )
