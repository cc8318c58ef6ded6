"""Conformalized quantile regression for the terminal state of charge.

Fits linear lower/upper quantile predictors of the policy's terminal SoC via
pinball loss, calibrates a split-conformal width on held-out days, and emits
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
            raise ValueError(
                f"features have {width} columns but the model was fitted on {fitted}"
            )
        means = np.array(self.means)[list(self.keep)]
        scales = np.array(self.scales)[list(self.keep)]
        return (arr[:, list(self.keep)] - means) / scales


def day_features(day: DayPrices) -> np.ndarray:
    """Raw feature vector: the day's hourly prices.

    The initial SoC is not a feature: it is the same for every day of a fit.
    Models saved when it was appended as a last column still predict, because
    their scaler never kept that constant column.
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
    once: one call of the batch executor behind
    ``thresholds.policy_outcomes``, whose profits it does not sum.  The
    labels are that executor's terminal SoC.  The batteries may differ only
    in ``e0``, so the features, which do not depend on the battery, are
    shared: they are the days' read-only price matrix itself.
    """
    soc, _ = _run_lanes(days, params_list, [(k_ch, k_dis)], threshold_mode, bounds)
    return days.prices, soc[:, 0]


def train_quantile_models(
    features: np.ndarray,
    labels: np.ndarray,
    thetas,
    epochs: int = 600,
    step0: float | None = None,
    return_history: bool = False,
):
    """k linear quantile predictors fit in lock-step over one feature matrix.

    Row i of ``labels`` (k, n) is fit at level ``thetas[i]`` by deterministic
    full-batch subgradient descent on the pinball loss.  Each intercept starts
    at the empirical theta-quantile of its labels.  Each model keeps its own
    step.  A move is kept when it raises that model's epoch loss by at most
    1e-15; otherwise it is dropped and the step halves.  ``step0`` is the
    start step of every model, finite and positive; None starts each at its
    own label spread.  Returns the (k, d + 1) weights, intercept last, plus
    the k per-epoch loss traces when ``return_history``.  Features must
    already be standardized.

    Model i comes out bit for bit as if fit alone: every product is one
    matrix-vector product per model over a broadcast view of the features
    (a (n, d) @ (d, k) product rounds differently), and every per-model sum
    reduces one row of a C-ordered (k, n) array.
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
    if step0 is not None and not (math.isfinite(step0) and step0 > 0.0):
        raise ValueError(f"step0 must be finite and positive, got {step0!r}")
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    k = th.size
    if x.ndim != 2 or x.shape[0] == 0 or y.shape != (k, x.shape[0]):
        raise ValueError("features and labels must be non-empty and aligned")
    n, d = x.shape
    xs = np.broadcast_to(x, (k, n, d))
    xts = np.broadcast_to(x.T, (k, d, n))
    # the pinball slope at each residual r: theta where r > 0, theta - 1
    # otherwise.  slope * r is the loss term max(theta * r, (theta - 1) * r)
    # up to the sign of a zero, which no sum of these terms keeps; -slope is
    # the subgradient, so each move is the plain descent step negated
    gain = np.repeat(th[:, None], n, axis=1)
    cost = gain - 1.0
    w = np.zeros((k, d))
    b = np.array([np.quantile(row, theta) for row, theta in zip(y, th)])
    step = np.array([step0 if step0 is not None else max(float(row.std()), 1e-8) for row in y])
    fitted = np.empty((k, n, 1))
    moved = np.empty((k, d, 1))

    def slope_and_loss(w, b):
        np.matmul(xs, w[:, :, None], out=fitted)
        resid = y - (fitted[:, :, 0] + b[:, None])
        slope = np.where(resid > 0, gain, cost)
        # np.mean is this same sum divided by n
        return slope, np.add.reduce(slope * resid, axis=1) / n

    # the slope at the current (w, b): computed once per accepted move
    slope, loss = slope_and_loss(w, b)
    history = [loss]
    for _ in range(epochs):
        np.matmul(xts, slope[:, :, None], out=moved)
        w_new = w + step[:, None] * moved[:, :, 0] / n
        b_new = b + step * (np.add.reduce(slope, axis=1) / n)
        slope_new, loss_new = slope_and_loss(w_new, b_new)
        accept = loss_new <= loss + 1e-15
        if accept.all():
            w, b, slope, loss = w_new, b_new, slope_new, loss_new
        else:
            w = np.where(accept[:, None], w_new, w)
            b = np.where(accept, b_new, b)
            slope = np.where(accept[:, None], slope_new, slope)
            loss = np.where(accept, loss_new, loss)
            step = np.where(accept, step, step * 0.5)
        history.append(loss)
    weights = np.column_stack([w, b])
    if return_history:
        return weights, np.array(history).T.tolist()
    return weights


def train_quantile_model(
    features: np.ndarray,
    labels: np.ndarray,
    theta: float,
    epochs: int = 600,
    step0: float | None = None,
    return_history: bool = False,
):
    """One linear quantile predictor: :func:`train_quantile_models` with k = 1.

    Returns weights with the intercept last (plus the per-epoch loss trace
    when ``return_history``).
    """
    out = train_quantile_models(
        features, np.asarray(labels, dtype=float)[None], [theta], epochs, step0, return_history
    )
    if return_history:
        return out[0][0], out[1][0]
    return out[0]


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
        doc = json.loads(text)
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
    epochs: int = 600,
) -> list[ConformalModel]:
    """One calibrated model per battery, fit on the same labelled days.

    ``x_train``, ``y_train`` and ``x_cal``, ``y_cal`` are the train and the
    calibration days as :func:`label_days` gives them for a sweep of
    batteries that differ only in ``e0``: one label row per battery.  Day
    features do not depend on the battery, so the scaler is fit once (its
    zero-variance warning logs once per sweep, not once per battery).  The
    2 × len(y_train) quantile predictors train in one
    :func:`train_quantile_models` call at levels epsilon / 2 and
    1 - epsilon / 2, and each model is set by :func:`calibrate`.  Each model
    equals bit for bit what :func:`train_quantile_model` and
    :func:`calibrate` give for its battery alone.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if len(y_cal) != len(y_train):
        raise ValueError(f"{len(y_train)} train label rows but {len(y_cal)} calibration rows")
    scaler = FeatureScaler.fit(x_train)
    # rows low, high per battery, in the order of the label rows
    labels = np.repeat(y_train, 2, axis=0)
    thetas = [epsilon / 2.0, 1.0 - epsilon / 2.0] * len(y_train)
    weights = train_quantile_models(scaler.transform(x_train), labels, thetas, epochs=epochs)
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
    epochs: int = 600,
) -> ConformalModel:
    """Train both quantile predictors, then :func:`calibrate` the conformal width.

    The one-battery case of :func:`fit_conformal_models`, on the train and
    the calibration days as :func:`label_days` labels each.
    """
    x_train, y_train = label_days(train_days, [params], bounds, k_ch, k_dis, threshold_mode)
    x_cal, y_cal = label_days(calib_days, [params], bounds, k_ch, k_dis, threshold_mode)
    return fit_conformal_models(x_train, y_train, x_cal, y_cal, epsilon, epochs)[0]


def predict_intervals(
    model: ConformalModel, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
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
    certified = 0
    if band is not None:
        certified = int(np.count_nonzero((lo >= band.lo - 1e-12) & (hi <= band.hi + 1e-12)))
    return CoverageReport(
        marginal_coverage=covered / n,
        band_certificate_rate=(certified / n) if band is not None else 0.0,
        mean_interval_width=float(np.mean(hi - lo)),
        n_test=n,
    )
