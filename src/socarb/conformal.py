"""Conformalized quantile regression for the terminal state of charge.

Fits linear lower/upper quantile predictors of the policy's terminal SoC via
pinball loss, calibrates a split-conformal width on held-out days, and emits
prediction intervals plus band certificates with empirical coverage metrics.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .market_data import DayPrices, PriceBounds
from .reachability import TargetBand
from .thresholds import BatteryParams, run_policy_days

log = logging.getLogger(__name__)


def pinball_loss(y: float, yhat: float, theta: float) -> float:
    """L_theta(y, yhat) = max(theta*(y - yhat), (theta - 1)*(y - yhat))."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    diff = y - yhat
    return max(theta * diff, (theta - 1.0) * diff)


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
    days: list[DayPrices],
    params: BatteryParams,
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    threshold_mode: str = "static",
) -> tuple[np.ndarray, np.ndarray]:
    """Run the policy on each day and pair features with the terminal SoC."""
    trajs = run_policy_days(days, params, k_ch, k_dis, threshold_mode, bounds)
    feats = [day_features(day) for day in days]
    labels = [traj.soc_path[-1] for traj in trajs]
    return np.array(feats), np.array(labels)


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
    step, which halves whenever a move would raise that model's epoch loss, so
    every loss trace is non-increasing.  ``step0`` is the start step of every
    model; None starts each at its own label spread.  Returns the
    (k, d + 1) weights, intercept last, plus the k per-epoch loss traces when
    ``return_history``.  Features must already be standardized.

    Model i comes out bit for bit as if fit alone: every product is one
    matrix-vector product per model over a broadcast view of the features
    (a (n, d) @ (d, k) product rounds differently), and every per-model sum
    reduces one row of a C-ordered (k, n) array.
    """
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 1 or not np.all((th > 0.0) & (th < 1.0)):
        raise ValueError("theta must lie in (0, 1)")
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    k = th.size
    if x.ndim != 2 or x.shape[0] == 0 or y.shape != (k, x.shape[0]):
        raise ValueError("features and labels must be non-empty and aligned")
    n, d = x.shape
    xs = np.broadcast_to(x, (k, n, d))
    xts = np.broadcast_to(x.T, (k, d, n))
    gain, cost = th[:, None], th[:, None] - 1.0
    w = np.zeros((k, d))
    b = np.array([np.quantile(row, theta) for row, theta in zip(y, th)])
    step = np.array([step0 if step0 is not None else max(float(row.std()), 1e-8) for row in y])

    def residual(w, b):
        return y - (np.matmul(xs, w[:, :, None])[:, :, 0] + b[:, None])

    def mean_loss(diff):
        # np.mean is this same sum divided by n
        return np.add.reduce(np.maximum(gain * diff, cost * diff), axis=1) / n

    # the residuals of the current (w, b): computed once per accepted move
    resid = residual(w, b)
    loss = mean_loss(resid)
    history = [loss]
    for _ in range(epochs):
        grad = np.where(resid > 0, -gain, 1.0 - gain)
        w_new = w - step[:, None] * np.matmul(xts, grad[:, :, None])[:, :, 0] / n
        b_new = b - step * (np.add.reduce(grad, axis=1) / n)
        resid_new = residual(w_new, b_new)
        loss_new = mean_loss(resid_new)
        accept = loss_new <= loss + 1e-15
        w = np.where(accept[:, None], w_new, w)
        b = np.where(accept, b_new, b)
        resid = np.where(accept[:, None], resid_new, resid)
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
        if not math.isfinite(self.delta_hat):
            raise ValueError(f"delta_hat must be finite, got {self.delta_hat!r}")


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
    model: ConformalModel,
    calib_days: list[DayPrices],
    params: BatteryParams,
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    epsilon: float,
    threshold_mode: str = "static",
) -> ConformalModel:
    """Refit the model's conformal width on calibration days at risk level epsilon.

    The quantile predictors and the scaler are kept; ``rho_low``, ``rho_high``
    and ``delta_hat`` are refit.
    """
    x_cal, y_cal = label_days(calib_days, params, bounds, k_ch, k_dis, threshold_mode)
    scores = nonconformity_scores(model.low_weights, model.high_weights, model.scaler, x_cal, y_cal)
    return replace(
        model,
        rho_low=epsilon / 2.0,
        rho_high=1.0 - epsilon / 2.0,
        delta_hat=conformal_quantile(scores, epsilon),
    )


def fit_conformal_models(
    train_days: list[DayPrices],
    calib_days: list[DayPrices],
    params_list: list[BatteryParams],
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    epsilon: float,
    threshold_mode: str = "static",
    epochs: int = 600,
) -> list[ConformalModel]:
    """One calibrated model per battery in ``params_list``, fit on the same days.

    Day features do not depend on the battery, so the scaler is fit once (its
    zero-variance warning logs once per sweep, not once per battery), and the
    2 × len(params_list) quantile predictors train in one
    :func:`train_quantile_models` call.  Each model is then
    :func:`calibrate`-d on its own labels, and equals bit for bit what
    :func:`fit_conformal` gives for its battery.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    rho_low = epsilon / 2.0
    rho_high = 1.0 - epsilon / 2.0
    labelled = [
        label_days(train_days, params, bounds, k_ch, k_dis, threshold_mode)
        for params in params_list
    ]
    x_train = labelled[0][0]
    scaler = FeatureScaler.fit(x_train)
    # rows low, high per battery, in params_list order
    labels = np.repeat([y for _, y in labelled], 2, axis=0)
    thetas = [rho_low, rho_high] * len(params_list)
    weights = train_quantile_models(scaler.transform(x_train), labels, thetas, epochs=epochs)
    models = []
    for params, low_w, high_w in zip(params_list, weights[::2], weights[1::2]):
        low, high = tuple(map(float, low_w)), tuple(map(float, high_w))
        # delta_hat is calibrate's to set
        model = ConformalModel(low, high, rho_low, rho_high, math.nan, scaler)
        models.append(
            calibrate(model, calib_days, params, bounds, k_ch, k_dis, epsilon, threshold_mode)
        )
    return models


def fit_conformal(
    train_days: list[DayPrices],
    calib_days: list[DayPrices],
    params: BatteryParams,
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    epsilon: float,
    threshold_mode: str = "static",
    epochs: int = 600,
) -> ConformalModel:
    """Train both quantile predictors, then :func:`calibrate` the conformal width.

    The one-battery case of :func:`fit_conformal_models`.
    """
    return fit_conformal_models(
        train_days, calib_days, [params], bounds, k_ch, k_dis, epsilon, threshold_mode, epochs
    )[0]


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
    test_days: list[DayPrices],
    params: BatteryParams,
    bounds: PriceBounds,
    k_ch: int,
    k_dis: int,
    band: TargetBand | None = None,
    threshold_mode: str = "static",
) -> CoverageReport:
    """Marginal coverage and band-certificate rate on a test set.

    A day is covered when its realized terminal SoC falls inside the
    conformal interval; it certifies the band when the whole interval is
    contained in the band.
    """
    if not test_days:
        raise ValueError("test set must be non-empty")
    x_test, y_test = label_days(test_days, params, bounds, k_ch, k_dis, threshold_mode)
    lo, hi = predict_intervals(model, x_test)
    covered = int(np.count_nonzero((lo - 1e-12 <= y_test) & (y_test <= hi + 1e-12)))
    certified = 0
    if band is not None:
        certified = int(np.count_nonzero((lo >= band.lo - 1e-12) & (hi <= band.hi + 1e-12)))
    n = len(test_days)
    return CoverageReport(
        marginal_coverage=covered / n,
        band_certificate_rate=(certified / n) if band is not None else 0.0,
        mean_interval_width=float(np.mean(hi - lo)),
        n_test=n,
    )
