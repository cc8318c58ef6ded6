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


def train_quantile_model(
    features: np.ndarray,
    labels: np.ndarray,
    theta: float,
    epochs: int = 600,
    step0: float | None = None,
    return_history: bool = False,
):
    """Linear quantile predictor fit by deterministic subgradient descent.

    The intercept starts at the empirical theta-quantile of the labels and the
    step halves whenever a full-batch move would raise the epoch loss, which
    keeps the loss non-increasing.  Returns weights with the intercept last
    (plus the per-epoch loss trace when ``return_history``).  Features must
    already be standardized.  Full-batch training is deterministic.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {epochs}")
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError("features and labels must be non-empty and aligned")
    n, d = x.shape
    w = np.zeros(d)
    b = float(np.quantile(y, theta))
    step = step0 if step0 is not None else max(float(y.std()), 1e-8)

    def mean_loss(diff):
        # np.mean is this same sum divided by n
        return float(np.add.reduce(np.maximum(theta * diff, (theta - 1.0) * diff))) / n

    # the residual of the current (w, b): computed once per accepted move
    resid = y - (x @ w + b)
    loss = mean_loss(resid)
    history = [loss]
    for _ in range(epochs):
        grad = np.where(resid > 0, -theta, 1.0 - theta)
        w_new = w - step * (x.T @ grad) / n
        b_new = b - step * (float(np.add.reduce(grad)) / n)
        resid_new = y - (x @ w_new + b_new)
        loss_new = mean_loss(resid_new)
        if loss_new <= loss + 1e-15:
            w, b, loss, resid = w_new, b_new, loss_new, resid_new
        else:
            step *= 0.5
        history.append(loss)
    weights = np.append(w, b)
    if return_history:
        return weights, history
    return weights


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

    def quantiles(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = self.scaler.transform(features)
        return _predict(np.array(self.low_weights), x), _predict(np.array(self.high_weights), x)

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
            return cls(
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


@dataclass(frozen=True)
class PredictionInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval lower edge above upper edge")

    @property
    def width(self) -> float:
        return self.hi - self.lo


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
    """Train both quantile predictors, then :func:`calibrate` the conformal width."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    rho_low = epsilon / 2.0
    rho_high = 1.0 - epsilon / 2.0
    x_train, y_train = label_days(train_days, params, bounds, k_ch, k_dis, threshold_mode)
    scaler = FeatureScaler.fit(x_train)
    x_std = scaler.transform(x_train)
    low_w = train_quantile_model(x_std, y_train, rho_low, epochs=epochs)
    high_w = train_quantile_model(x_std, y_train, rho_high, epochs=epochs)
    low, high = tuple(map(float, low_w)), tuple(map(float, high_w))
    # delta_hat is calibrate's to set
    model = ConformalModel(low, high, rho_low, rho_high, math.nan, scaler)
    return calibrate(model, calib_days, params, bounds, k_ch, k_dis, epsilon, threshold_mode)


def predict_interval(model: ConformalModel, features: np.ndarray) -> PredictionInterval:
    """Conformalized interval [q_low - delta_hat, q_high + delta_hat].

    Crossed raw quantiles are swapped before widening.  Clipping to capacity is
    a reporting concern and never happens here.
    """
    q_low, q_high = model.quantiles(features)
    lo, hi = float(q_low[0]), float(q_high[0])
    if lo > hi:
        lo, hi = hi, lo
    return PredictionInterval(lo - model.delta_hat, hi + model.delta_hat)


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
    covered = 0
    certified = 0
    widths = []
    for feats, y in zip(x_test, y_test):
        interval = predict_interval(model, feats)
        widths.append(interval.width)
        if interval.lo - 1e-12 <= y <= interval.hi + 1e-12:
            covered += 1
        if band is not None and interval.lo >= band.lo - 1e-12 and interval.hi <= band.hi + 1e-12:
            certified += 1
    n = len(test_days)
    return CoverageReport(
        marginal_coverage=covered / n,
        band_certificate_rate=(certified / n) if band is not None else 0.0,
        mean_interval_width=float(np.mean(widths)),
        n_test=n,
    )
