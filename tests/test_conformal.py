"""Pinball training, conformal calibration, intervals, and coverage."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from oracles import (
    pinball_loss,
    reference_evaluate_coverage,
    reference_predict_interval,
    reference_train_quantile_model,
)
from socarb.conformal import (
    ConformalModel,
    FeatureScaler,
    calibrate,
    conformal_quantile,
    day_features,
    evaluate_coverage,
    fit_conformal,
    fit_conformal_models,
    label_days,
    nonconformity_scores,
    predict_interval,
    predict_intervals,
    train_quantile_model,
    train_quantile_models,
)
from socarb.market_data import DayMatrix, DayPrices, compute_bounds
from socarb.reachability import TargetBand
from socarb.thresholds import BatteryParams, run_policy


def synthetic_days(n, horizon=8, seed=0, spread=True):
    rng = np.random.default_rng(seed)
    days = []
    for i in range(n):
        base = rng.uniform(15, 25)
        if spread:
            vals = [base * (0.4 if h % 2 == 0 else 2.5) * rng.uniform(0.9, 1.1) for h in range(horizon)]
        else:
            vals = [base for _ in range(horizon)]
        days.append(DayPrices(f"s{i}", tuple(float(v) for v in vals)))
    return DayMatrix.from_days(days)


class TestPinballLoss:
    def test_zero_at_equality(self):
        assert pinball_loss(5.0, 5.0, 0.3) == 0.0

    def test_under_prediction(self):
        assert pinball_loss(10.0, 8.0, 0.9) == pytest.approx(1.8)

    def test_over_prediction(self):
        assert pinball_loss(8.0, 10.0, 0.9) == pytest.approx(0.2)

    def test_theta_validated(self):
        with pytest.raises(ValueError):
            pinball_loss(1.0, 1.0, 1.0)


class TestLabelDays:
    params = BatteryParams(0, 10, 2, 4, 8)

    def test_idle_day_keeps_initial_soc(self):
        days = synthetic_days(5, spread=False)  # constant prices, ratios collapse to 1
        bounds = compute_bounds(days, 1)
        feats, labels = label_days(days, [self.params], bounds, 0, 0)
        assert np.all(labels == 4.0)
        assert feats.shape == (5, 8) and labels.shape == (1, 5)

    def test_labels_deterministic(self):
        days = synthetic_days(6)
        bounds = compute_bounds(days, 1)
        _, a = label_days(days, [self.params], bounds, 2, 2)
        _, b = label_days(days, [self.params], bounds, 2, 2)
        assert np.array_equal(a, b)

    def test_labels_on_lattice(self):
        days = synthetic_days(40)
        bounds = compute_bounds(days, 1)
        _, [labels] = label_days(days, [self.params], bounds, 3, 3)
        offsets = (labels - 4.0) / 2.0
        assert np.allclose(offsets, np.round(offsets))
        assert np.all((labels >= 0.0) & (labels <= 10.0))

    @pytest.mark.parametrize("mode", ["static", "timedep", "feasibility"])
    def test_sweep_equals_run_policy_per_battery(self, mode):
        days = synthetic_days(30, seed=9)
        bounds = compute_bounds(days, 1)
        params_list = [BatteryParams(0, 10, 2, e0, 8) for e0 in (0, 4, 10)]
        feats, labels = label_days(days, params_list, bounds, 3, 2, mode)
        assert np.array_equal(feats, np.array([day_features(day) for day in days]))
        assert labels.shape == (3, 30)
        for params, row in zip(params_list, labels):
            trajs = [run_policy(day, params, 3, 2, mode, bounds) for day in days]
            assert row.tolist() == [traj.soc_path[-1] for traj in trajs]
        # the batteries end apart on some day, so each row is its own battery's
        assert len({tuple(row) for row in labels.tolist()}) == 3


class TestTrainQuantileModel:
    def test_constant_labels_intercept_only(self):
        x = np.zeros((50, 0))
        y = np.full(50, 7.7)
        w = train_quantile_model(x, y, 0.5, epochs=10)
        assert w[-1] == pytest.approx(7.7)

    def test_negative_epochs_rejected(self):
        x, y = np.zeros((5, 1)), np.arange(5.0)
        with pytest.raises(ValueError, match="epochs must be non-negative, got -5"):
            train_quantile_model(x, y, 0.5, epochs=-5)
        # zero epochs is the untrained start: no slope, intercept at the label quantile
        assert train_quantile_model(x, y, 0.5, epochs=0).tolist() == [0.0, 2.0]

    def test_noiseless_linear_recovery(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 10))
        w_true = rng.normal(size=10)
        y = x @ w_true + 3.0
        w = train_quantile_model(x, y, 0.9, epochs=2000)
        x_new = rng.normal(size=(200, 10))
        y_new = x_new @ w_true + 3.0
        preds = x_new @ w[:-1] + w[-1]
        held_out = np.mean(
            [pinball_loss(yy, pp, 0.9) for yy, pp in zip(y_new, preds)]
        )
        assert held_out < 1e-3

    def test_quantile_property_on_noisy_data(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(400, 5))
        y = x @ rng.normal(size=5) + rng.normal(scale=2.0, size=400)
        w = train_quantile_model(x, y, 0.9, epochs=2000)
        frac_below = float(np.mean(y <= x @ w[:-1] + w[-1]))
        assert 0.85 <= frac_below <= 0.95

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(120, 4))
        y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(size=120)
        _, history = train_quantile_model(x, y, 0.7, epochs=300, return_history=True)
        assert all(b <= a + 1e-6 for a, b in zip(history, history[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_quantile_model(np.zeros((0, 3)), np.zeros(0), 0.5)

    @pytest.mark.parametrize("n", [5, 27, 219])
    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_bitwise_equal_to_reference(self, n, theta):
        halved = 0
        # step0=None takes the label spread; a step of 50 overshoots, so moves
        # are rejected and the step-halving branch runs
        for seed, step0 in itertools.product(range(4), (None, 50.0)):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(n, 24))
            y = x[:, 0] + rng.uniform(0.0, 10.0, n)
            w, history = train_quantile_model(
                x, y, theta, epochs=400, step0=step0, return_history=True
            )
            w_ref, history_ref = reference_train_quantile_model(
                x, y, theta, epochs=400, step0=step0, return_history=True
            )
            assert np.array_equal(w, w_ref)
            assert history == history_ref
            # a rejected move appends the unchanged loss
            halved += any(a == b for a, b in zip(history, history[1:]))
        assert halved


class TestTrainQuantileModels:
    # None starts each model at its own label spread; 50 overshoots and halves
    @pytest.mark.parametrize("step0", [None, 50.0])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_lockstep_equals_separate_fits_bit_for_bit(self, k, order, step0):
        # FeatureScaler.transform returns F-ordered arrays; label_days, C-ordered
        rng = np.random.default_rng(k)
        x = np.asarray(rng.normal(size=(219, 24)), order=order)
        labels = np.array([x[:, i] + rng.uniform(0.0, 10.0, 219) for i in range(k)])
        thetas = list(np.linspace(0.05, 0.95, k))
        weights, histories = train_quantile_models(
            x, labels, thetas, epochs=400, step0=step0, return_history=True
        )
        assert weights.shape == (k, 25) and len(histories) == k
        rejected = set()
        for i in range(k):
            args = (x, labels[i], thetas[i])
            kw = dict(epochs=400, step0=step0, return_history=True)
            w, history = train_quantile_model(*args, **kw)
            w_ref, history_ref = reference_train_quantile_model(*args, **kw)
            assert np.array_equal(weights[i], w) and np.array_equal(w, w_ref)
            assert histories[i] == history == history_ref
            rejected.add(tuple(a == b for a, b in zip(history, history[1:])))
        # the models accept and reject on different epochs
        assert len(rejected) >= min(k, 2)

    @pytest.mark.parametrize("bad", [float("nan"), 1.0, 0.0])
    def test_theta_outside_unit_interval_rejected(self, bad):
        x, y = np.zeros((5, 1)), np.arange(5.0)
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\)"):
            train_quantile_models(x, np.array([y, y]), [0.5, bad], epochs=3)
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\)"):
            train_quantile_model(x, y, bad, epochs=3)

    @pytest.mark.parametrize("n", [1, 2, 27, 219])
    @pytest.mark.parametrize("d", [0, 1, 24, 48])
    def test_every_row_equals_reference_to_the_sign_of_zero(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        halved = 0
        cases = itertools.product("CF", (None, 50.0), (1, 2, 10), (3, 60))
        for order, step0, k, epochs in cases:
            x = np.asarray(rng.normal(size=(n, d)), order=order)
            # labels on a lattice of half steps, zeros of both signs among
            # them; row 0 is constant -0.0 and row 1 constant 1.5, so their
            # residuals start at exactly 0
            labels = rng.integers(-4, 5, size=(k, n)) * 0.5
            labels[rng.random((k, n)) < 0.3] = -0.0
            labels[0] = -0.0
            labels[1:2] = 1.5
            thetas = list(np.linspace(0.05, 0.95, k)) if k > 1 else [0.3]
            kw = dict(epochs=epochs, step0=step0, return_history=True)
            weights, histories = train_quantile_models(x, labels, thetas, **kw)
            for i in range(k):
                w_ref, history_ref = reference_train_quantile_model(
                    x, labels[i], thetas[i], **kw
                )
                history, history_ref = np.array(histories[i]), np.array(history_ref)
                assert np.array_equal(weights[i], w_ref)
                assert np.array_equal(np.signbit(weights[i]), np.signbit(w_ref))
                assert np.array_equal(history, history_ref)
                assert np.array_equal(np.signbit(history), np.signbit(history_ref))
                # a rejected move appends the unchanged loss
                halved += bool(np.any(history[1:] == history[:-1]))
        assert halved

    def test_negative_zero_intercept_kept(self):
        # the 0.3-quantile of a constant -0.0 row is -0.0 (the 0.7-quantile,
        # +0.0), and every move away from it raises the loss
        x = np.random.default_rng(0).normal(size=(27, 3))
        labels = np.full((2, 27), -0.0)
        weights = train_quantile_models(x, labels, [0.3, 0.7], epochs=5)
        assert weights.tolist() == [[0.0] * 4] * 2
        assert np.signbit(weights[:, -1]).tolist() == [True, False]
        for row, theta in zip(weights, (0.3, 0.7)):
            w_ref = reference_train_quantile_model(x, labels[0], theta, epochs=5)
            assert np.array_equal(np.signbit(row), np.signbit(w_ref))

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(step0=0.0), "step0 must be finite and positive, got 0.0"),
            (dict(step0=math.nan), "step0 must be finite and positive, got nan"),
            (dict(step0=-1.0), "step0 must be finite and positive, got -1.0"),
            (dict(step0=math.inf), "step0 must be finite and positive, got inf"),
            (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
        ],
    )
    def test_step_and_epochs_checked(self, kw, message):
        x, y = np.ones((5, 1)), np.arange(5.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            train_quantile_models(x, np.array([y]), [0.5], **{"epochs": 3, **kw})

    def test_labels_must_have_one_row_per_theta(self):
        x, y = np.zeros((5, 1)), np.arange(5.0)
        with pytest.raises(ValueError, match="non-empty and aligned"):
            train_quantile_models(x, np.array([y, y]), [0.5], epochs=3)


class TestScaler:
    def test_zero_variance_column_dropped(self, caplog):
        x = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        with caplog.at_level("WARNING"):
            scaler = FeatureScaler.fit(x)
        assert scaler.keep == (0,)
        assert "zero-variance" in caplog.text
        assert scaler.transform(x).shape == (10, 1)


class TestNonconformityScores:
    def make_model_parts(self):
        # identity-ish setup: one feature, q_low = x, q_high = x + 2
        scaler = FeatureScaler(means=(0.0,), scales=(1.0,), keep=(0,))
        low_w = np.array([1.0, 0.0])
        high_w = np.array([1.0, 2.0])
        return low_w, high_w, scaler

    def test_inside_interval_zero(self):
        low_w, high_w, scaler = self.make_model_parts()
        scores = nonconformity_scores(low_w, high_w, scaler, np.array([[1.0]]), np.array([2.0]))
        assert scores[0] == 0.0

    def test_above_interval_linear_excess(self):
        low_w, high_w, scaler = self.make_model_parts()
        scores = nonconformity_scores(low_w, high_w, scaler, np.array([[1.0]]), np.array([5.0]))
        assert scores[0] == pytest.approx(2.0)  # q_high = 3, y = 5

    def test_below_interval_linear_excess(self):
        low_w, high_w, scaler = self.make_model_parts()
        scores = nonconformity_scores(low_w, high_w, scaler, np.array([[1.0]]), np.array([-0.5]))
        assert scores[0] == pytest.approx(1.5)  # q_low = 1, y = -0.5

    def test_scores_non_negative(self):
        low_w, high_w, scaler = self.make_model_parts()
        rng = np.random.default_rng(0)
        scores = nonconformity_scores(
            low_w, high_w, scaler, rng.normal(size=(50, 1)), rng.normal(size=50)
        )
        assert np.all(scores >= 0.0)


class TestConformalQuantile:
    def test_all_zero_scores(self):
        assert conformal_quantile([0.0] * 12, 0.1) == 0.0

    def test_order_statistic_ten(self):
        assert conformal_quantile(list(range(1, 11)), 0.1) == 10.0  # ceil(11*0.9) = 10

    def test_order_statistic_hundred(self):
        assert conformal_quantile(list(range(1, 101)), 0.1) == 91.0  # ceil(101*0.9) = 91

    def test_too_small_calibration_set(self):
        with pytest.raises(ValueError, match="too small"):
            conformal_quantile([1.0, 2.0], 0.1)

    def test_delta_monotone_as_epsilon_shrinks(self):
        scores = list(np.random.default_rng(5).uniform(0, 10, size=300))
        deltas = [conformal_quantile(scores, eps) for eps in (0.4, 0.2, 0.1, 0.05)]
        assert all(a <= b for a, b in zip(deltas, deltas[1:]))


class TestPredictInterval:
    def make_model(self, low_b, high_b, delta):
        scaler = FeatureScaler(means=(0.0,), scales=(1.0,), keep=(0,))
        return ConformalModel(
            low_weights=(0.0, low_b),
            high_weights=(0.0, high_b),
            rho_low=0.05,
            rho_high=0.95,
            delta_hat=delta,
            scaler=scaler,
        )

    def test_zero_width_calibration(self):
        model = self.make_model(4.0, 6.0, 0.0)
        interval = predict_interval(model, np.array([0.0]))
        assert (interval.lo, interval.hi) == (4.0, 6.0)

    def test_symmetric_widening(self):
        model = self.make_model(4.0, 6.0, 1.5)
        interval = predict_interval(model, np.array([0.0]))
        assert (interval.lo, interval.hi) == (2.5, 7.5)

    def test_crossing_fixed_before_widening(self):
        model = self.make_model(5.2, 4.8, 0.0)
        interval = predict_interval(model, np.array([0.0]))
        assert (interval.lo, interval.hi) == (4.8, 5.2)


class TestPipeline:
    def setup_pipeline(self, seed=0, epsilon=0.1):
        """A fitted model and its labelled test days."""
        days = synthetic_days(120, seed=seed)
        train, calib, test = days[:70], days[70:100], days[100:]
        params = BatteryParams(0, 10, 2, 4, 8)
        bounds = compute_bounds(train, 1)
        model = fit_conformal(train, calib, params, bounds, 2, 2, epsilon, epochs=200)
        x, [y] = label_days(test, [params], bounds, 2, 2)
        return model, x, y

    def test_model_json_round_trip(self):
        model, _, _ = self.setup_pipeline()
        clone = ConformalModel.from_json(model.to_json())
        assert clone == model

    def test_determinism_bit_for_bit(self):
        a, _, _ = self.setup_pipeline(seed=3)
        b, _, _ = self.setup_pipeline(seed=3)
        assert a.to_json() == b.to_json()

    def test_coverage_report(self):
        model, x, y = self.setup_pipeline()
        report = evaluate_coverage(model, x, y, TargetBand.from_interval(0, 10))
        assert 0.0 <= report.marginal_coverage <= 1.0
        assert report.n_test == len(y) == 20

    def test_empty_or_misaligned_labels_rejected(self):
        model, x, y = self.setup_pipeline()
        with pytest.raises(ValueError, match="test set must be non-empty"):
            evaluate_coverage(model, x[:0], y[:0])
        # one label would broadcast against all 20 rows
        with pytest.raises(ValueError, match="20 feature rows but 1 labels"):
            evaluate_coverage(model, x, y[:1])
        with pytest.raises(ValueError, match="20 feature rows but 1 labels"):
            calibrate(model, x, y[:1], 0.1)

    def test_widening_monotonicity(self):
        model, x, y = self.setup_pipeline()
        wider = ConformalModel(
            model.low_weights,
            model.high_weights,
            model.rho_low,
            model.rho_high,
            model.delta_hat + 2.0,
            model.scaler,
        )
        base = evaluate_coverage(model, x, y)
        more = evaluate_coverage(wider, x, y)
        assert more.marginal_coverage >= base.marginal_coverage

    def test_huge_width_covers_but_never_certifies(self):
        model, x, y = self.setup_pipeline()
        huge = ConformalModel(
            model.low_weights,
            model.high_weights,
            model.rho_low,
            model.rho_high,
            1e6,
            model.scaler,
        )
        report = evaluate_coverage(huge, x, y, TargetBand.from_interval(3, 8))
        assert report.marginal_coverage == 1.0
        assert report.band_certificate_rate == 0.0

    def dense_models(self):
        """24-hour test days and models with dense slopes, one of them crossed.

        A fitted model's slopes are nearly zero on these days, so only dense
        ones show how each day's product is rounded.
        """
        days = synthetic_days(150, horizon=24, seed=6)
        params = BatteryParams(0, 10, 2, 4, 24)
        bounds = compute_bounds(days[:100], 1)
        scaler = FeatureScaler.fit(np.array([day_features(d) for d in days[:100]]))
        slopes = 0.3 * np.random.default_rng(6).normal(size=24)
        low = tuple(np.append(slopes, 5.0))
        high = tuple(np.append(slopes, 5.4))
        # the mirrored slope crosses the raw quantiles on about half the days
        mirrored = tuple(np.append(-slopes, 5.2))
        models = [
            ConformalModel(low, high, 0.05, 0.95, 0.3, scaler),
            ConformalModel(low, mirrored, 0.05, 0.95, 0.3, scaler),
        ]
        x, [y] = label_days(days[100:], [params], bounds, 3, 3)
        n_crossed = int(np.count_nonzero(scaler.transform(x) @ slopes > 0.1))
        assert 0 < n_crossed < len(y)
        return models, x, y

    def test_coverage_equals_per_day_oracle(self):
        models, x, y = self.dense_models()
        for model, band in itertools.product(models, (None, TargetBand.from_interval(3, 8))):
            report = reference_evaluate_coverage(model, x, y, band)
            assert evaluate_coverage(model, x, y, band) == report
            assert evaluate_coverage(model, np.asfortranarray(x), y, band) == report

    def test_intervals_equal_one_day_predictions(self):
        models, x, _ = self.dense_models()
        for model in models:
            expected = [reference_predict_interval(model, row) for row in x]
            for features in (x, np.asfortranarray(x)):
                lo, hi = predict_intervals(model, features)
                assert list(zip(lo.tolist(), hi.tolist())) == expected
            for row, (lo, hi) in zip(x, expected):
                interval = predict_interval(model, row)
                assert (interval.lo, interval.hi) == (lo, hi)

    @pytest.mark.parametrize("mode", ["static", "timedep"])
    def test_sweep_equals_one_fit_per_battery(self, caplog, mode):
        # hour 0 is constant, so the scaler drops it and warns
        days = DayMatrix.from_days(
            [DayPrices(d.day_id, (20.0,) + d.values[1:]) for d in synthetic_days(100, seed=4)]
        )
        train, calib = days[:70], days[70:]
        bounds = compute_bounds(train, 1)
        params_list = [BatteryParams(0, 10, 2, e0, 8) for e0 in (1, 4, 9)]
        x, y = label_days(days, params_list, bounds, 2, 2, mode)
        with caplog.at_level("WARNING"):
            models = fit_conformal_models(x[:70], y[:, :70], x[70:], y[:, 70:], 0.1, epochs=150)
        assert caplog.text.count("zero-variance") == 1
        singles = [
            fit_conformal(train, calib, p, bounds, 2, 2, 0.1, mode, epochs=150)
            for p in params_list
        ]
        assert [m.to_json() for m in models] == [m.to_json() for m in singles]
        assert len({m.to_json() for m in models}) == 3
        # each battery alone: its labels, one quantile model per level, calibrate
        for params, model in zip(params_list, models):
            x, [y] = label_days(train, [params], bounds, 2, 2, mode)
            scaler = FeatureScaler.fit(x)
            low, high = (
                tuple(map(float, train_quantile_model(scaler.transform(x), y, theta, 150)))
                for theta in (0.05, 0.95)
            )
            alone = ConformalModel(low, high, math.nan, math.nan, math.nan, scaler)
            x_cal, [y_cal] = label_days(calib, [params], bounds, 2, 2, mode)
            alone = calibrate(alone, x_cal, y_cal, 0.1)
            assert alone.to_json() == model.to_json()


    def test_one_calibration_row_per_train_row(self):
        x, y = np.zeros((10, 2)), np.zeros((2, 10))
        with pytest.raises(ValueError, match="2 train label rows but 1 calibration rows"):
            fit_conformal_models(x, y, x, y[:1], 0.1)


def _edit(path, change):
    """A model-document edit: ``change`` maps the value at a dotted ``path``."""

    def apply(doc):
        *outer, key = path.split(".")
        for name in outer:
            doc = doc[name]
        doc[key] = change(doc[key])

    return apply


# each edit of a trained model file, and the message that rejects it
MODEL_DEFECTS = [
    (_edit("standardizer.keep", lambda v: [-1] + v[1:]), "standardizer.keep must list distinct"),
    (_edit("standardizer.keep", lambda v: v[:1] + v[:-1]), "standardizer.keep must list distinct"),
    (_edit("standardizer.keep", lambda v: v[::-1]), "standardizer.keep must list distinct"),
    (_edit("standardizer.keep", lambda v: v[:-1] + [8]), "standardizer.keep must list distinct"),
    (_edit("standardizer.scales", lambda v: v[:-1]),
     "standardizer.means has 8 entries but standardizer.scales has 7"),
    (_edit("standardizer.scales", lambda v: [0.0] * len(v)),
     "standardizer.scales[0] = 0.0 is kept, so it must be finite and above 1e-12"),
    (_edit("standardizer.scales", lambda v: v[:2] + [1e-13] + v[3:]),
     "standardizer.scales[2] = 1e-13 is kept"),
    (_edit("standardizer.scales", lambda v: v[:-1] + [math.inf]),
     "standardizer.scales[7] = inf is kept"),
    (_edit("standardizer.means", lambda v: [math.nan] + v[1:]),
     "standardizer.means[0] = nan is kept, so it must be finite"),
    (_edit("weights_low", lambda v: v[:-2]),
     "weights_low has 7 entries; 8 kept columns and an intercept need 9"),
    (_edit("weights_high", lambda v: v + [0.0]), "weights_high has 10 entries"),
    (_edit("weights_high", lambda v: v[:-1] + [math.inf]), "weights_high[8] = inf must be finite"),
    (_edit("delta_hat", lambda v: math.nan),
     "delta_hat must be finite and non-negative, got nan"),
    (_edit("delta_hat", lambda v: -math.inf),
     "delta_hat must be finite and non-negative, got -inf"),
    (_edit("delta_hat", lambda v: -0.3), "delta_hat must be finite and non-negative, got -0.3"),
]


class TestModelFile:
    @pytest.fixture(scope="class")
    def model_text(self):
        days = synthetic_days(60, seed=2)
        params = BatteryParams(0, 10, 2, 4, 8)
        bounds = compute_bounds(days[:36], 1)
        model = fit_conformal(days[:36], days[36:48], params, bounds, 2, 2, 0.1, epochs=50)
        return model.to_json()

    @pytest.mark.parametrize("edit, message", MODEL_DEFECTS)
    def test_defect_rejected_naming_the_field(self, model_text, edit, message):
        doc = json.loads(model_text)
        assert doc["standardizer"]["keep"] == list(range(8))
        edit(doc)
        with pytest.raises(ValueError) as info:
            ConformalModel.from_json(json.dumps(doc))
        assert message in str(info.value)

    def test_round_trip_unchanged(self, model_text):
        assert ConformalModel.from_json(model_text).to_json() == model_text

    def test_negative_zero_width_accepted(self, model_text):
        doc = json.loads(model_text)
        doc["delta_hat"] = -0.0
        assert ConformalModel.from_json(json.dumps(doc)).delta_hat == 0.0


def test_day_features_layout():
    day = DayPrices("d", (1.0, 2.0, 3.0))
    feats = day_features(day)
    assert feats.tolist() == [1.0, 2.0, 3.0]


def test_model_with_initial_soc_column_still_predicts():
    # models saved with e0 appended as a last feature column: their scaler
    # dropped that constant column, so price-only features give the same interval
    days = synthetic_days(30)
    prices = np.array([day_features(d) for d in days])
    old_layout = np.column_stack([prices, np.full(len(days), 4.0)])
    scaler = FeatureScaler.fit(old_layout)
    assert len(scaler.means) == prices.shape[1] + 1
    assert prices.shape[1] not in scaler.keep
    weights = tuple(float(w) for w in np.linspace(-0.5, 0.5, len(scaler.keep) + 1))
    model = ConformalModel.from_json(
        ConformalModel(weights, weights, 0.05, 0.95, 0.25, scaler).to_json()
    )
    old = predict_interval(model, old_layout[0])
    new = predict_interval(model, day_features(days[0]))
    assert (new.lo, new.hi) == (old.lo, old.hi)
