"""Pinball training, conformal calibration, intervals, and coverage."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from oracles import (
    crossover_intercepts,
    pinball_loss,
    reference_evaluate_coverage,
    reference_predict_interval,
    reference_quantile_loss,
)
from socarb import conformal
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


def fitted_loss(x, y, theta, weights):
    """The summed pinball loss of one model's weights, intercept last."""
    fitted = x @ weights[:-1] + weights[-1]
    return math.fsum(pinball_loss(yy, ff, theta) for yy, ff in zip(y, fitted))


def assert_crossover_agrees(x, y, theta, weights):
    """An intercept-only fit against the interior point and crossover on the ones column.

    Bit-equal where n * theta is not an integer and the optimum is one
    label; where it is, the optimal labels form an interval and the
    crossover may land on either end, so the losses agree to 1e-12.
    """
    vertex = crossover_intercepts(y[None], [theta])[0]
    if (len(y) * theta).is_integer():
        want = fitted_loss(x, y, theta, np.append(np.zeros(x.shape[1]), vertex))
        assert fitted_loss(x, y, theta, weights) == pytest.approx(want, rel=1e-12, abs=1e-12)
    else:
        assert weights[-1] == vertex


def small_lp_cases(seed):
    """(x, y) pairs of at most 10 rows and 2 features that stress the crossover.

    Lattice labels with ties, constant labels, duplicate feature rows (with
    equal and with different labels), a duplicated feature column, and fewer
    rows than features plus one.
    """
    rng = np.random.default_rng(seed)
    for n, d in itertools.product(range(1, 11), range(3)):
        x = rng.normal(size=(n, d))
        yield x, rng.normal(size=n) + x.sum(axis=1)
        yield x, rng.integers(0, 4, size=n) * 2.0
        yield x, np.full(n, 3.0)
        if n >= 4 and d >= 1:
            dup = x.copy()
            dup[n // 2 :] = dup[: n - n // 2]
            lattice = rng.integers(0, 3, size=n) * 2.0
            yield dup, lattice
            same = lattice.copy()
            same[n // 2 :] = same[: n - n // 2]
            yield dup, same
            yield np.column_stack([x, x[:, :1]]), lattice


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_quantile_model(np.zeros((0, 3)), np.zeros(0), 0.5)

    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_loss_equals_basis_enumeration(self, theta):
        cases = 0
        for seed in range(3):
            for x, y in small_lp_cases(seed):
                w = train_quantile_model(x, y, theta)
                want = reference_quantile_loss(x, y, theta)
                got = fitted_loss(x, y, theta, w)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (x, y)
                cases += 1
        assert cases > 300

    @pytest.mark.parametrize("penalty", [0.3, 2.0])
    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_penalised_loss_equals_basis_enumeration(self, theta, penalty):
        cases = 0
        for seed in range(2):
            for x, y in small_lp_cases(seed):
                w = train_quantile_model(x, y, theta, penalty=penalty)
                want = reference_quantile_loss(x, y, theta, penalty)
                got = fitted_loss(x, y, theta, w) + penalty * math.fsum(np.abs(w[:-1]))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (x, y)
                cases += 1
        assert cases > 200

    def test_large_penalty_leaves_the_intercept_alone(self):
        # a penalty above every slope's subgradient at the intercept-only
        # optimum keeps every slope at 0
        _, x, y = desk_scale_case(15)
        for theta in (0.05, 0.95):
            w = train_quantile_model(x, y, theta, penalty=10.0 * len(y))
            assert not np.any(w[:-1])
            assert w[-1] == np.sort(y)[math.ceil(len(y) * theta) - 1]

    def test_penalty_shrinks_the_slopes(self):
        _, x, y = desk_scale_case(16)
        sizes = [
            np.abs(train_quantile_model(x, y, 0.9, penalty=p)[:-1]).sum()
            for p in (0.0, 1.0, 5.0, 20.0)
        ]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1]

    def test_pivotal_penalty(self):
        # margin · sqrt(θ(1 - θ)·n) · Φ⁻¹(1 - 0.1 / 2d)
        z = 2.8652602  # Φ⁻¹(1 - 0.1 / 48)
        want = conformal.PENALTY_MARGIN * math.sqrt(0.05 * 0.95 * 219) * z
        assert conformal.l1_penalty(219, 24, 0.05) == pytest.approx(want, rel=1e-7)
        low = conformal.l1_penalty(219, 24, 0.05)
        assert conformal.l1_penalty(219, 24, 0.95) == pytest.approx(low, rel=1e-12)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_penalty_must_be_finite_and_non_negative(self, bad):
        x, y = np.ones((5, 1)), np.arange(5.0)
        with pytest.raises(ValueError, match="penalty must be finite and non-negative"):
            train_quantile_models(x, np.array([y, y]), [0.3, 0.7], penalty=bad)

    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_fewer_rows_than_weights_fit_an_order_statistic(self, theta):
        # 27 rows and 48 features, as in a fine-lattice report: the LP would
        # interpolate, so no feature enters and the intercept is the theta order
        # statistic of the lattice labels, ties and all, whatever the epoch cap.
        # At 20 rows n * theta is an integer at 0.05 and 0.5, and the fit
        # takes the lower end of the optimal interval: rank 1, not 2, at 0.05
        rng = np.random.default_rng(27)
        x = rng.normal(size=(27, 48))
        y = rng.integers(0, 25, size=27) * 2.0
        ranks = {27: math.ceil(27 * theta), 20: {0.05: 1, 0.5: 10, 0.95: 19}[theta], 1: 1}
        for n, rank in ranks.items():
            for epochs in (1, 2, 3, conformal.EPOCHS):
                w = train_quantile_model(x[:n], y[:n], theta, epochs)
                assert not np.any(w[:-1])
                assert w[-1] == np.sort(y[:n])[rank - 1]
            assert_crossover_agrees(x[:n], y[:n], theta, w)

    def test_dependent_feature_column_gets_zero_weight(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 3))
        x = np.column_stack([x, 2.0 * x[:, 1] - x[:, 0]])
        y = x[:, 0] + rng.normal(size=60)
        w = train_quantile_model(x, y, 0.3)
        assert w[3] == 0.0
        alone = train_quantile_model(x[:, :3], y, 0.3)
        want = fitted_loss(x[:, :3], y, 0.3, alone)
        assert fitted_loss(x, y, 0.3, w) == pytest.approx(want, rel=1e-12)

    def test_desk_scale_fit_reaches_a_basic_optimum(self):
        # 219 days x 24 hours at the tails: the crossover leaves 25 rows, the
        # size of a basis, at zero residual, and more iterations change nothing
        rng = np.random.default_rng(7)
        x = rng.normal(size=(219, 24))
        y = np.clip(np.round(x[:, 0] + rng.normal(size=219)), -2, 2) * 2.0 + 5.0
        for theta in (0.05, 0.95):
            w = train_quantile_model(x, y, theta)
            assert np.array_equal(w, train_quantile_model(x, y, theta, epochs=2000))
            resid = y - (x @ w[:-1] + w[-1])
            assert np.count_nonzero(np.abs(resid) < 1e-9) >= 25

    @pytest.mark.parametrize("d", [1, 24])
    def test_square_system_interpolates(self, d):
        # d + 1 rows in general position: the LP optimum fits every label
        rng = np.random.default_rng(d)
        x = rng.normal(size=(d + 1, d))
        y = rng.integers(0, 5, size=d + 1) * 2.0
        w = train_quantile_model(x, y, 0.7)
        assert np.allclose(x @ w[:-1] + w[-1], y, rtol=0.0, atol=1e-9)
        # one row fewer takes the intercept-only rule at any epoch cap; at 24
        # rows, 24 * 0.5 is an integer and 24 * 0.05 rounds to 1.2000000000000002
        for theta in (0.05, 0.5, 0.7):
            for epochs in (1, 2, 3):
                w = train_quantile_model(x[:d], y[:d], theta, epochs)
                assert not np.any(w[:-1])
                assert w[-1] == np.sort(y[:d])[math.ceil(d * theta) - 1]
            assert_crossover_agrees(x[:d], y[:d], theta, w)


def desk_scale_case(seed):
    """219 rows x 24 features with lattice labels, as in a desk-grid report."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(219, 24))
    y = np.round(x[:, 0] + rng.normal(size=219)) * 2.0 + 5.0
    return rng, x, y


class TestQuantileRegressionEquivariance:
    """The LP optimum moves with its data as linear quantile regression must.

    Koenker & Bassett (1978): the fitted loss scales with the labels, a sign
    flip of the labels swaps theta for 1 - theta, adding a linear function of
    the features to the labels leaves the loss unchanged, and so does an
    invertible change of feature coordinates.  The optimum may not be unique,
    so the checks compare losses, not weights.
    """

    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_loss_scales_with_labels(self, theta):
        _, x, y = desk_scale_case(11)
        base = fitted_loss(x, y, theta, train_quantile_model(x, y, theta))
        scaled = fitted_loss(x, 3.7 * y, theta, train_quantile_model(x, 3.7 * y, theta))
        assert scaled == pytest.approx(3.7 * base, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_label_sign_flip_swaps_theta(self, theta):
        _, x, y = desk_scale_case(12)
        base = fitted_loss(x, y, theta, train_quantile_model(x, y, theta))
        flipped = fitted_loss(x, -y, 1.0 - theta, train_quantile_model(x, -y, 1.0 - theta))
        assert flipped == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_linear_shift_of_labels_leaves_loss(self, theta):
        rng, x, y = desk_scale_case(13)
        shifted = y + x @ rng.normal(size=24) + 1.5
        base = fitted_loss(x, y, theta, train_quantile_model(x, y, theta))
        moved = fitted_loss(x, shifted, theta, train_quantile_model(x, shifted, theta))
        assert moved == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_feature_reparametrisation_leaves_loss(self, theta):
        rng, x, y = desk_scale_case(14)
        xa = x @ (rng.normal(size=(24, 24)) + 3.0 * np.eye(24))
        base = fitted_loss(x, y, theta, train_quantile_model(x, y, theta))
        # a new basis of the column space: the same LP up to rounding in A
        moved = fitted_loss(xa, y, theta, train_quantile_model(xa, y, theta))
        assert moved == pytest.approx(base, rel=1e-10)


def solver_rows(monkeypatch):
    """The labels (penalty rows included) of every batch that reaches the interior point."""
    calls = []
    solve = conformal._frisch_newton

    def spy(x1, y, up, down, iterations):
        calls.append(y)
        return solve(x1, y, up, down, iterations)

    monkeypatch.setattr(conformal, "_frisch_newton", spy)
    return calls


class TestZeroSlopeScreen:
    """The KKT screen of train_quantile_models: zero slopes proven without the solver."""

    @pytest.mark.parametrize("penalty", [0.3, 2.0, 10.0])
    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_certified_models_are_exact_optima(self, monkeypatch, theta, penalty):
        calls = solver_rows(monkeypatch)
        with_slopes = 0
        for seed in range(2):
            for x, y in small_lp_cases(seed):
                calls.clear()
                w = train_quantile_model(x, y, theta, penalty=penalty)
                if calls:
                    continue
                with_slopes += 0 < x.shape[1] < len(y)
                assert w[:-1].tolist() == [0.0] * x.shape[1]
                want = reference_quantile_loss(x, y, theta, penalty)
                got = fitted_loss(x, y, theta, w)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (x, y)
        # not only the intercept-only cases: 66 to 186 of them have slope columns
        assert with_slopes > 50

    def test_unpenalised_slopes_never_certify(self):
        # constant labels: every row is tied, g is 0 and so is every x_j·g,
        # which is not below a penalty of 0
        x = np.random.default_rng(2).normal(size=(12, 2))
        _, passed = conformal._zero_slopes(x, np.full((1, 12), 3.0), np.array([0.3]), 0.0)
        assert passed.tolist() == [[False, False]]

    def test_equal_tie_split_refused_but_lp_optimum_has_zero_slopes(self, monkeypatch):
        # q = 1 with three tied rows: an equal share 1/6 each gives x·g = 0.5
        # above the penalty 0.3, but shares 0, 1/4, 1/4 give 0, so the LP
        # optimum has zero slopes; the screen refuses it and the solver finds it
        x, y = np.array([[0.0], [3.0], [0.0], [0.0]]), np.array([0.0, 1.0, 1.0, 1.0])
        _, passed = conformal._zero_slopes(x, y[None], np.array([0.5]), 0.3)
        assert passed.tolist() == [[False]]
        calls = solver_rows(monkeypatch)
        w = train_quantile_model(x, y, 0.5, penalty=0.3)
        assert len(calls) == 1
        assert w.tolist() == [0.0, 1.0]
        assert fitted_loss(x, y, 0.5, w) == reference_quantile_loss(x, y, 0.5, 0.3) == 0.5


class TestTrainQuantileModels:
    def test_screened_and_solved_models_in_one_batch(self, monkeypatch):
        # desk-grid shape at the report's penalty: noise-only label rows pass
        # the screen, rows that follow feature 0 go to the solver; each model
        # equals its own fit bit for bit either way
        rng = np.random.default_rng(21)
        x = rng.normal(size=(219, 24))
        noise = rng.integers(0, 6, size=(3, 219)) * 2.0
        follow = np.round(3.0 * x[:, 0] + 0.3 * rng.normal(size=(2, 219))) * 2.0
        labels = np.vstack([noise[:2], follow[:1], noise[2:], follow[1:]])
        thetas = [0.05, 0.95, 0.05, 0.5, 0.95]
        penalty = conformal.l1_penalty(219, 24, 0.05)
        calls = solver_rows(monkeypatch)
        weights = train_quantile_models(x, labels, thetas, penalty=penalty)
        [solved] = calls
        assert solved[:, :219].tolist() == labels[[2, 4]].tolist()
        for i in (0, 1, 3):
            assert not np.any(weights[i, :-1])
            assert weights[i, -1] == np.sort(labels[i])[math.ceil(219 * thetas[i]) - 1]
        assert np.all(weights[[2, 4], 0] > 0.0)
        for row, y, theta in zip(weights, labels, thetas):
            assert np.array_equal(row, train_quantile_model(x, y, theta, penalty=penalty))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, d", [(1, 0), (2, 1), (5, 2), (27, 24), (27, 48), (219, 24)])
    def test_every_row_equals_its_own_fit(self, n, d, order):
        # FeatureScaler.transform returns F-ordered arrays; label_days, C-ordered
        rng = np.random.default_rng(100 * n + d)
        for k, epochs in itertools.product((1, 2, 10), (1, 3, 400)):
            x = np.asarray(rng.normal(size=(n, d)), order=order)
            # lattice labels with ties and zeros of both signs; row 0 is
            # constant -0.0 and row 1 constant 1.5
            labels = rng.integers(-4, 5, size=(k, n)) * 0.5
            labels[rng.random((k, n)) < 0.3] = -0.0
            labels[0] = -0.0
            labels[1:2] = 1.5
            thetas = list(np.linspace(0.05, 0.95, k)) if k > 1 else [0.3]
            weights = train_quantile_models(x, labels, thetas, epochs=epochs)
            assert weights.shape == (k, d + 1)
            for i in range(k):
                alone = train_quantile_model(x, labels[i], thetas[i], epochs=epochs)
                assert np.array_equal(weights[i], alone)

    @pytest.mark.parametrize("n, d", [(5, 2), (27, 48), (219, 24)])
    def test_every_row_equals_its_own_penalised_fit(self, n, d):
        rng = np.random.default_rng(7 * n + d)
        x = rng.normal(size=(n, d))
        labels = rng.integers(-4, 5, size=(4, n)) * 0.5
        thetas = [0.05, 0.95, 0.5, 0.3]
        weights = train_quantile_models(x, labels, thetas, penalty=2.5)
        for row, y, theta in zip(weights, labels, thetas):
            assert np.array_equal(row, train_quantile_model(x, y, theta, penalty=2.5))

    def test_epochs_cap_the_iterations(self, monkeypatch):
        calls = []
        step = conformal._newton_step

        def counted(*args):
            calls.append(len(args[2][0]))
            return step(*args)

        monkeypatch.setattr(conformal, "_newton_step", counted)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 6))
        labels = np.round(x[:, :2].T + rng.normal(size=(2, 120)))
        train_quantile_models(x, labels, [0.1, 0.9], epochs=3)
        assert len(calls) == 3
        calls.clear()
        full = train_quantile_models(x, labels, [0.1, 0.9])
        # every model stops on its own gap, long before the cap
        assert 0 < len(calls) < 40 and calls == sorted(calls, reverse=True)
        for row, y, theta in zip(full, labels, (0.1, 0.9)):
            capped = train_quantile_model(x, y, theta, epochs=1)
            assert fitted_loss(x, y, theta, row) <= fitted_loss(x, y, theta, capped)

    @pytest.mark.parametrize("theta", [0.05, 0.5, 0.95])
    def test_zero_epochs_is_the_untrained_start(self, theta):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 5))
        labels = rng.integers(0, 9, size=(3, 40)) * 0.5
        thetas = [theta, 0.5, 1.0 - theta]
        weights = train_quantile_models(x, labels, thetas, epochs=0)
        assert not np.any(weights[:, :-1])
        want = [np.quantile(row, t) for row, t in zip(labels, thetas)]
        assert weights[:, -1].tolist() == want

    def test_negative_zero_intercept_kept(self):
        # the untrained start takes the label quantile with its sign: the
        # 0.3-quantile of a constant -0.0 row is -0.0, the 0.7-quantile +0.0
        x = np.random.default_rng(0).normal(size=(27, 3))
        labels = np.full((2, 27), -0.0)
        weights = train_quantile_models(x, labels, [0.3, 0.7], epochs=0)
        assert weights.tolist() == [[0.0] * 4] * 2
        assert np.signbit(weights[:, -1]).tolist() == [True, False]
        # the fit's optimum is zero as well
        assert not np.any(train_quantile_models(x, labels, [0.3, 0.7]))

    def test_constant_label_rows_fit_exactly(self):
        x = np.random.default_rng(0).normal(size=(27, 3))
        labels = np.array([np.full(27, -0.0), np.full(27, 4.5)])
        weights = train_quantile_models(x, labels, [0.3, 0.7])
        assert weights.tolist() == [[0.0] * 4, [0.0, 0.0, 0.0, 4.5]]

    @pytest.mark.parametrize("bad", [float("nan"), 1.0, 0.0])
    def test_theta_outside_unit_interval_rejected(self, bad):
        x, y = np.zeros((5, 1)), np.arange(5.0)
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\)"):
            train_quantile_models(x, np.array([y, y]), [0.5, bad], epochs=3)
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\)"):
            train_quantile_model(x, y, bad, epochs=3)

    @pytest.mark.parametrize("epochs", [2.5, "3", None, np.float64(4.0)])
    def test_epochs_must_be_an_integer(self, epochs):
        x, y = np.ones((5, 1)), np.arange(5.0)
        message = f"epochs must be an integer, got {epochs!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            train_quantile_models(x, np.array([y]), [0.5], epochs=epochs)

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

    def test_certificate_reads_the_band_rule(self, monkeypatch):
        # an edge within BAND_EPS of the band is inside it, as p_band and the
        # stopping time count it: 5e-10 past an edge certifies, 2e-9 does not
        band = TargetBand.from_interval(3, 8)
        lo = np.array([3.0, 3.0, 3.0 - 5e-10, 3.0, 3.0 - 2e-9])
        hi = np.array([8.0, 8.0 + 5e-10, 8.0, 8.0 + 2e-9, 8.0])
        monkeypatch.setattr(conformal, "predict_intervals", lambda model, x: (lo, hi))
        report = evaluate_coverage(None, np.zeros((5, 1)), np.full(5, 5.0), band)
        assert report.band_certificate_rate == 3 / 5
        assert report.marginal_coverage == 1.0

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
            x_std = scaler.transform(x)
            penalty = conformal.l1_penalty(*x_std.shape, 0.05)
            low, high = (
                tuple(map(float, train_quantile_model(x_std, y, theta, 150, penalty)))
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
