"""Experiment orchestration, report determinism, plot data, and the CLI."""

import csv
import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socarb.backtest import (
    DEFAULT_BUDGETS,
    ExperimentConfig,
    Report,
    emit_plot_data,
    load_config,
    parse_config,
    run_experiment,
    synthetic_day_matrix,
)
import socarb.cli as cli
from golden_reports import backtest_report
from oracles import reference_predict_interval, reference_synthetic_day_matrix
from socarb.cli import main
from socarb.conformal import ConformalModel, day_features
from socarb.market_data import DayMatrix, PriceBounds, export_day_matrix, split_dataset
from socarb.reachability import TargetBand, count_feasible_trajectories
from socarb.thresholds import BatteryParams, build_schedule

SMALL_CONFIG = """
# desk-scale experiment
battery.e_min = 0
battery.e_max = 10
battery.rate = 2
battery.e0 = 5
battery.horizon = 8
bands = 5:7, 3:8
e0_sweep = 1, 5, 9
start_steps = 4, 2
epsilon = 0.1
k_grid = 2:2
threshold_mode = static
bounds_mode = per-hour
seed = 11
synthetic.n_days = 70
cqr.epochs = 120
"""


GRID_ERRORS = [
    ("bands =", "bands must not be empty"),
    ("bands = ,", "bands must not be empty"),
    ("e0_sweep =", "e0_sweep must not be empty"),
    ("start_steps =", "start_steps must not be empty"),
    ("k_grid = 3", "k_grid entry '3' must be 'k_ch:k_dis'"),
    ("k_grid = 2:2, 3:3:3", "k_grid entry '3:3:3' must be 'k_ch:k_dis'"),
    ("k_grid = -1:2", "k_grid entry '-1:2' must be 'k_ch:k_dis'"),
    ("k_grid = 2:x", "k_grid entry '2:x' must be 'k_ch:k_dis'"),
    ("k_grid = 1.5:2", "k_grid entry '1.5:2' must be 'k_ch:k_dis'"),
    ("bands = 5:7, 5:7", "bands lists an entry twice"),
    ("bands = 5:7, 3:8, 5.0:7.0", "bands lists an entry twice"),
    ("e0_sweep = 1, 5, 1.0", "e0_sweep lists an entry twice"),
    ("start_steps = 4, 2, 4", "start_steps lists an entry twice"),
    ("k_grid = 2:2, 3:3, 2 : 2", "k_grid lists an entry twice"),
    ("battery.e_max = inf", "e_max must be finite, got inf"),
    ("battery.rate = inf", "rate must be finite, got inf"),
    ("battery.rate = nan", "rate must be finite, got nan"),
    ("battery.e0 = nan", "e0 must be finite, got nan"),
    # a value float() or int() rejects names its key and line, the last of SMALL_CONFIG + 1
    ("battery.rate = fast", "config line 18: battery.rate = 'fast' is not a number"),
    ("battery.horizon = 2.5", "config line 18: battery.horizon = '2.5' is not an integer"),
    ("cqr.epochs = 1.5", "config line 18: cqr.epochs = '1.5' is not an integer"),
    ("start_steps = 4, 2.5",
     "config line 18: start_steps = '4, 2.5': entry '2.5' is not an integer"),
    ("bands = 5:7, 3:b", "config line 18: bands = '5:7, 3:b': entry 'b' is not a number"),
]

# report keys print e0 and band edges with :g (six significant digits)
ALIKE_ERRORS = [
    ("e0_sweep = 5, 5.0000001", "e0_sweep entries print alike as 'e0=5' in report keys"),
    ("bands = 5:7, 5.0000001:7", "bands entries print alike as 'band=[5,7]' in report keys"),
]


# each mode key of a config, a typo of it, and its valid values
MODE_TYPOS = [
    ("threshold_mode", "statc", "static, timedep, feasibility"),
    ("bounds_mode", "per_hour", "per-hour, global"),
    ("post_stop", "ful-control", "idle, full-control, continue-policy"),
]


class TestConfig:
    def test_parse_round_trip(self):
        config = parse_config(SMALL_CONFIG)
        assert config.battery.horizon == 8
        assert config.bands[0].lo == 5.0 and config.bands[1].hi == 8.0
        assert config.e0_sweep == (1.0, 5.0, 9.0)
        assert config.k_grid == ((2, 2),)
        assert parse_config(config.canonical_text()) == config

    def test_band_edges_round_trip_on_the_tenth_grid(self):
        """Each band lo < hi on the 0.1 grid over 0..10 keeps its edges, and its config text.

        The edges are stored as typed, so the canonical text prints them back,
        and parsing that text gives the same config and hash.
        """
        grid = [f"{i / 10:g}" for i in range(101)]
        for i, lo in enumerate(grid):
            for hi in grid[i + 1:]:
                config = parse_config(f"bands = {lo}:{hi}\n")
                (band,) = config.bands
                assert (band.lo, band.hi) == (float(lo), float(hi))
                assert f"bands = {float(lo)!r}:{float(hi)!r}\n" in config.canonical_text()
                again = parse_config(config.canonical_text())
                assert again == config
                assert again.canonical_text() == config.canonical_text()

    def test_defaults(self):
        config = parse_config("")
        assert config.battery.horizon == 24
        assert config.epsilon == 0.1
        assert config.k_grid == (DEFAULT_BUDGETS,) == ((3, 3),)

    def test_hash_stable_under_comments(self):
        a = parse_config(SMALL_CONFIG)
        b = parse_config(SMALL_CONFIG + "\n# trailing comment\n")
        assert a.config_hash() == b.config_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_config(SMALL_CONFIG.replace("e0_sweep = 1, 5, 9", "e0_sweep = 99"))
        with pytest.raises(ValueError):
            parse_config(SMALL_CONFIG.replace("start_steps = 4, 2", "start_steps = 40"))
        with pytest.raises(ValueError):
            parse_config("epsilon = 1.2")

    def test_bad_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("battery.e_min = 0\nnot a key value\n")


    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"line 2: unknown key 'k_gird'"):
            parse_config("battery.e_min = 0\nk_gird = 3:3\n")
        with pytest.raises(ValueError, match=r"line 1: unknown key 'workers'"):
            parse_config("workers = 0\n")
        # keys dropped from the format: synthetic days have one fixed shape
        for key in ("synthetic.mu", "synthetic.sigma", "synthetic.amplitude"):
            with pytest.raises(ValueError, match=rf"line 1: unknown key '{re.escape(key)}'"):
                parse_config(f"{key} = 1\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("bands = 3", "band must be 'lo:hi', got '3'"),
            ("bands = 3:4:5", "band must be 'lo:hi', got '3:4:5'"),
            ("cqr.band = 3", "line 1: unknown key 'cqr.band'"),
            ("bands = 3:nan", "band edges must be finite"),
        ],
    )
    def test_malformed_band_rejected(self, line, message):
        with pytest.raises(ValueError, match=message):
            parse_config(line + "\n")

    @pytest.mark.parametrize("line, message", GRID_ERRORS)
    def test_malformed_grid_rejected(self, line, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(SMALL_CONFIG + line + "\n")

    @pytest.mark.parametrize("line, message", GRID_ERRORS)
    def test_malformed_grid_exits_with_validation_error(self, tmp_path, capsys, line, message):
        config_path = tmp_path / "exp.conf"
        config_path.write_text(SMALL_CONFIG + line + "\n")
        assert main(["backtest", "--config", str(config_path), "--synthetic", "20"]) == 1
        err = capsys.readouterr().err
        assert f"validation error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("line, message", ALIKE_ERRORS)
    def test_values_printing_alike_rejected(self, line, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(SMALL_CONFIG + line + "\n")

    @pytest.mark.parametrize("line, message", ALIKE_ERRORS)
    def test_values_printing_alike_exit_with_validation_error(self, tmp_path, capsys, line, message):
        config_path = tmp_path / "exp.conf"
        config_path.write_text(SMALL_CONFIG + line + "\n")
        assert main(["backtest", "--config", str(config_path), "--synthetic", "20"]) == 1
        err = capsys.readouterr().err
        assert f"validation error: {message}" in err and "Traceback" not in err

    def test_negative_cqr_epochs_exit_before_any_stage(self, tmp_path, capsys):
        config_path = tmp_path / "exp.conf"
        config_path.write_text(SMALL_CONFIG + "cqr.epochs = -5\n")
        with pytest.raises(ValueError, match="cqr.epochs = -5 must be non-negative"):
            load_config(config_path)
        report_path = tmp_path / "r.json"
        argv = ["backtest", "--config", str(config_path), "--synthetic", "20",
                "--out", str(report_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "validation error: cqr.epochs = -5 must be non-negative" in err
        assert not report_path.exists()

    def test_config_object_rejects_empty_and_duplicate_grids(self):
        config = parse_config(SMALL_CONFIG)
        for name in ("bands", "e0_sweep", "start_steps"):
            with pytest.raises(ValueError, match=f"{name} must not be empty"):
                replace(config, **{name: ()})
        for name in ("bands", "e0_sweep", "start_steps", "k_grid"):
            values = getattr(config, name)
            with pytest.raises(ValueError, match=f"{name} lists an entry twice"):
                replace(config, **{name: values + values[:1]})
        assert replace(config, k_grid=()).k_grid == ()

    @pytest.mark.parametrize("key, typo, valid", MODE_TYPOS)
    def test_mode_typo_rejected(self, tmp_path, capsys, key, typo, valid):
        # an empty k_grid runs no policy cell, so without the config check a typo exits 0
        message = f"{key} = {typo!r} is not one of {valid}"
        text = SMALL_CONFIG + f"{key} = {typo}\nk_grid =\n"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text)
        config_path = tmp_path / "exp.conf"
        config_path.write_text(text)
        assert main(["backtest", "--config", str(config_path), "--synthetic", "20"]) == 1
        err = capsys.readouterr().err
        assert f"validation error: {message}" in err and "Traceback" not in err

    def test_unknown_key_exits_with_validation_error(self, tmp_path, capsys):
        config_path = tmp_path / "exp.conf"
        config_path.write_text(SMALL_CONFIG + "workers = 4\n")
        assert main(["backtest", "--config", str(config_path)]) == 1
        assert "unknown key 'workers'" in capsys.readouterr().err

    def test_negative_seed_named(self, tmp_path, capsys):
        config_path = tmp_path / "exp.conf"
        config_path.write_text(SMALL_CONFIG + "seed = -1\n")
        assert main(["backtest", "--config", str(config_path), "--synthetic", "20"]) == 1
        err = capsys.readouterr().err
        assert "validation error: seed must be non-negative, got -1" in err
        assert "Traceback" not in err


class TestSynthetic:
    def test_deterministic(self):
        a = synthetic_day_matrix(5, 24, seed=7)
        b = synthetic_day_matrix(5, 24, seed=7)
        assert a == b
        assert synthetic_day_matrix(5, 24, seed=8) != a

    def test_positive_prices(self):
        days = synthetic_day_matrix(20, 24, seed=1)
        assert all(v > 0 for d in days for v in d.values)

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("horizon", [1, 6, 24, 48])
    @pytest.mark.parametrize("n_days", [1, 5, 60])
    def test_one_draw_equals_one_draw_per_day(self, n_days, horizon, seed):
        matrix = synthetic_day_matrix(n_days, horizon, seed)
        reference = reference_synthetic_day_matrix(n_days, horizon, seed)
        assert matrix.day_ids == tuple(day.day_id for day in reference)
        want = DayMatrix.from_days(reference).prices
        assert matrix.prices.shape == want.shape and matrix.prices.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def report():
    return run_experiment(parse_config(SMALL_CONFIG))


class TestRunExperiment:

    def test_cell_completeness(self, report):
        assert len(report.payload["cells"]) == 3 * 2 * 2
        assert all("counting" in cell for cell in report.payload["cells"].values())

    def test_counting_matches_direct_dp(self, report):
        cell = report.payload["cells"]["e0=1|band=[5,7]|steps=4"]
        params = BatteryParams(0, 10, 2, 1, 4)
        in_band, total, pct = count_feasible_trajectories(
            params, 4, TargetBand.from_interval(5, 7)
        )
        assert cell["counting"] == {"in_band": in_band, "total": total, "pct": pct}

    def test_policy_block_present(self, report):
        cell = report.payload["cells"]["e0=5|band=[5,7]|steps=4"]
        block = cell["policies"]["k=2x2"]
        assert 0.0 <= block["p_band"] <= 1.0
        assert block["tau_star"] is None or 1 <= block["tau_star"] <= 4

    def test_provenance_hash(self, report):
        assert report.payload["config_hash"] == parse_config(SMALL_CONFIG).config_hash()

    def test_determinism_modulo_timestamp(self, report):
        again = run_experiment(parse_config(SMALL_CONFIG))
        assert again.without_timestamp() == report.without_timestamp()
        assert again.to_json() != "" and "created_utc" in again.payload

    def test_report_is_one_line_of_sorted_json(self, report, tmp_path, monkeypatch):
        # the golden test parses its reports, so it cannot see their layout
        text = report.to_json()
        assert text.endswith("\n") and "\n" not in text[:-1]
        assert text == json.dumps(report.payload, sort_keys=True) + "\n"
        assert json.loads(text) == report.payload
        monkeypatch.setattr(cli.bt, "run_experiment", lambda config: report)
        report_path = tmp_path / "report.json"
        assert main(["backtest", "--out", str(report_path)]) == 0
        assert report_path.read_bytes() == text.encode()
        out_csv, want_csv = tmp_path / "qt.csv", tmp_path / "want.csv"
        assert main(
            ["plot-data", "--report", str(report_path), "--kind", "Qt-curve",
             "--out", str(out_csv)]
        ) == 0
        emit_plot_data(report, "Qt-curve", want_csv)
        assert out_csv.read_text() == want_csv.read_text()

    def test_empty_k_grid_drops_policy_blocks(self):
        config = parse_config(SMALL_CONFIG.replace("k_grid = 2:2", "k_grid ="))
        report = run_experiment(config)
        # no window is fit and no policy runs, yet every cell keeps its count
        cells = report.payload["cells"]
        assert len(cells) == 3 * 2 * 2
        assert all(list(cell) == ["counting"] for cell in cells.values())
        assert "plot_data" not in report.payload
        assert report.payload["cqr"]["k"] == list(DEFAULT_BUDGETS)

    def test_heatmap_masses_sum_to_one_per_step(self, report):
        rows = report.payload["plot_data"]["soc_heatmap"]
        by_t = {}
        for t, _, mass in rows:
            by_t.setdefault(t, []).append(mass)
        for t, masses in by_t.items():
            assert abs(math.fsum(masses) - 1.0) < 1e-9

    def test_cqr_block_shape(self, report):
        block = report.payload["cqr"]
        assert block["epsilon"] == 0.1
        assert set(block["per_e0"]) == {"e0=1", "e0=5", "e0=9"}
        for row in block["per_e0"].values():
            assert "error" not in row, row
            assert 0.0 <= row["marginal_coverage"] <= 1.0

    def test_emit_plot_data_kinds(self, report, tmp_path):
        for kind, n_cols in (
            ("soc-heatmap", 3),
            ("Qt-curve", 2),
            ("profit-curve", 3),
            ("coverage-curve", 3),
        ):
            out = tmp_path / f"{kind}.csv"
            emit_plot_data(report, kind, out)
            # a profit-curve cell key holds commas, which the CSV quotes
            with out.open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1
            assert [len(row) for row in rows] == [n_cols] * len(rows), kind

    def test_qt_curve_has_horizon_rows(self, report, tmp_path):
        out = tmp_path / "qt.csv"
        emit_plot_data(report, "Qt-curve", out)
        assert len(out.read_text().strip().splitlines()) == 1 + 8

    def test_unknown_kind_lists_valid(self, report, tmp_path):
        with pytest.raises(ValueError, match="soc-heatmap"):
            emit_plot_data(report, "sparkline", tmp_path / "x.csv")

    def test_missing_block_reported(self, tmp_path):
        config = parse_config(SMALL_CONFIG.replace("k_grid = 2:2", "k_grid ="))
        report = run_experiment(config)
        with pytest.raises(ValueError, match="missing"):
            emit_plot_data(report, "soc-heatmap", tmp_path / "x.csv")

    def test_day_matrix_data_path(self, tmp_path):
        days = synthetic_day_matrix(70, 8, seed=5)
        matrix_path = tmp_path / "days.csv"
        export_day_matrix(days, matrix_path)
        config_text = SMALL_CONFIG + f"data.day_matrix = {matrix_path}\n"
        report = run_experiment(parse_config(config_text))
        assert report.payload["n_days"] == {"train": 42, "calib": 14, "test": 14}

    @pytest.mark.parametrize("mode", ["static", "timedep", "feasibility"])
    def test_day_matrix_csv_gives_the_synthetic_report(self, tmp_path, mode):
        # the days of --synthetic 60, read back from a day matrix CSV
        matrix_path = tmp_path / "days.csv"
        export_day_matrix(synthetic_day_matrix(60, 24, 0), matrix_path)
        config = tmp_path / "csv.conf"
        config.write_text(f"threshold_mode = {mode}\ndata.day_matrix = {matrix_path}\n")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["backtest", "--config", str(config)]) == 0
        from_csv = json.loads(out.getvalue())
        synthetic = backtest_report(mode, "full-control", tmp_path)
        for key in ("cells", "plot_data", "cqr", "n_days"):
            assert from_csv[key] == synthetic[key], key

    def test_day_matrix_horizon_mismatch(self, tmp_path):
        days = synthetic_day_matrix(10, 6, seed=5)  # horizon 6 != battery 8
        matrix_path = tmp_path / "days.csv"
        export_day_matrix(days, matrix_path)
        config_text = SMALL_CONFIG + f"data.day_matrix = {matrix_path}\n"
        with pytest.raises(ValueError, match="horizon"):
            run_experiment(parse_config(config_text))

    def test_cell_failures_recorded_not_fatal(self, monkeypatch):
        import socarb.backtest as bt_mod

        original = bt_mod.trajectory_counts

        def flaky(params, steps):
            if params.e0 == 9.0:
                raise RuntimeError("injected cell failure")
            return original(params, steps)

        monkeypatch.setattr(bt_mod, "trajectory_counts", flaky)
        report = run_experiment(parse_config(SMALL_CONFIG))
        failed = [k for k, c in report.payload["cells"].items() if "error" in c]
        assert failed and all(k.startswith("e0=9") for k in failed)
        assert any("counting" in c for c in report.payload["cells"].values())

    def test_cqr_fit_error_recorded_in_every_row(self):
        # 20 days split 12/4/4: four calibration points are too few at epsilon 0.1
        text = SMALL_CONFIG.replace("synthetic.n_days = 70", "synthetic.n_days = 20")
        config = parse_config(text)
        block = run_experiment(config).payload["cqr"]
        message = (
            "ValueError: calibration set of 4 too small for epsilon=0.1; need at least 9 points"
        )
        assert block["per_e0"] == {key: {"error": message} for key in ("e0=1", "e0=5", "e0=9")}
        assert block["coverage_curve"] == []


MODEL_WITH_TEXT_DELTA = json.dumps(
    {
        "standardizer": {"means": [], "scales": [], "keep": []},
        "weights_low": [], "weights_high": [], "rho_low": 0.05, "rho_high": 0.95,
        "delta_hat": "x",
    }
)


def two_column_model(
    keep=(0, 1),
    scales=(1.0, 1.0),
    weights_low=(0.0, 0.0, 0.0),
    rho_low=0.05,
    rho_high=0.95,
    delta_hat=0.1,
):
    """A model file over two kept columns, with one of these fields spoilt."""
    return json.dumps(
        {
            "standardizer": {"means": [0.0, 0.0], "scales": list(scales), "keep": list(keep)},
            "weights_low": list(weights_low), "weights_high": [0.0, 0.0, 0.0],
            "rho_low": rho_low, "rho_high": rho_high, "delta_hat": delta_hat,
        }
    )


# (subcommand argv that runs, a flag it no longer declares, a value for that flag)
REMOVED_FLAGS = [
    (["simulate", "--day", "days.csv"], "--horizon", "6"),
    (["table1", "--band", "5,7", "--steps", "2"], "--horizon", "6"),
    (["cqr", "calibrate", "--synthetic", "60", "--model", "m.json"], "--epochs", "7"),
    *(
        (["cqr", "predict", "--synthetic", "60", "--model", "m.json"], flag, value)
        for flag, value in [
            ("--e0", "4"), ("--rate", "3"), ("--kch", "99"), ("--kdis", "2"),
            ("--mode", "timedep"), ("--bounds-mode", "global"), ("--epsilon", "0.9"),
            ("--epochs", "7"),
        ]
    ),
    (["cqr", "evaluate", "--synthetic", "60", "--model", "m.json"], "--epochs", "7"),
    (["cqr", "evaluate", "--synthetic", "60", "--model", "m.json"], "--epsilon", "0.9"),
]


@pytest.fixture
def six_slot_days(tmp_path):
    """A 60-day matrix of 6-slot days."""
    path = tmp_path / "days6.csv"
    export_day_matrix(synthetic_day_matrix(60, 6, 0), path)
    return path


def days_argv(command, path):
    """A run of ``command`` on a day matrix that needs no other flag."""
    if command == "cqr train":
        return ["cqr", "train", "--days", str(path), "--epochs", "20"]
    return [command, "--days", str(path), "--band", "3,8"]


def write_price_csv(path, n_hours=72):
    t0 = datetime(2016, 5, 1)
    lines = ["timestamp,price"]
    for i in range(n_hours):
        price = 20.0 + 15.0 * math.sin(2 * math.pi * (i % 24) / 24.0) + (i % 5)
        lines.append(f"{(t0 + timedelta(hours=i)).isoformat()},{price}")
    path.write_text("\n".join(lines) + "\n")


class TestCli:
    def test_ingest_and_simulate(self, tmp_path, capsys):
        csv_path = tmp_path / "prices.csv"
        write_price_csv(csv_path)
        days_path = tmp_path / "days.csv"
        assert main(["ingest", str(csv_path), "--horizon", "24", "--out", str(days_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"rows": 72, "days": 3, "horizon": 24}

        out_path = tmp_path / "traj.csv"
        code = main(
            [
                "simulate", "--day", str(days_path), "--index", "1",
                "--e0", "4", "--kch", "2", "--kdis", "2", "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "t,price,action,soc,cashflow"
        assert len(lines) == 25

    def test_ingest_mixed_timezones_exits_with_validation_error(self, tmp_path, capsys):
        csv_path = tmp_path / "prices.csv"
        csv_path.write_text(
            "timestamp,price\n2016-05-01T00:00:00+02:00,10\n2016-05-01T01:00:00,11\n"
        )
        assert main(["ingest", str(csv_path), "--out", str(tmp_path / "d.csv")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_ingest_dst_crossing_exits_with_validation_error(self, tmp_path, capsys):
        csv_path = tmp_path / "prices.csv"
        csv_path.write_text(
            "timestamp,price\n2024-03-31T00:00:00+01:00,10\n2024-03-31T01:00:00+01:00,11\n"
            "2024-03-31T03:00:00+02:00,12\n"
        )
        assert main(["ingest", str(csv_path), "--out", str(tmp_path / "d.csv")]) == 1
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["3", "99", "-1"])
    def test_simulate_index_out_of_range(self, tmp_path, capsys, index):
        csv_path = tmp_path / "prices.csv"
        write_price_csv(csv_path)
        days_path = tmp_path / "days.csv"
        assert main(["ingest", str(csv_path), "--out", str(days_path)]) == 0
        capsys.readouterr()
        code = main(["simulate", "--day", str(days_path), "--index", index])
        assert code == 1
        assert f"--index {index} outside 0..2" in capsys.readouterr().err

    def test_thresholds_csv(self, capsys):
        assert main(
            ["thresholds", "--lmin", "10", "--lmax", "100", "--kch", "2", "--kdis", "2"]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "index,side,value"
        assert len(out) == 5

    def test_thresholds_with_override(self, capsys):
        assert main(
            ["thresholds", "--lmin", "10", "--lmax", "100",
             "--kch", "1", "--alpha", "2.0"]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[1] == "1,charge,50.0"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kdis", "2", "--omega", "inf"], "omega must be a finite number >= 1, got inf"),
            (["--kdis", "2", "--omega", "nan"], "omega must be a finite number >= 1, got nan"),
            (["--kch", "2", "--alpha", "nan"], "alpha must be a finite number >= 1, got nan"),
            (["--kdis", "2", "--omega", "2", "--lmin", "nan"],
             "lambda_min must be positive and finite, got nan"),
            (["--kch", "2", "--alpha", "2", "--lmax", "inf"],
             "lambda_max must be positive and finite, got inf"),
        ],
    )
    def test_thresholds_non_finite_exits_with_validation_error(self, capsys, argv, message):
        assert main(["thresholds", "--lmin", "10", "--lmax", "100"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"validation error: {message}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "flag, field",
        [("--emax=inf", "e_max"), ("--emin=-inf", "e_min"), ("--rate=inf", "rate"),
         ("--rate=nan", "rate"), ("--e0=nan", "e0")],
    )
    def test_reach_non_finite_battery_exits_with_validation_error(
        self, tmp_path, capsys, flag, field
    ):
        argv = ["reach", "--synthetic", "30", "--horizon", "6", "--band", "3,8", flag,
                "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"validation error: {field} must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["reach", "--synthetic", "30", "--horizon", "6", "--band", "3,8"],
         ["table1", "--band", "3,8", "--steps", "4"]],
    )
    def test_rate_too_small_to_index_exits_with_validation_error(self, capsys, argv):
        # 10 / 1e-300 lattice levels: len() of the offsets range would overflow
        assert main(argv + ["--rate", "1e-300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "validation error: rate 1e-300 is too small: the SoC lattice from e_min to "
            "e_max would have more levels than an index can count\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [(["--mode", "statc"], "argument --mode: invalid choice: 'statc'"),
         # argparse reads -inf as a flag, so --emin gets no value
         (["--emin", "-inf"], "argument --emin: expected one argument"),
         (["--bogus"], "unrecognized arguments: --bogus")],
    )
    def test_usage_error_exits_with_validation_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["reach", "--synthetic", "30", "--horizon", "6", "--band", "3,8"] + argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert ("--emin=-inf" in captured.err) == ("expected one argument" in message)

    @pytest.mark.parametrize(
        "argv, message",
        [(["--split", "0.6,0.2,nan"], "test ratio must be finite, got nan"),
         (["--split", "inf,0.2,0.2"], "train ratio must be finite, got inf"),
         (["--epsilon", "nan"], "epsilon must lie in (0, 1)")],
    )
    def test_cqr_train_malformed_split_or_epsilon(self, tmp_path, capsys, argv, message):
        out = tmp_path / "m.json"
        assert main(["cqr", "train", "--synthetic", "60", "--horizon", "6", "--out", str(out)]
                    + argv) == 1
        err = capsys.readouterr().err
        assert f"validation error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_exits_with_validation_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        argv = ["reach", "--synthetic", "30", "--horizon", "6", "--band", "3,8", "--seed", "-1",
                "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "validation error: seed must be non-negative, got -1" in err
        assert "Traceback" not in err and not out.exists()

    def test_cqr_train_negative_epochs_exits_with_validation_error(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = ["cqr", "train", "--synthetic", "60", "--horizon", "6", "--epochs", "-5",
                "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "validation error: epochs must be non-negative, got -5" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize(
        "error, message",
        [
            (
                MemoryError("Unable to allocate 75.0 GiB for an array with shape\n(10000000001,)"),
                "out of memory: Unable to allocate 75.0 GiB for an array with shape\\n(10000000001,)",
            ),
            (MemoryError(), "out of memory: MemoryError"),
        ],
    )
    def test_memory_error_exits_with_one_escaped_line(
        self, tmp_path, monkeypatch, capsys, error, message
    ):
        # what a rate of 1e-9 does: a lattice of about 1e10 levels that numpy
        # cannot allocate, raised here without allocating anything
        def too_large(args):
            raise error

        monkeypatch.setattr(cli, "_policy_distribution", too_large)
        out = tmp_path / "o.csv"
        argv = ["reach", "--synthetic", "30", "--horizon", "6", "--band", "3,8", "--rate", "1e-9",
                "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["plot-data", "--kind", "Qt-curve", "--report"],
            *(
                ["cqr", cmd, "--synthetic", "20", "--model"]
                for cmd in ("calibrate", "predict", "evaluate")
            ),
        ],
        ids=["plot-data", "calibrate", "predict", "evaluate"],
    )
    def test_json_nested_too_deeply_exits_with_one_line(self, tmp_path, capsys, argv):
        # past the parser's recursion limit: json.loads raises RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        assert main(argv + [str(deep), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"validation error: {deep}: JSON nested too deeply\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, flag, value", REMOVED_FLAGS, ids=[f"{a[0]}-{a[1]}-{f}" for a, f, _ in REMOVED_FLAGS]
    )
    def test_removed_flag_is_a_usage_error(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {flag} {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["reach", "stop-time", "cqr train"])
    def test_horizon_is_the_matrix_day_length(self, tmp_path, capsys, six_slot_days, command):
        out = tmp_path / "out"
        assert main(days_argv(command, six_slot_days) + ["--out", str(out)]) == 0
        assert out.exists()
        assert main(days_argv(command, six_slot_days) + ["--horizon", "6"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["reach", "stop-time", "cqr train"])
    def test_horizon_other_than_the_day_length_exits_with_validation_error(
        self, tmp_path, capsys, six_slot_days, command
    ):
        out = tmp_path / "out"
        argv = days_argv(command, six_slot_days) + ["--horizon", "8", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"validation error: --horizon 8 but {six_slot_days} has 6-slot days" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reach", "stop-time", "cqr train"])
    def test_days_and_synthetic_together_is_a_usage_error(self, capsys, six_slot_days, command):
        with pytest.raises(SystemExit) as exc:
            main(days_argv(command, six_slot_days) + ["--synthetic", "30"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --synthetic: not allowed with argument --days" in err

    @pytest.mark.parametrize("command", ["reach", "stop-time", "cqr train"])
    def test_seed_with_days_exits_with_validation_error(
        self, tmp_path, capsys, six_slot_days, command
    ):
        out = tmp_path / "out"
        argv = days_argv(command, six_slot_days) + ["--seed", "5", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "validation error: --seed is read only with --synthetic or --shuffle" in err
        assert not out.exists()

    def test_seed_with_days_seeds_the_shuffle(self, tmp_path, six_slot_days):
        models = {}
        for seed in (None, "0", "5"):
            out = tmp_path / f"m-{seed}.json"
            flags = ["--shuffle", "--out", str(out)] + (["--seed", seed] if seed else [])
            assert main(days_argv("cqr train", six_slot_days) + flags) == 0
            models[seed] = out.read_text()
        # no --seed is seed 0
        assert models[None] == models["0"] != models["5"]

    def test_reach_and_stop_time(self, tmp_path, capsys):
        code = main(
            ["reach", "--e0", "5", "--horizon", "6", "--synthetic", "30",
             "--band", "3,7", "--kch", "2", "--kdis", "2",
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 0
        err = capsys.readouterr().err
        summary = json.loads(err.strip().splitlines()[-1])
        assert sorted(summary) == ["grid", "p_band"]
        assert 0.0 <= summary["p_band"] <= 1.0

        code = main(
            ["stop-time", "--e0", "5", "--horizon", "6", "--synthetic", "30",
             "--band", "0,10", "--epsilon", "0.1", "--post-stop", "full",
             "--out", str(tmp_path / "q.csv")]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert json.loads(err.strip().splitlines()[-1])["tau_star"] == 1

    @pytest.mark.parametrize(
        "band, message",
        [
            ("3,nan", "band edges must be finite"),
            ("nan,5", "band edges must be finite"),
            ("3", "band must be 'lo,hi', got '3'"),
            ("3,4,5", "band must be 'lo,hi', got '3,4,5'"),
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["reach", "--horizon", "4", "--synthetic", "10"], ["table1", "--steps", "2"]]
    )
    def test_malformed_band_exits_with_validation_error(
        self, tmp_path, capsys, argv, band, message
    ):
        out = str(tmp_path / "o.csv")
        assert main(argv + ["--band", band, "--out", out]) == 1
        assert message in capsys.readouterr().err

    def test_table1_command(self, tmp_path):
        out = tmp_path / "t1.csv"
        code = main(
            ["table1", "--e0", "1", "--band", "5,7", "--steps", "8", "4", "2",
             "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[1].endswith("46.66")
        assert rows[2].endswith("37.14")
        assert rows[3].endswith("20.00")

    def test_table1_prints_band_edges_as_typed(self, capsys):
        argv = ["table1", "--e0", "1", "--band", "0.1,0.7", "--steps", "4", "--emax", "1"]
        assert main(argv + ["--rate", "0.3"]) == 0
        header, row = capsys.readouterr().out.splitlines()[:2]
        assert header.startswith("e0,band_lo,band_hi,")
        assert row.split(",")[1:3] == ["0.1", "0.7"]

    def test_cqr_train_then_evaluate(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = main(
            ["cqr", "train", "--synthetic", "60", "--horizon", "8", "--e0", "4",
             "--epochs", "100", "--out", str(model_path)]
        )
        assert code == 0
        code = main(
            ["cqr", "evaluate", "--synthetic", "60", "--horizon", "8", "--e0", "4",
             "--model", str(model_path), "--band", "3,8", "--out", str(tmp_path / "eval.json")]
        )
        assert code == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert set(doc) == {
            "epsilon", "n_test", "marginal_coverage", "band",
            "band_certificate_rate", "mean_interval_width",
        }

    @pytest.mark.parametrize("trained, used", [("8", "6"), ("6", "8")])
    @pytest.mark.parametrize("cmd", ["predict", "evaluate"])
    def test_cqr_model_from_another_horizon_rejected(self, tmp_path, capsys, trained, used, cmd):
        model_path = tmp_path / "model.json"
        assert main(
            ["cqr", "train", "--synthetic", "60", "--horizon", trained, "--e0", "4",
             "--epochs", "50", "--out", str(model_path)]
        ) == 0
        code = main(
            ["cqr", cmd, "--synthetic", "60", "--horizon", used,
             "--model", str(model_path), "--out", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"features have {used} columns but the model was fitted on {trained}" in err

    def test_cqr_recalibrate_updates_width(self, tmp_path):
        model_path = tmp_path / "model.json"
        main(
            ["cqr", "train", "--synthetic", "60", "--horizon", "8", "--e0", "4",
             "--epochs", "100", "--out", str(model_path)]
        )
        recal_path = tmp_path / "recal.json"
        code = main(
            ["cqr", "calibrate", "--synthetic", "60", "--horizon", "8", "--e0", "4",
             "--epsilon", "0.25", "--model", str(model_path), "--out", str(recal_path)]
        )
        assert code == 0
        original = json.loads(model_path.read_text())
        recal = json.loads(recal_path.read_text())
        assert recal["weights_low"] == original["weights_low"]
        assert recal["rho_low"] == 0.125
        assert recal["delta_hat"] <= original["delta_hat"] + 1e-12
        # evaluate reports the level each model was calibrated at
        for path, epsilon in [(model_path, 0.1), (recal_path, 0.25)]:
            eval_path = tmp_path / "eval.json"
            assert main(
                ["cqr", "evaluate", "--synthetic", "60", "--horizon", "8", "--e0", "4",
                 "--model", str(path), "--out", str(eval_path)]
            ) == 0
            assert json.loads(eval_path.read_text())["epsilon"] == epsilon
        # the training epsilon on the same split refits the width train fitted
        same_path = tmp_path / "same.json"
        main(
            ["cqr", "calibrate", "--synthetic", "60", "--horizon", "8", "--e0", "4",
             "--model", str(model_path), "--out", str(same_path)]
        )
        assert same_path.read_bytes() == model_path.read_bytes()

    def test_backtest_and_plot_data(self, tmp_path):
        config_path = tmp_path / "exp.conf"
        config_path.write_text(SMALL_CONFIG)
        report_path = tmp_path / "report.json"
        assert main(["backtest", "--config", str(config_path), "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert doc["config_hash"] == load_config(config_path).config_hash()
        out_csv = tmp_path / "hm.csv"
        assert main(
            ["plot-data", "--report", str(report_path), "--kind", "soc-heatmap",
             "--out", str(out_csv)]
        ) == 0
        assert out_csv.read_text().startswith("t,e,mass")

    @pytest.mark.parametrize(
        "argv", [["ingest"], ["simulate", "--day"], ["cqr", "train", "--days"]], ids=" ".join
    )
    def test_oversized_csv_field_exits_with_validation_error(self, tmp_path, capsys, argv):
        # a field over the csv module's 131,072-character limit on line 3
        path = tmp_path / "big.csv"
        path.write_text(
            "timestamp,price\n2016-05-01T00:00:00,1.0\n"
            f"2016-05-01T01:00:00,{'9' * 131_073}\n"
        )
        assert main(argv + [str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path} line 3: field larger than field limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{}", "model is missing key 'standardizer'"),
            ("[1]", "model must be a JSON object, got list"),
            (MODEL_WITH_TEXT_DELTA, "could not convert string to float: 'x'"),
            (two_column_model(keep=[-1, 1]), "standardizer.keep must list distinct column"),
            (two_column_model(scales=[0.0, 0.0]), "standardizer.scales[0] = 0.0 is kept"),
            (two_column_model(weights_low=[0.0]), "weights_low has 1 entries; 2 kept columns"),
            (two_column_model(rho_low=-3), "rho_low must lie in (0, 0.5), got -3.0"),
            (two_column_model(rho_low=0.5, rho_high=0.5), "rho_low must lie in (0, 0.5), got 0.5"),
            (two_column_model(rho_low=math.nan), "rho_low must lie in (0, 0.5), got nan"),
            (two_column_model(rho_high=0.9), "rho_high must equal 1 - rho_low = 0.95, got 0.9"),
            (two_column_model(delta_hat=-0.3),
             "delta_hat must be finite and non-negative, got -0.3"),
        ],
    )
    @pytest.mark.parametrize("cmd", ["calibrate", "predict", "evaluate"])
    def test_malformed_model_exits_with_validation_error(self, tmp_path, capsys, text, message, cmd):
        model_path = tmp_path / "model.json"
        model_path.write_text(text)
        code = main(
            ["cqr", cmd, "--synthetic", "20", "--horizon", "8", "--model", str(model_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"validation error: {model_path}: {message}" in err
        assert "Traceback" not in err

    @pytest.fixture
    def trained_model(self, tmp_path):
        model_path = tmp_path / "trained.json"
        assert main(
            ["cqr", "train", "--synthetic", "60", "--horizon", "6", "--out", str(model_path)]
        ) == 0
        return model_path

    @pytest.mark.parametrize("clip", [False, True])
    def test_cqr_predict_writes_one_day_predictions(self, tmp_path, trained_model, clip):
        out = tmp_path / "pred.csv"
        argv = ["cqr", "predict", "--synthetic", "60", "--horizon", "6",
                "--model", str(trained_model), "--out", str(out)]
        assert main(argv + ["--clip"] * clip) == 0
        model = ConformalModel.from_json(trained_model.read_text())
        days = synthetic_day_matrix(60, 6, 0)
        lines = ["day_id,lo,hi"]
        for day in split_dataset(days, (0.6, 0.2, 0.2)).test:
            lo, hi = reference_predict_interval(model, day_features(day))
            if clip:
                lo, hi = max(lo, 0.0), min(hi, 10.0)
            lines.append(f"{day.day_id},{lo!r},{hi!r}")
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_cqr_predict_quotes_day_ids_that_hold_commas(self, tmp_path, trained_model):
        days = synthetic_day_matrix(60, 6, 0)
        days = DayMatrix(tuple(f"day,{i:04d}" for i in range(len(days))), days.prices)
        matrix_path = tmp_path / "days.csv"
        export_day_matrix(days, matrix_path)
        out = tmp_path / "pred.csv"
        argv = ["cqr", "predict", "--days", str(matrix_path), "--model", str(trained_model),
                "--out", str(out)]
        assert main(argv) == 0
        model = ConformalModel.from_json(trained_model.read_text())
        expected = [["day_id", "lo", "hi"]]
        for day in split_dataset(days, (0.6, 0.2, 0.2)).test:
            lo, hi = reference_predict_interval(model, day_features(day))
            expected.append([day.day_id, repr(lo), repr(hi)])
        with out.open(newline="") as fh:
            assert list(csv.reader(fh)) == expected
        assert out.read_text().splitlines()[1].startswith('"day,0048",')

    @pytest.mark.parametrize("emin, emax", [("5", "5"), ("nan", "10"), ("0", "nan")])
    def test_cqr_predict_clip_needs_emin_below_emax(
        self, tmp_path, capsys, trained_model, emin, emax
    ):
        argv = ["cqr", "predict", "--synthetic", "60", "--horizon", "6", "--model",
                str(trained_model), "--clip", f"--emin={emin}", f"--emax={emax}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"validation error: --emin {float(emin)} must be below --emax {float(emax)}" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1]", "missing the Qt-curve block"),
            ('{"plot_data": 3}', "missing the Qt-curve block"),
            ('{"plot_data": {"qt_curve": [1, 2]}}', "must be a list of rows"),
        ],
    )
    def test_malformed_report_exits_with_validation_error(self, tmp_path, capsys, text, message):
        report_path = tmp_path / "report.json"
        report_path.write_text(text)
        code = main(
            ["plot-data", "--report", str(report_path), "--kind", "Qt-curve",
             "--out", str(tmp_path / "qt.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"validation error: {report_path}: " in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["backtest", "reach"])
    def test_day_matrix_without_header_exits_with_validation_error(self, tmp_path, capsys, command):
        # three days and no header: the first day is not taken for the header
        path = tmp_path / "days.csv"
        path.write_text("d0,1.0,2.0\nd1,3.0,4.0\nd2,5.0,6.0\n")
        config = tmp_path / "b.conf"
        config.write_text(f"battery.horizon = 2\nstart_steps = 2\ndata.day_matrix = {path}\n")
        argv = {"backtest": ["backtest", "--config", str(config)],
                "reach": ["reach", "--days", str(path), "--band", "3,8"]}[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"validation error: {path} line 1: a row of prices where the header "
            "day_id,h0..h1 belongs; a day matrix starts with its header\n"
        )

    def test_reused_parser_runs_calls_as_fresh_parsers_do(self, tmp_path, monkeypatch):
        """Consecutive main calls with usage errors between them: one parser acts as fresh ones."""
        days = tmp_path / "days.csv"
        export_day_matrix(synthetic_day_matrix(30, 6, 0), days)
        calls = [
            ["reach", "--days", str(days), "--band", "3,8", "--mode", "timedep"],
            ["reach", "--days", str(days), "--band", "3,8", "--mode", "statc"],
            ["reach", "--days", str(days), "--band", "3,8"],
            ["thresholds", "--lmin", "10", "--lmax", "100", "--kch", "2"],
            ["cqr", "predict", "--synthetic", "60", "--horizon", "6", "--model", "m.json",
             "--kch", "3"],
            ["stop-time", "--synthetic", "30", "--horizon", "6", "--band", "3,8"],
            ["reach", "--days", str(days), "--band", "3,8", "--seed", "5"],
            ["reach", "--days", str(days), "--band", "3,8", "--mode", "timedep"],
        ]

        def run_all():
            runs = []
            for argv in calls:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = f"exit {exc.code}"
                runs.append((code, out.getvalue(), err.getvalue()))
            return runs

        reused = run_all()
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert reused == run_all()
        assert [code for code, _, _ in reused] == [0, "exit 1", 0, 0, "exit 1", 0, 1, 0]
        assert reused[0] == reused[-1]

    def test_exit_codes(self, tmp_path, capsys):
        # validation error: band above capacity is fine, bad epsilon is not
        assert main(
            ["stop-time", "--synthetic", "10", "--horizon", "4", "--band", "3,7",
             "--epsilon", "2.0"]
        ) == 1
        # data error: missing file
        assert main(["ingest", str(tmp_path / "nope.csv")]) == 2
        capsys.readouterr()


# finite, zero, negative, infinite and nan flag values, plus a plausible price range
FLAG_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, -1.0, -50.0, math.inf, -math.inf, math.nan]),
    st.floats(0.5, 500.0),
)


def _reject_constant(name):
    raise ValueError(f"stderr summary holds the non-JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(
    lmin=FLAG_FLOATS,
    lmax=FLAG_FLOATS,
    kch=st.integers(-3, 6),
    kdis=st.integers(-3, 6),
    alpha=st.none() | FLAG_FLOATS,
    omega=st.none() | FLAG_FLOATS,
)
# an inverted envelope with given ratios, and a NaN lambda_max with no budgets,
# never reach the k-search checks: PriceBounds itself rejects them
@example(lmin=100.0, lmax=10.0, kch=1, kdis=1, alpha=2.0, omega=2.0)
@example(lmin=10.0, lmax=math.nan, kch=0, kdis=0, alpha=None, omega=None)
def test_thresholds_exit_code_contract(lmin, lmax, kch, kdis, alpha, omega):
    argv = ["thresholds", f"--lmin={lmin!r}", f"--lmax={lmax!r}", f"--kch={kch}", f"--kdis={kdis}"]
    argv += [f"--{name}={value!r}" for name, value in (("alpha", alpha), ("omega", omega))
             if value is not None]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if not (math.isfinite(lmin) and math.isfinite(lmax) and 0 < lmin <= lmax):
        assert code == 1
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("validation error: ")
        return
    schedule = build_schedule(PriceBounds(lmin, lmax), kch, kdis, alpha, omega)
    assert out.getvalue().splitlines() == (
        ["index,side,value"]
        + [f"{j},charge,{u!r}" for j, u in enumerate(schedule.charge, 1)]
        + [f"{i},discharge,{l!r}" for i, l in enumerate(schedule.discharge, 1)]
    )
    summary = json.loads(err.getvalue(), parse_constant=_reject_constant)
    assert summary == {"alpha": schedule.alpha, "omega": schedule.omega}


def malformed_row(draw, horizon):
    """A day row that no day matrix of this horizon accepts, and what is wrong with it."""
    kind = draw(st.sampled_from(["ragged", "non-finite", "non-numeric"]))
    day_id = draw(st.sampled_from(["d", "", "a\nb", "x,y", '"q"']) | st.text(max_size=8))
    cells = draw(st.lists(st.floats(0.5, 500.0), min_size=horizon, max_size=horizon))
    cells = [repr(v) for v in cells]
    if kind == "ragged":
        width = draw(st.integers(0, horizon + 3).filter(lambda n: n != horizon))
        cells = (cells * 2)[:width]
    else:
        bad = st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "-Infinity"])
        if kind == "non-numeric":
            bad = st.sampled_from(["", "abc", "1.0.0", "12 5", "0x10", "€"]) | st.text(
                max_size=5
            ).filter(lambda text: not _reads_as_float(text))
        cells[draw(st.integers(0, horizon - 1))] = draw(bad)
    return [day_id] + cells


def _reads_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def malformed_matrices(draw):
    """The text of a day matrix CSV that cannot be read, of one of several kinds."""
    horizon = draw(st.integers(1, 4))
    header = ["day_id"] + [f"h{i}" for i in range(horizon)]
    good = [[f"g{i}"] + [repr(30.0 + i + h) for h in range(horizon)] for i in range(3)]
    before, after = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    kind = draw(
        st.sampled_from(["bad row", "empty", "header only", "over-long field", "no header",
                         "no price column"])
    )
    if kind == "empty":
        return draw(st.sampled_from(["", "\n", "\n\n"]))
    if kind == "header only":
        rows = [header]
    elif kind == "no price column":
        rows = [["day_id"]] + good[:after]
    elif kind == "no header":
        rows = good[: before + 1]
    else:
        bad = malformed_row(draw, horizon)
        if kind == "over-long field":
            bad = list(draw(st.sampled_from([header, good[0]])))
            bad[draw(st.integers(0, horizon))] = "9" * 131_073
        where = draw(st.integers(0, before + 1))
        rows = [header] + good[:before]
        rows.insert(where, bad) if kind == "over-long field" else rows.append(bad)
        rows += good[:after]
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


@settings(max_examples=150, deadline=None)
@given(text=malformed_matrices(), command=st.sampled_from(["backtest", "reach"]))
@example(text="d0,1.0,2.0\nd1,3.0,4.0\nd2,5.0,6.0\n", command="reach")
@example(text='day_id,h0\n"a\nb",nan\n', command="reach")
@example(text="day_id,h0\r\n\x1e,nan\r\n", command="backtest")
def test_malformed_day_matrix_exit_code_contract(text, command):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "days.csv"
        path.write_text(text, encoding="utf-8")
        config = Path(workdir) / "b.conf"
        config.write_text(f"battery.horizon = 4\nstart_steps = 4\ndata.day_matrix = {path}\n")
        argv = {"backtest": ["backtest", "--config", str(config)],
                "reach": ["reach", "--days", str(path), "--band", "3,8"]}[command]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (1, 2)
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and err.getvalue().endswith("\n"), err.getvalue()
    assert lines[0].startswith(("validation error: ", "data error: "))
    assert "Traceback" not in err.getvalue()


def _reads_as_timestamp(text):
    try:
        datetime.fromisoformat(text.strip())
    except ValueError:
        return False
    return True


PRICE_CSV_KINDS = [
    "unparsable timestamp", "non-finite price", "non-numeric price", "duplicate timestamp",
    "non-hourly gap", "mixed naive and aware", "offset change", "empty", "header only",
    "over-long field",
]


@st.composite
def malformed_price_csvs(draw):
    """The text of a price CSV that ``load_price_csv`` refuses, of one of several kinds.

    Line 1 is a header only when neither its timestamp nor its price parses,
    so a bad row of any kind may be the first.
    """
    kind = draw(st.sampled_from(PRICE_CSV_KINDS))
    if kind == "empty":
        return draw(st.sampled_from(["", "\n", "\n\n", ",\n", " , \n\n"]))
    if kind == "header only":
        return draw(st.sampled_from(["timestamp,price\n", "timestamp,price\n\n", "ts,p"]))
    n = draw(st.integers(2, 6))
    header = draw(st.booleans())
    t0 = datetime(2016, 5, 1)
    stamps = [(t0 + timedelta(hours=i)).isoformat() for i in range(n)]
    prices = [repr(v) for v in draw(st.lists(st.floats(-50.0, 500.0), min_size=n, max_size=n))]
    i = draw(st.integers(0, n - 1))
    cut = draw(st.integers(1, n - 1))
    if kind == "unparsable timestamp":
        bad = st.sampled_from(
            ["", "yesterday", "2016-05-01T24:00:00", "2016-13-01T00:00:00", "05/01/2016 00:00",
             "2016-05-01T00:00:00+25:00"]
        ) | st.text(min_size=1, max_size=12)
        stamps[i] = draw(bad.filter(lambda text: not _reads_as_timestamp(text)))
    elif kind == "non-finite price":
        prices[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "-Infinity"])
        )
    elif kind == "non-numeric price":
        bad = st.sampled_from(["", "abc", "1.0.0", "12 5", "0x10", "€", "1,5"]) | st.text(
            max_size=5
        )
        prices[i] = draw(bad.filter(lambda text: not _reads_as_float(text)))
    elif kind == "duplicate timestamp":
        j = draw(st.integers(0, n - 1))
        stamps.insert(i + 1, stamps[j])
        prices.insert(i + 1, prices[j])
    elif kind == "non-hourly gap":
        shift = draw(st.sampled_from([timedelta(hours=1), timedelta(minutes=30),
                                      timedelta(minutes=-30), timedelta(seconds=1)]))
        stamps[cut:] = [(t0 + timedelta(hours=h) + shift).isoformat() for h in range(cut, n)]
    elif kind == "mixed naive and aware":
        stamps[draw(st.integers(0, n - 1))] += draw(st.sampled_from(["+00:00", "+02:00", "-05:00"]))
    elif kind == "offset change":
        # hourly in UTC across a spring DST switch, local offset +01:00 then +02:00
        start = datetime(2016, 3, 27, tzinfo=timezone.utc)
        stamps = [
            (start + timedelta(hours=h)).astimezone(timezone(timedelta(hours=1 + (h >= cut))))
            .isoformat()
            for h in range(n)
        ]
    else:  # an over-long field, anywhere
        column = draw(st.sampled_from([stamps, prices]))
        column[draw(st.integers(0, n - 1))] = "9" * 131_073
    rows = [["timestamp", "price"]] if header else []
    rows += [list(row) for row in zip(stamps, prices)]
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


# two hourly days whose first price is corrupt; skipped as a header, that row
# would cost the whole first day, dropped as a leading partial
FIRST_PRICE_CORRUPT = "".join(
    f"{(datetime(2016, 5, 1) + timedelta(hours=h)).isoformat()},{'abc' if h == 0 else 30 + h}\n"
    for h in range(48)
)


@settings(max_examples=200, deadline=None)
@given(text=malformed_price_csvs())
@example(text="timestamp,price\n2016-05-01T00:00:00,1\n2016-05-01T00:00:00,2\n")
@example(text="2016-03-27T01:00:00+01:00,1\n2016-03-27T03:00:00+02:00,2\n")
@example(text="2016-05-01T00:00:00+00:00,1\n2016-05-01T01:00:00,2\n")
# a bad first row is data, not a header: one of its two cells parses
@example(text="2016-05-01T00:00:00,abc\n2016-05-01T01:00:00,2\n")
@example(text="yesterday,1\n2016-05-01T01:00:00,2\n")
@example(text="2016-05-01T00:00:00,\n2016-05-01T01:00:00,2\n")
@example(text=FIRST_PRICE_CORRUPT)
def test_malformed_price_csv_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "prices.csv"
        path.write_text(text, encoding="utf-8")
        argv = ["ingest", str(path), "--horizon", "1", "--out", str(Path(workdir) / "d.csv")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (1, 2)
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and err.getvalue().endswith("\n"), err.getvalue()
    assert lines[0].startswith(("validation error: ", "data error: "))
    assert "Traceback" not in err.getvalue()
