"""End-to-end experiment orchestration and machine-readable reports.

Runs the policy/reachability/counting/CQR pipeline over a grid of initial
SoC values, target bands, and start windows; emits a deterministic JSON
report plus CSV plot-data files mirroring the case-study figures.  The days
are one ``DayMatrix`` from the loader (or the synthetic generator) to the
report: the train, calibration and test days are row slices of it and each
window a column view of those.

A failed stage does not stop the run.  :func:`_attempt` holds its exception
in place of its value, and :func:`_value` raises it again in each cell that
reads the stage, which records it as an error row.  A cell records the first
failure it reads: its e0's counting, its window (bounds and price
distribution), then per budget pair the window's SoC distribution batch and
its profit batch.  A CQR row records a failed fit or labelling, which every row
shares, before its own coverage check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .conformal import evaluate_coverage, fit_conformal_models, label_days
from .market_data import (
    BOUNDS_MODES,
    DEFAULT_SPLIT,
    DayMatrix,
    compute_bounds,
    fit_distribution,
    load_day_matrix,
    split_sizes,
)
from .reachability import (
    CHAIN_METHODS,
    POST_STOP_MODES,
    TargetBand,
    policy_distributions,
    stopping_time,
    terminal_band_probability,
    trajectory_counts,
)
from .thresholds import THRESHOLD_MODES, BatteryParams, policy_outcomes


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, diff-friendly experiment description (key = value with dots).

    :func:`parse_config` builds it and holds the one set of defaults.
    """

    battery: BatteryParams
    bands: tuple[TargetBand, ...]
    e0_sweep: tuple[float, ...]
    start_steps: tuple[int, ...]
    epsilon: float
    k_grid: tuple[tuple[int, int], ...]
    threshold_mode: str
    bounds_mode: str
    post_stop_mode: str
    seed: int
    data_path: str | None
    synthetic_days: int
    cqr_epochs: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.cqr_epochs < 0:
            raise ValueError(f"cqr.epochs = {self.cqr_epochs} must be non-negative")
        for key, value, valid in (
            ("threshold_mode", self.threshold_mode, THRESHOLD_MODES),
            ("bounds_mode", self.bounds_mode, BOUNDS_MODES),
            ("post_stop", self.post_stop_mode, POST_STOP_MODES),
        ):
            if value not in valid:
                raise ValueError(f"{key} = {value!r} is not one of {', '.join(valid)}")
        for e0 in self.e0_sweep:
            if not self.battery.e_min <= e0 <= self.battery.e_max:
                raise ValueError(f"e0 sweep value {e0} outside capacity")
        for n in self.start_steps:
            if not 1 <= n <= self.battery.horizon:
                raise ValueError(f"start step count {n} outside 1..{self.battery.horizon}")
        for name in ("bands", "e0_sweep", "start_steps", "k_grid"):
            values = getattr(self, name)
            if not values and name != "k_grid":
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} lists an entry twice")
        # report keys print values with :g, so distinct values must print apart
        for name, label in (("e0_sweep", _e0_label), ("bands", _band_label)):
            labels = [label(v) for v in getattr(self, name)]
            for text in labels:
                if labels.count(text) > 1:
                    raise ValueError(f"{name} entries print alike as {text!r} in report keys")

    def canonical_text(self) -> str:
        """Stable key = value rendering used for hashing and provenance."""
        lines = [
            f"battery.e_min = {self.battery.e_min!r}",
            f"battery.e_max = {self.battery.e_max!r}",
            f"battery.rate = {self.battery.rate!r}",
            f"battery.e0 = {self.battery.e0!r}",
            f"battery.horizon = {self.battery.horizon}",
            "bands = " + ", ".join(f"{b.lo!r}:{b.hi!r}" for b in self.bands),
            "e0_sweep = " + ", ".join(repr(v) for v in self.e0_sweep),
            "start_steps = " + ", ".join(str(v) for v in self.start_steps),
            f"epsilon = {self.epsilon!r}",
            "k_grid = " + ", ".join(f"{a}:{b}" for a, b in self.k_grid),
            f"threshold_mode = {self.threshold_mode}",
            f"bounds_mode = {self.bounds_mode}",
            f"post_stop = {self.post_stop_mode}",
            f"seed = {self.seed}",
            f"data.day_matrix = {self.data_path or ''}",
            f"synthetic.n_days = {self.synthetic_days}",
            f"cqr.epochs = {self.cqr_epochs}",
        ]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _e0_label(e0: float) -> str:
    return f"e0={e0:g}"


def _band_label(band: TargetBand) -> str:
    return f"band=[{band.lo:g},{band.hi:g}]"


def _parse_budgets(key: str, text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(":")]
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise ValueError(f"{key} entry {text!r} must be 'k_ch:k_dis'")
    return int(parts[0]), int(parts[1])


# the budget pair a config without k_grid runs, and the CQR block's pair when
# k_grid is empty
DEFAULT_BUDGETS = (3, 3)

CONFIG_KEYS = frozenset(
    {
        "battery.e_min", "battery.e_max", "battery.rate", "battery.e0", "battery.horizon",
        "bands", "e0_sweep", "start_steps", "epsilon", "k_grid", "threshold_mode",
        "bounds_mode", "post_stop", "seed", "data.day_matrix", "synthetic.n_days", "cqr.epochs",
    }
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value config format (# starts a comment).

    Keys outside :data:`CONFIG_KEYS` are rejected with their line number.
    """
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        raw[key] = lineno, value

    def number(kind, key, text):
        """text, read from key's line, as kind (float or int); a bad value names the line."""
        try:
            return kind(text)
        except ValueError:
            lineno, value = raw[key]
            entry = "" if text == value else f": entry {text!r}"  # one entry of a list
            noun = "an integer" if kind is int else "a number"
            raise ValueError(
                f"config line {lineno}: {key} = {value!r}{entry} is not {noun}"
            ) from None

    def get(key, default=None, kind=None):
        text = raw[key][1] if key in raw else default
        return text if kind is None else number(kind, key, text)

    def band(key, text):
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"band must be 'lo:hi', got {text!r}")
        lo, hi = (number(float, key, part.strip()) for part in parts)
        return TargetBand.from_interval(lo, hi)

    def items(key, default, parse):
        """key's comma-separated entries, each through parse(key, entry)."""
        entries = (part.strip() for part in get(key, default).split(","))
        return tuple(parse(key, entry) for entry in entries if entry)

    battery = BatteryParams(
        e_min=get("battery.e_min", 0.0, float),
        e_max=get("battery.e_max", 10.0, float),
        rate=get("battery.rate", 2.0, float),
        e0=get("battery.e0", 5.0, float),
        horizon=get("battery.horizon", 24, int),
    )
    return ExperimentConfig(
        battery=battery,
        bands=items("bands", "5:7, 3:8", band),
        e0_sweep=items("e0_sweep", "1, 5, 9", partial(number, float)),
        start_steps=items("start_steps", "8, 6, 4, 2", partial(number, int)),
        epsilon=get("epsilon", 0.1, float),
        k_grid=items("k_grid", "{}:{}".format(*DEFAULT_BUDGETS), _parse_budgets),
        threshold_mode=get("threshold_mode", "static"),
        bounds_mode=get("bounds_mode", "per-hour"),
        post_stop_mode=get("post_stop", "full-control"),
        seed=get("seed", 0, int),
        data_path=get("data.day_matrix") or None,
        synthetic_days=get("synthetic.n_days", 120, int),
        cqr_epochs=get("cqr.epochs", 400, int),
    )


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def synthetic_day_matrix(n_days: int, horizon: int, seed: int) -> DayMatrix:
    """Seeded lognormal day matrix with a sinusoidal intraday level pattern.

    The noise is one standard normal draw of shape (n_days, horizon), which
    takes the generator's values in the order that one draw per day would.
    """
    if n_days < 1 or horizon < 1:
        raise ValueError("n_days and horizon must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    mu, sigma, amplitude = math.log(30.0), 0.35, 0.5  # log-price level, noise, daily swing
    rng = np.random.default_rng(seed)
    hours = np.arange(horizon)
    level = mu + amplitude * np.sin(2.0 * math.pi * (hours - 4.0) / max(horizon, 2))
    prices = np.exp(level + sigma * rng.standard_normal((n_days, horizon)))
    return DayMatrix(tuple(f"synthetic-{d:04d}" for d in range(n_days)), prices)


@dataclass(frozen=True)
class Report:
    """JSON-serializable experiment report with stable field ordering."""

    payload: dict = field(repr=False)

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    def without_timestamp(self) -> dict:
        doc = dict(self.payload)
        doc.pop("created_utc", None)
        return doc


def _attempt(func, *args):
    """func(*args), or the exception raised in its place; a failed argument fails it too."""
    try:
        return func(*map(_value, args))
    except Exception as exc:
        return exc


def _value(result):
    """The value of an :func:`_attempt`; a failed one raises its exception again."""
    if isinstance(result, Exception):
        raise result
    return result


def _window_cells(config, n, train, test, lattice_counts):
    """The cells of the window of the last n steps, keyed as in the report.

    With a budget pair to run, the window is fitted once: bounds and price
    distribution from the train days' last n steps, a column view of the
    report's matrix, one :func:`policy_outcomes` batch for every (e0,
    budget pair, test day) and, per budget pair, one
    :func:`policy_distributions` batch of every e0, which decides which of
    them share a chain.  A failed stage fails every cell that reads it.
    Each e0 reads its SoC distribution and profit summary per budget pair
    once, for all its bands.  The window's SoC distributions live only
    while its cells are built.
    """
    mode = config.threshold_mode
    batteries = [replace(config.battery, e0=e0, horizon=n) for e0 in config.e0_sweep]

    def fit():
        train_w = train.last(n)
        bounds = compute_bounds(train_w, 1, config.bounds_mode)
        dist = fit_distribution(train_w)
        outcomes = _attempt(policy_outcomes, test.last(n), batteries, config.k_grid, mode, bounds)
        return outcomes, [
            _attempt(policy_distributions, batteries, dist, bounds, k_ch, k_dis, mode)
            for k_ch, k_dis in config.k_grid
        ]

    def runs(i):
        """Battery i's SoC distribution and test-day profit summary per budget pair."""
        outcomes, batches = _value(window)
        run = {}
        for j, ((k_ch, k_dis), batch) in enumerate(zip(config.k_grid, batches)):
            soc_dist = _value(batch)[i]
            profits = _value(outcomes)[0][i, j]
            run[f"k={k_ch}x{k_dis}"] = soc_dist, {
                "mean": float(np.mean(profits)),
                "min": float(np.min(profits)),
                "max": float(np.max(profits)),
            }
        return run

    window = _attempt(fit) if config.k_grid else None  # no budget pair, no policy to fit
    cells = {}
    for i, (e0, counts) in enumerate(zip(config.e0_sweep, lattice_counts)):
        e0_runs = _attempt(runs, i) if config.k_grid else None
        for band in config.bands:
            key = f"{_e0_label(e0)}|{_band_label(band)}|steps={n}"
            try:
                in_band, total, pct = _value(counts)(n, band)
                cell = {"counting": {"in_band": in_band, "total": total, "pct": pct}}
                if config.k_grid:
                    cell["policies"] = {
                        pair: {
                            "p_band": terminal_band_probability(soc_dist, band),
                            "tau_star": stopping_time(
                                soc_dist, band, config.epsilon, config.post_stop_mode
                            ).tau_star,
                            "profit": dict(profit),
                            "method": CHAIN_METHODS[mode],
                        }
                        for pair, (soc_dist, profit) in _value(e0_runs).items()
                    }
                cells[key] = cell
            except Exception as exc:  # recorded, not fatal
                cells[key] = _error_row(exc)
    return cells


def run_experiment(config: ExperimentConfig) -> Report:
    """Execute the full experiment grid and assemble the report.

    Cells run one after another; per-cell failures are recorded in place of
    the cell body rather than aborting the run.  Identical configs and seeds
    reproduce identical reports except for the timestamp.

    The days, one :class:`DayMatrix`, split in order into train, calibration
    and test row slices; each window is a column view of those.
    """
    if config.data_path:
        matrix = load_day_matrix(config.data_path)
        if matrix.horizon != config.battery.horizon:
            raise ValueError(
                f"day matrix horizon {matrix.horizon} does not match "
                f"battery.horizon = {config.battery.horizon}"
            )
    else:
        matrix = synthetic_day_matrix(config.synthetic_days, config.battery.horizon, config.seed)
    n_train, n_calib, n_test = split_sizes(len(matrix), DEFAULT_SPLIT)
    calib_end = n_train + n_calib
    train, test = matrix[:n_train], matrix[calib_end:]

    # each stage runs once for what it depends on; a failed stage is recorded
    # in every cell that needs it
    lattice_counts = [  # one counting DP per e0, for every window
        _attempt(trajectory_counts, replace(config.battery, e0=e0), config.start_steps)
        for e0 in config.e0_sweep
    ]
    cells = {}
    for n in config.start_steps:
        cells.update(_window_cells(config, n, train, test, lattice_counts))

    payload = {
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config_hash": config.config_hash(),
        "config": config.canonical_text(),
        "seeds": {"master": config.seed},
        "n_days": {"train": n_train, "calib": n_calib, "test": n_test},
        "cells": {k: cells[k] for k in sorted(cells)},
    }

    # full-horizon bounds of the train days, shared by the plot and CQR blocks
    bounds = compute_bounds(train, 1, config.bounds_mode)
    if config.k_grid:
        payload["plot_data"] = _plot_blocks(config, train, bounds, cells)

    payload["cqr"] = _cqr_block(config, matrix, n_train, calib_end, bounds)
    return Report(payload)


def _plot_blocks(config, train, bounds, cells):
    k_ch, k_dis = config.k_grid[0]
    band = config.bands[0]
    dist = fit_distribution(train)
    soc_dist = policy_distributions(
        [config.battery], dist, bounds, k_ch, k_dis, config.threshold_mode
    )[0]
    stop = stopping_time(soc_dist, band, config.epsilon, config.post_stop_mode)
    profit_rows = []
    for key in sorted(cells):
        cell = cells[key]
        for pol_key, pol in sorted(cell.get("policies", {}).items()):
            profit_rows.append([key, pol_key, pol["profit"]["mean"]])
    return {
        "soc_heatmap": soc_heatmap_rows(soc_dist),
        "qt_curve": qt_curve_rows(stop),
        "profit_curve": profit_rows,
        "reference_cell": {"k_ch": k_ch, "k_dis": k_dis, "band": [band.lo, band.hi]},
    }


def _cqr_block(config, matrix, train_end, calib_end, bounds):
    """The CQR block: rows ..train_end train, ..calib_end calibrate, the rest test."""
    band = config.bands[-1]
    k_ch, k_dis = config.k_grid[0] if config.k_grid else DEFAULT_BUDGETS
    params_list = [replace(config.battery, e0=e0) for e0 in config.e0_sweep]

    def fit():
        # every row of the report for every battery in one batch
        x, y = label_days(matrix, params_list, bounds, k_ch, k_dis, config.threshold_mode)
        models = fit_conformal_models(
            x[:train_end],
            y[:, :train_end],
            x[train_end:calib_end],
            y[:, train_end:calib_end],
            config.epsilon,
            epochs=config.cqr_epochs,
        )
        return models, x[calib_end:], y[:, calib_end:]

    fitted = _attempt(fit)
    rows = {}
    coverage_curve = []
    for i, e0 in enumerate(config.e0_sweep):
        try:
            models, x_test, y_test = _value(fitted)
            report = evaluate_coverage(models[i], x_test, y_test[i], band)
            rows[_e0_label(e0)] = {
                "delta_hat": models[i].delta_hat,
                "marginal_coverage": report.marginal_coverage,
                "band_certificate_rate": report.band_certificate_rate,
                "mean_interval_width": report.mean_interval_width,
                "n_test": report.n_test,
            }
            coverage_curve.append(
                [e0, report.marginal_coverage, report.band_certificate_rate]
            )
        except Exception as exc:  # recorded, not fatal
            rows[_e0_label(e0)] = _error_row(exc)
    return {
        "epsilon": config.epsilon,
        "band": [band.lo, band.hi],
        "k": [k_ch, k_dis],
        "per_e0": rows,
        "coverage_curve": coverage_curve,
    }


def _error_row(exc):
    return {"error": f"{type(exc).__name__}: {exc}"}


def soc_heatmap_rows(soc_dist) -> list[list]:
    """The soc-heatmap rows ``[t, e, mass]`` of a SoC distribution, t = 0..T."""
    return [
        [t, e, mass]
        for t in range(soc_dist.horizon + 1)
        for e, mass in sorted(soc_dist.marginal(t).items())
    ]


def qt_curve_rows(stop) -> list[list]:
    """The Qt-curve rows ``[t, Q_t]`` of a stopping result, t = 1..T."""
    return [[t, q] for t, q in enumerate(stop.big_q, start=1)]


# plot kind -> (CSV header, report section, block in that section)
PLOT_KINDS = {
    "soc-heatmap": (("t", "e", "mass"), "plot_data", "soc_heatmap"),
    "Qt-curve": (("t", "Q_t"), "plot_data", "qt_curve"),
    "profit-curve": (("cell", "policy", "mean_profit"), "plot_data", "profit_curve"),
    "coverage-curve": (
        ("e0", "marginal_coverage", "band_certificate_rate"), "cqr", "coverage_curve"
    ),
}


def csv_text(header, rows) -> str:
    """Rows as CSV text under their header, one line each; floats print as repr.

    Every CSV table the package prints goes through here, so a cell that
    holds a comma, a quote or a line break is quoted.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    return out.getvalue()


def plot_csv(kind: str, rows) -> str:
    """One plot kind's rows as CSV text under its header."""
    return csv_text(PLOT_KINDS[kind][0], rows)


def emit_plot_data(report: Report, kind: str, path) -> None:
    """Write one plot-data CSV (header documented per kind) from a report."""
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; valid: {sorted(PLOT_KINDS)}")
    _, outer, inner = PLOT_KINDS[kind]
    doc = report.payload
    section = doc.get(outer) if isinstance(doc, dict) else None
    block = section.get(inner) if isinstance(section, dict) else None
    if block is None:
        raise ValueError(f"report is missing the {kind} block ({outer}.{inner})")
    if not isinstance(block, list) or not all(isinstance(row, list) for row in block):
        raise ValueError(f"report block {outer}.{inner} must be a list of rows")
    Path(path).write_text(plot_csv(kind, block))
