"""The benchmark's workloads: set-up, one operation, and the check of its output.

Every workload builds its inputs the same way: seeded hourly prices from
``pricegen``, written as a ``timestamp,price`` CSV and turned into a day
matrix by ``socarb ingest``.  Why each workload exists is written down in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from collections import defaultdict
from pathlib import Path

import pricegen
from socarb import cli, market_data, thresholds

# Propagated masses are float sums, so a probability or a step's total mass
# may miss [0, 1] or 1 by rounding; fine-lattice reports p_band values of
# 1.0000000000000002.  One tolerance serves both checks.
MASS_TOL = 1e-9
PROFIT_TOL = 1e-9

# The ``workers`` key is left unset on purpose, so the default thread pool
# (min(8, cpu count) threads) is what gets measured.
DESK_GRID = """\
battery.e_min = 0
battery.e_max = 10
battery.rate = 2
battery.e0 = 5
battery.horizon = 24
bands = 5:7, 3:8
e0_sweep = 1, 3, 5, 7, 9
start_steps = 24, 16, 8
k_grid = 3:3, 6:6, 12:12
threshold_mode = static
cqr.epochs = 400
"""

# 45 two-day blocks split 27/9/9: nine calibration days is the fewest that
# conformal calibration accepts at epsilon = 0.1.
FINE_LATTICE = """\
battery.e_min = 0
battery.e_max = 48
battery.rate = 1
battery.e0 = 24
battery.horizon = 48
bands = 20:28, 12:36
e0_sweep = 8, 16, 24, 32, 40
start_steps = 48, 36, 24, 12
k_grid = 12:12, 24:24
threshold_mode = static
cqr.epochs = 100
"""


def ingest(workdir: Path, seed: int, n_hours: int, horizon: int) -> Path:
    """Seeded prices -> CSV -> ``socarb ingest`` -> day matrix path."""
    prices = workdir / "prices.csv"
    days = workdir / "days.csv"
    pricegen.write_price_csv(prices, n_hours, seed)
    with contextlib.redirect_stdout(io.StringIO()):  # ingest prints a summary line
        code = cli.main(["ingest", str(prices), "--horizon", str(horizon), "--out", str(days)])
    if code != 0:
        raise RuntimeError(f"socarb ingest exited with {code}")
    return days


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class Backtest:
    """One operation is one ``socarb backtest`` report, run in-process."""

    # the pool width run_experiment uses when ``workers`` is unset
    threads = min(8, os.cpu_count() or 1)

    def __init__(self, workdir: Path, seed: int, n_days: int, horizon: int, config: str):
        self.workdir = workdir
        self.seed = seed
        self.n_hours = n_days * horizon
        self.horizon = horizon
        # relative to the checkout root, so reports and their digests do not
        # depend on where the checkout lives
        self.config_text = config + f"seed = {seed}\ndata.day_matrix = {workdir / 'days.csv'}\n"
        self.config_path = workdir / "backtest.cfg"
        self.report_path = workdir / "report.json"
        self.first: dict | None = None

    def setup(self) -> None:
        ingest(self.workdir, self.seed, self.n_hours, self.horizon)
        self.config_path.write_text(self.config_text)

    def run(self, index: int) -> int:
        return cli.main(
            ["backtest", "--config", str(self.config_path), "--out", str(self.report_path)]
        )

    def check(self, code: int) -> dict:
        """Problems found in the report, plus facts the traced run records."""
        if code != 0:
            return {"problems": [f"backtest exited with {code}"]}
        text = self.report_path.read_text()
        doc = json.loads(text)
        problems = []
        cells = doc["cells"]
        failed_cells = [key for key, cell in cells.items() if "error" in cell]
        problems += [f"cell {key}: {cells[key]['error']}" for key in failed_cells]
        for key, row in doc["cqr"]["per_e0"].items():
            if "error" in row:
                problems.append(f"cqr {key}: {row['error']}")
        for key, cell in cells.items():
            counting = cell.get("counting")
            if counting and counting["in_band"] > counting["total"]:
                problems.append(f"cell {key}: in_band > total")
            for pol_key, pol in cell.get("policies", {}).items():
                if not -MASS_TOL <= pol["p_band"] <= 1.0 + MASS_TOL:
                    problems.append(f"cell {key} {pol_key}: p_band {pol['p_band']!r}")
        step_mass = defaultdict(list)
        for t, _e, mass in doc["plot_data"]["soc_heatmap"]:
            step_mass[t].append(mass)
        for t, masses in sorted(step_mass.items()):
            if abs(math.fsum(masses) - 1.0) > MASS_TOL:
                problems.append(f"soc_heatmap step {t}: mass {math.fsum(masses)!r}")
        doc.pop("created_utc")
        if self.first is None:
            self.first = doc
        elif doc != self.first:
            problems.append("report differs from the run's first report")
        return {
            "problems": problems,
            "cells": len(cells),
            "cells_failed": len(failed_cells),
            "report_bytes": len(text.encode()),
        }

    def digest(self) -> str:
        """sha256 of the first report without ``created_utc`` and ``config_hash``."""
        doc = dict(self.first or {})
        doc.pop("config_hash", None)
        return _digest(doc)


class HindsightAudit:
    """One operation audits one day against the perfect-foresight optimum."""

    threads = 1

    MODES = ("static", "timedep", "feasibility")
    K = (3, 3)
    DIGEST_DAYS = 11

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.params = thresholds.BatteryParams(e_min=0, e_max=10, rate=2, e0=5, horizon=24)
        self.config_text = (
            f"battery = {self.params}\nk = {self.K[0]}:{self.K[1]}\n"
            f"modes = {', '.join(self.MODES)}\nbounds = per-hour, computed once at set-up\n"
            f"offline_opt terminal = free\nn_days = 365\nseed = {seed}\n"
        )
        self.days: list = []
        self.bounds = None
        self.results: list = []

    def setup(self) -> None:
        days_path = ingest(self.workdir, self.seed, 365 * 24, 24)
        self.days = market_data.load_day_matrix(days_path)
        self.bounds = market_data.compute_bounds(self.days, 1, "per-hour")

    def run(self, index: int) -> tuple:
        day = self.days[index % len(self.days)]
        best, _ = thresholds.offline_opt(day, self.params, terminal="free")
        profits = tuple(
            thresholds.run_policy(day, self.params, *self.K, mode, self.bounds).profit
            for mode in self.MODES
        )
        return day.day_id, best, profits

    def check(self, result: tuple) -> dict:
        day_id, best, profits = result
        if len(self.results) < self.DIGEST_DAYS:
            self.results.append(result)
        problems = [
            f"{day_id} {mode}: offline {best!r} < policy {profit!r}"
            for mode, profit in zip(self.MODES, profits)
            if not best >= profit - PROFIT_TOL
        ]
        return {"problems": problems}

    def digest(self) -> str:
        """sha256 of the first audited days' optimum and policy profits."""
        return _digest(self.results)


def make(name: str, workdir: Path, seed: int):
    if name == "desk-grid":
        return Backtest(workdir, seed, n_days=365, horizon=24, config=DESK_GRID)
    if name == "fine-lattice":
        return Backtest(workdir, seed, n_days=45, horizon=48, config=FINE_LATTICE)
    if name == "hindsight-audit":
        return HindsightAudit(workdir, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("desk-grid", "fine-lattice", "hindsight-audit")
