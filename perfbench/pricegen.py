"""Seeded hourly price generator owned by the benchmark.

The library ships its own ``synthetic_day_matrix``; the benchmark does not use
it, so that a change to that function cannot change the benchmark's inputs.
Prices here are a lognormal base (one level per day plus hourly noise) shaped
by a two-peak intraday profile, with a small share of spike hours.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta

import numpy as np

START = datetime(2025, 1, 1)  # midnight, so ingest's hour-0 anchor is row 0


def intraday_shape(hours: np.ndarray) -> np.ndarray:
    """Log-price offset per hour of day: a morning and a larger evening peak."""
    h = hours % 24
    morning = 0.25 * np.exp(-0.5 * ((h - 8.0) / 1.5) ** 2)
    evening = 0.45 * np.exp(-0.5 * ((h - 19.0) / 2.0) ** 2)
    night = -0.20 * np.exp(-0.5 * ((h - 3.0) / 2.0) ** 2)
    return morning + evening + night


def hourly_prices(
    n_hours: int,
    seed: int,
    mu: float = math.log(45.0),
    day_sigma: float = 0.15,
    hour_sigma: float = 0.22,
    spike_share: float = 0.02,
) -> np.ndarray:
    """``n_hours`` strictly positive prices; the same seed gives the same prices."""
    rng = np.random.default_rng(seed)
    hours = np.arange(n_hours)
    day_level = np.repeat(day_sigma * rng.standard_normal(n_hours // 24 + 1), 24)[:n_hours]
    log_price = mu + intraday_shape(hours) + day_level + hour_sigma * rng.standard_normal(n_hours)
    spikes = rng.random(n_hours) < spike_share
    log_price[spikes] += rng.uniform(math.log(2.0), math.log(5.0), int(spikes.sum()))
    return np.exp(log_price)


def write_price_csv(path, n_hours: int, seed: int) -> None:
    """Write an hourly ``timestamp,price`` CSV for ``socarb ingest``."""
    prices = hourly_prices(n_hours, seed)
    lines = ["timestamp,price"]
    for i, p in enumerate(prices.tolist()):
        lines.append(f"{(START + timedelta(hours=i)).isoformat()},{p!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
