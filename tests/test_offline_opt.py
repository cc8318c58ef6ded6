"""The perfect-foresight optimum against the reference DP that tracks both counters."""

import numpy as np
import pytest

from oracles import reference_offline_opt
from socarb.market_data import DayPrices
from socarb.thresholds import BatteryParams, offline_opt

HORIZONS = (1, 2, 5, 8)


def budgets(horizon, rng):
    """None, the non-binding budgets, one-sided budgets and random binding ones."""
    h = horizon
    fixed = [None, (h, h), (h + 2, 0), (0, h), (h + 2, 1), (1, h + 3), (h - 1, h - 1)]
    fixed += [tuple(int(k) for k in rng.integers(0, h, 2)) for _ in range(3)]
    return fixed


def days(horizon, rng):
    """Uniform prices, prices from three levels (many ties) and constant prices."""
    out = [tuple(float(v) for v in rng.uniform(10.0, 90.0, horizon)) for _ in range(3)]
    out += [tuple(10.0 * float(v) for v in rng.integers(1, 4, horizon)) for _ in range(2)]
    out += [(25.0,) * horizon]
    return [DayPrices(f"d{i}", values) for i, values in enumerate(out)]


@pytest.mark.parametrize("terminal", ["cyclic", "free"])
@pytest.mark.parametrize("e0", [0.0, 4.0, 10.0])
def test_offline_opt_equals_reference(terminal, e0):
    rng = np.random.default_rng(17)
    cases = 0
    for horizon in HORIZONS:
        params = BatteryParams(0.0, 10.0, 2.0, e0, horizon)
        for d in days(horizon, rng):
            for fixed_k in budgets(horizon, rng):
                profit, traj = offline_opt(d, params, fixed_k=fixed_k, terminal=terminal)
                ref_profit, ref = reference_offline_opt(
                    d, params, fixed_k=fixed_k, terminal=terminal
                )
                case = (horizon, d.values, fixed_k)
                assert profit == ref_profit, case
                assert traj.actions == ref.actions, case
                assert traj.soc_path == ref.soc_path, case
                assert traj.cash_flows == ref.cash_flows, case
                assert traj.profit == ref.profit, case
                cases += 1
    assert cases == len(HORIZONS) * 6 * 10
