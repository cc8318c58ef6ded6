"""Battery energy arbitrage with terminal state-of-charge guarantees.

Threshold (k-search) charge/discharge policies under price uncertainty, exact
SoC distribution propagation with probability redistribution, terminal-band
chance constraints and stopping times, and conformalized quantile regression
for the terminal SoC.
"""

__version__ = "0.1.0"

from .market_data import (
    DayMatrix,
    DayPrices,
    DatasetSplit,
    PriceBounds,
    PriceDistribution,
    PriceSeries,
    compute_bounds,
    fit_distribution,
    load_price_csv,
    slice_days,
    split_dataset,
)
from .thresholds import (
    BatteryParams,
    PolicyState,
    ThresholdSchedule,
    Trajectory,
    competitive_ratio,
    feasibility_aware_thresholds,
    offline_opt,
    policy_outcomes,
    run_policy,
    static_charge_thresholds,
    static_discharge_thresholds,
    threshold_rule,
    timedep_thresholds,
)
from .reachability import (
    ActionProbs,
    SocDistribution,
    StoppingResult,
    TargetBand,
    action_probabilities,
    count_feasible_trajectories,
    propagate,
    propagate_lanes,
    stopping_time,
    terminal_band_probability,
    trajectory_counts,
)
from .conformal import (
    ConformalModel,
    PredictionInterval,
    conformal_quantile,
    evaluate_coverage,
    fit_conformal,
    fit_conformal_models,
    nonconformity_scores,
    predict_interval,
    predict_intervals,
    train_quantile_model,
    train_quantile_models,
)
