"""Command-line interface.

Subcommands: ingest, thresholds, simulate, reach, stop-time, table1,
cqr {train, calibrate, predict, evaluate}, backtest, plot-data.  Output goes
to stdout unless --out is given.  Exit codes: 0 success, 1 validation error
(a malformed flag too), 2 data error.  No environment variables are consulted.

Each subcommand parses its flags and makes the library calls the backtest
makes: ``thresholds`` prints :func:`socarb.thresholds.build_schedule`'s
books and ratios, ``reach`` and ``stop-time`` share one pipeline, whose SoC
distribution is bounded by --kch/--kdis, and ``cqr calibrate`` is
:func:`socarb.conformal.calibrate`.  The --mode, --bounds-mode and --post-stop
choices are the library's own mode tuples.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import backtest as bt
from . import conformal as cf
from . import market_data as md
from . import reachability as rc
from . import thresholds as th

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DATA = 2

# --post-stop short names for stopping_time's post-stop modes
POST_STOP = dict(zip(("idle", "full", "policy"), rc.POST_STOP_MODES))


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _battery(args) -> th.BatteryParams:
    return th.BatteryParams(
        e_min=args.emin, e_max=args.emax, rate=args.rate, e0=args.e0, horizon=args.horizon
    )


def _band(text: str) -> rc.TargetBand:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"band must be 'lo,hi', got {text!r}")
    lo, hi = (float(p) for p in parts)
    return rc.TargetBand.from_interval(lo, hi)


def _add_battery_args(p):
    p.add_argument("--emin", type=float, default=0.0, help="minimum SoC [MWh]")
    p.add_argument("--emax", type=float, default=10.0, help="maximum SoC [MWh]")
    p.add_argument("--rate", type=float, default=2.0, help="fixed step rate P [MWh]")
    p.add_argument("--e0", type=float, default=5.0, help="initial SoC [MWh]")
    p.add_argument("--horizon", type=int, default=24, help="steps T")


def _add_policy_args(p, data=True):
    """Battery, day source (unless ``data`` is false), budget, mode and --out flags."""
    _add_battery_args(p)
    if data:
        p.add_argument("--days", help="day matrix CSV")
        p.add_argument("--synthetic", type=int, default=0, help="generate N synthetic days")
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kch", type=int, default=3)
    p.add_argument("--kdis", type=int, default=3)
    p.add_argument("--mode", choices=th.THRESHOLD_MODES, default="static")
    p.add_argument("--bounds-mode", choices=md.BOUNDS_MODES, default="per-hour")
    p.add_argument("--out")


def _load_days(args) -> list[md.DayPrices]:
    if args.days:
        return md.load_day_matrix(args.days)
    if args.synthetic:
        return bt.synthetic_day_matrix(args.synthetic, args.horizon, args.seed)
    raise ValueError("provide --days <day matrix csv> or --synthetic <n>")


def cmd_ingest(args) -> int:
    series = md.load_price_csv(args.csv)
    days = md.slice_days(series, args.horizon)
    if not days:
        raise ValueError("no complete days after slicing")
    md.export_day_matrix(days, args.out or "days.csv")
    summary = {"rows": len(series), "days": len(days), "horizon": args.horizon}
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_thresholds(args) -> int:
    # a static schedule reads only the envelope of its bounds
    bounds = md.PriceBounds(args.lmin, args.lmax)
    schedule = th.build_schedule(bounds, args.kch, args.kdis, args.alpha, args.omega)
    lines = ["index,side,value"]
    lines += [f"{j},charge,{u!r}" for j, u in enumerate(schedule.charge, 1)]
    lines += [f"{i},discharge,{l!r}" for i, l in enumerate(schedule.discharge, 1)]
    _write(args, "\n".join(lines) + "\n")
    summary = {"alpha": schedule.alpha, "omega": schedule.omega}
    sys.stderr.write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    days = md.load_day_matrix(args.day)
    if not 0 <= args.index < len(days):
        raise ValueError(f"--index {args.index} outside 0..{len(days) - 1}")
    day = days[args.index]
    params = replace(_battery(args), horizon=len(day.values))
    bounds = md.compute_bounds(days, 1, args.bounds_mode)
    traj = th.run_policy(day, params, args.kch, args.kdis, args.mode, bounds)
    lines = ["t,price,action,soc,cashflow"]
    for t, (lam, a, e, c) in enumerate(
        zip(day.values, traj.actions, traj.soc_path[1:], traj.cash_flows), start=1
    ):
        lines.append(f"{t},{lam!r},{a},{e!r},{c!r}")
    _write(args, "\n".join(lines) + "\n")
    summary = {"profit": traj.profit, "charges": traj.charges, "discharges": traj.discharges}
    sys.stderr.write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


def _policy_distribution(args):
    """Action probabilities and budgeted SoC distribution of the policy on the days."""
    params = _battery(args)
    days = _load_days(args)
    bounds = md.compute_bounds(days, 1, args.bounds_mode)
    dist = md.fit_distribution(days)
    probs = rc.policy_action_probabilities(params, dist, bounds, args.kch, args.kdis, args.mode)
    return probs, rc.propagate(params, probs, args.kch, args.kdis)


def cmd_reach(args) -> int:
    _, soc_dist = _policy_distribution(args)
    band = _band(args.band)
    lines = ["t,e,mass"]
    for t in range(soc_dist.horizon + 1):
        for e, mass in sorted(soc_dist.marginal(t).items()):
            lines.append(f"{t},{e!r},{mass!r}")
    _write(args, "\n".join(lines) + "\n")
    summary = {
        "p_band": rc.terminal_band_probability(soc_dist, band),
        "grid": list(soc_dist.grid),
    }
    sys.stderr.write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_stop_time(args) -> int:
    probs, soc_dist = _policy_distribution(args)
    mode = POST_STOP[args.post_stop]
    result = rc.stopping_time(soc_dist, probs, _band(args.band), args.epsilon, mode)
    lines = ["t,Q_t"] + [f"{t},{q!r}" for t, q in enumerate(result.big_q, start=1)]
    _write(args, "\n".join(lines) + "\n")
    sys.stderr.write(json.dumps({"tau_star": result.tau_star}, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_table1(args) -> int:
    params = _battery(args)
    band = _band(args.band)
    lines = ["e0,band_lo,band_hi,steps,in_band,total,pct"]
    for n in args.steps:
        in_band, total, pct = rc.count_feasible_trajectories(replace(params, horizon=n), n, band)
        lines.append(f"{args.e0!r},{band.lo!r},{band.hi!r},{n},{in_band},{total},{pct:.2f}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cqr_setup(args):
    params = _battery(args)
    days = _load_days(args)
    ratios = tuple(float(r) for r in args.split.split(","))
    split = md.split_dataset(days, ratios, seed=args.seed, shuffled=args.shuffle)
    bounds = md.compute_bounds(list(split.train), 1, args.bounds_mode)
    return params, split, bounds


def cmd_cqr(args) -> int:
    params, split, bounds = _cqr_setup(args)
    if args.cqr_cmd == "train":
        model = cf.fit_conformal(
            list(split.train),
            list(split.calib),
            params,
            bounds,
            args.kch,
            args.kdis,
            args.epsilon,
            args.mode,
            epochs=args.epochs,
        )
        _write(args, model.to_json() + "\n")
        return EXIT_OK
    try:
        model = cf.ConformalModel.from_json(Path(args.model).read_text())
    except ValueError as exc:
        raise ValueError(f"{args.model}: {exc}") from None
    if args.cqr_cmd == "calibrate":
        model = cf.calibrate(
            model, list(split.calib), params, bounds, args.kch, args.kdis, args.epsilon, args.mode
        )
        _write(args, model.to_json() + "\n")
        return EXIT_OK
    if args.cqr_cmd == "predict":
        days = list(split.test)
        lines = ["day_id,lo,hi"]
        for day in days:
            interval = cf.predict_interval(model, cf.day_features(day))
            lo = max(interval.lo, params.e_min) if args.clip else interval.lo
            hi = min(interval.hi, params.e_max) if args.clip else interval.hi
            lines.append(f"{day.day_id},{lo!r},{hi!r}")
        _write(args, "\n".join(lines) + "\n")
        return EXIT_OK
    # evaluate
    band = _band(args.band) if args.band else None
    report = cf.evaluate_coverage(
        model, list(split.test), params, bounds, args.kch, args.kdis, band, args.mode
    )
    doc = {
        "epsilon": args.epsilon,
        "n_test": report.n_test,
        "marginal_coverage": report.marginal_coverage,
        "band": [band.lo, band.hi] if band else None,
        "band_certificate_rate": report.band_certificate_rate,
        "mean_interval_width": report.mean_interval_width,
    }
    _write(args, json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_backtest(args) -> int:
    config = bt.load_config(args.config) if args.config else bt.parse_config("")
    if args.synthetic:
        config = replace(config, data_path=None, synthetic_days=args.synthetic)
    report = bt.run_experiment(config)
    _write(args, report.to_json())
    return EXIT_OK


def cmd_plot_data(args) -> int:
    try:
        report = bt.Report(json.loads(Path(args.report).read_text()))
        bt.emit_plot_data(report, args.kind, args.out or f"{args.kind}.csv")
    except ValueError as exc:
        raise ValueError(f"{args.report}: {exc}") from None
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, the validation-error code, not 2."""

    def error(self, message):
        if message.endswith("expected one argument"):
            message += " (join a value that starts with '-' to its flag, as in --emin=-inf)"
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="socarb",
        description="Battery arbitrage threshold policies with terminal-SoC guarantees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="CSV price series to canonical day matrix")
    p.add_argument("csv", help="timestamp,price CSV path")
    p.add_argument("--horizon", type=int, default=24)
    p.add_argument("--out", help="day matrix output path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("thresholds", help="print a static threshold schedule as CSV")
    p.add_argument("--lmin", type=float, required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--kch", type=int, default=0)
    p.add_argument("--kdis", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None, help="charge ratio (default: solved)")
    p.add_argument("--omega", type=float, default=None, help="discharge ratio (default: solved)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("simulate", help="run the policy on one day")
    p.add_argument("--day", required=True, help="day matrix CSV")
    p.add_argument("--index", type=int, default=0, help="row to simulate")
    _add_policy_args(p, data=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reach", help="per-step SoC distribution and band probability")
    _add_policy_args(p)
    p.add_argument("--band", required=True, help="lo,hi")
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("stop-time", help="Q_t curve and minimum stopping time")
    _add_policy_args(p)
    p.add_argument("--band", required=True, help="lo,hi")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--post-stop", choices=POST_STOP, default="full")
    p.set_defaults(func=cmd_stop_time)

    p = sub.add_parser("table1", help="feasible-trajectory counting report")
    _add_battery_args(p)
    p.add_argument("--band", required=True, help="lo,hi")
    p.add_argument("--steps", type=int, nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("cqr", help="conformalized quantile regression pipeline")
    cqr_sub = p.add_subparsers(dest="cqr_cmd", required=True)
    for name in ("train", "calibrate", "predict", "evaluate"):
        q = cqr_sub.add_parser(name)
        _add_policy_args(q)
        q.add_argument("--shuffle", action="store_true")
        q.add_argument("--epsilon", type=float, default=0.1)
        q.add_argument("--split", default="0.6,0.2,0.2", help="train,calib,test ratios")
        q.add_argument("--epochs", type=int, default=400)
        if name in ("calibrate", "predict", "evaluate"):
            q.add_argument("--model", required=True, help="model JSON path")
        if name == "predict":
            q.add_argument("--clip", action="store_true", help="clip to capacity in output")
        if name == "evaluate":
            q.add_argument("--band", help="lo,hi")
        q.set_defaults(func=cmd_cqr)

    p = sub.add_parser("backtest", help="full experiment grid to a JSON report")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--synthetic", type=int, default=0, help="use N synthetic days")
    p.add_argument("--out")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("plot-data", help="extract plot CSVs from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--kind", required=True, choices=sorted(bt.PLOT_HEADERS))
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, OSError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except ValueError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
