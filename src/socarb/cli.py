"""Command-line interface.

Each subcommand declares only the flags it reads:

    ingest CSV --horizon --out
    thresholds --lmin --lmax --kch --kdis --alpha --omega --out
    simulate --day --index POLICY --out
    reach DAYS POLICY --band --out
    stop-time DAYS POLICY --band --epsilon --post-stop --out
    table1 BATTERY --band --steps --out
    cqr train DAYS POLICY --shuffle --split --epsilon --epochs --out
    cqr calibrate DAYS POLICY --shuffle --split --epsilon --model --out
    cqr predict DAYS --shuffle --split --model --clip --emin --emax --out
    cqr evaluate DAYS POLICY --shuffle --split --model --band --out
    backtest --config --synthetic --out
    plot-data --report --kind --out

DAYS is --days FILE or --synthetic N, with --seed and --horizon, the length
of --synthetic days (default 24); with --days the horizon is the matrix's day
length, and a --horizon that differs is an error.  --seed (default 0) seeds
--synthetic days and the cqr --shuffle split; given where neither reads it,
it is an error.  BATTERY is --emin --emax --rate --e0; POLICY is BATTERY plus
--kch --kdis --mode --bounds-mode.  Exit codes: 0 success, 1 validation error
(a malformed flag too), 2 data error.  No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import functools
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


def _summary(**fields) -> None:
    sys.stderr.write(json.dumps(fields, sort_keys=True) + "\n")


def _battery(args, horizon: int) -> th.BatteryParams:
    return th.BatteryParams(args.emin, args.emax, args.rate, args.e0, horizon)


def _band(text: str) -> rc.TargetBand:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"band must be 'lo,hi', got {text!r}")
    lo, hi = (float(p) for p in parts)
    return rc.TargetBand.from_interval(lo, hi)


def _add_days_args(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--days", help="day matrix CSV; its day length is the horizon")
    source.add_argument("--synthetic", type=int, default=0, help="generate N synthetic days")
    p.add_argument("--seed", type=int, help="seed of --synthetic and --shuffle (default 0)")
    p.add_argument("--horizon", type=int, help="steps T of --synthetic days (default 24)")


def _add_capacity_args(p):
    p.add_argument("--emin", type=float, default=0.0, help="minimum SoC [MWh]")
    p.add_argument("--emax", type=float, default=10.0, help="maximum SoC [MWh]")


def _add_battery_args(p):
    _add_capacity_args(p)
    p.add_argument("--rate", type=float, default=2.0, help="fixed step rate P [MWh]")
    p.add_argument("--e0", type=float, default=5.0, help="initial SoC [MWh]")


def _add_policy_args(p):
    _add_battery_args(p)
    p.add_argument("--kch", type=int, default=3)
    p.add_argument("--kdis", type=int, default=3)
    p.add_argument("--mode", choices=th.THRESHOLD_MODES, default="static")
    p.add_argument("--bounds-mode", choices=md.BOUNDS_MODES, default="per-hour")


def _seed(args) -> int:
    """--seed, or 0; an error where neither --synthetic nor --shuffle reads it."""
    if args.seed is None:
        return 0
    if args.days and not getattr(args, "shuffle", False):
        raise ValueError("--seed is read only with --synthetic or --shuffle")
    return args.seed


def _load_days(args) -> md.DayMatrix:
    """The days; their horizon is the matrix's day length, or --horizon (default 24)."""
    seed = _seed(args)
    if args.days:
        days = md.load_day_matrix(args.days)
        if args.horizon not in (None, days.horizon):
            raise ValueError(
                f"--horizon {args.horizon} but {args.days} has {days.horizon}-slot days"
            )
        return days
    if args.synthetic:
        horizon = 24 if args.horizon is None else args.horizon
        return bt.synthetic_day_matrix(args.synthetic, horizon, seed)
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
    rows = [(j, "charge", u) for j, u in enumerate(schedule.charge, 1)]
    rows += [(i, "discharge", l) for i, l in enumerate(schedule.discharge, 1)]
    _write(args, bt.csv_text(("index", "side", "value"), rows))
    _summary(alpha=schedule.alpha, omega=schedule.omega)
    return EXIT_OK


def cmd_simulate(args) -> int:
    days = md.load_day_matrix(args.day)
    if not 0 <= args.index < len(days):
        raise ValueError(f"--index {args.index} outside 0..{len(days) - 1}")
    day = days[args.index]
    params = _battery(args, len(day.values))
    bounds = md.compute_bounds(days, 1, args.bounds_mode)
    traj = th.run_policy(day, params, args.kch, args.kdis, args.mode, bounds)
    steps = zip(day.values, traj.actions, traj.soc_path[1:], traj.cash_flows)
    rows = [(t, *step) for t, step in enumerate(steps, start=1)]
    _write(args, bt.csv_text(("t", "price", "action", "soc", "cashflow"), rows))
    _summary(profit=traj.profit, charges=traj.charges, discharges=traj.discharges)
    return EXIT_OK


def _policy_distribution(args):
    """Budgeted SoC distribution of the policy on the days."""
    days = _load_days(args)
    params = _battery(args, days.horizon)
    bounds = md.compute_bounds(days, 1, args.bounds_mode)
    dist = md.fit_distribution(days)
    return rc.policy_distributions([params], dist, bounds, args.kch, args.kdis, args.mode)[0]


def cmd_reach(args) -> int:
    soc_dist = _policy_distribution(args)
    band = _band(args.band)
    _write(args, bt.plot_csv("soc-heatmap", bt.soc_heatmap_rows(soc_dist)))
    _summary(p_band=rc.terminal_band_probability(soc_dist, band), grid=list(soc_dist.grid))
    return EXIT_OK


def cmd_stop_time(args) -> int:
    soc_dist = _policy_distribution(args)
    mode = POST_STOP[args.post_stop]
    result = rc.stopping_time(soc_dist, _band(args.band), args.epsilon, mode)
    _write(args, bt.plot_csv("Qt-curve", bt.qt_curve_rows(result)))
    _summary(tau_star=result.tau_star)
    return EXIT_OK


def cmd_table1(args) -> int:
    band = _band(args.band)
    batteries = [_battery(args, n) for n in args.steps]  # every step count must be a horizon
    counts = rc.trajectory_counts(batteries[0], args.steps)
    rows = []
    for n in args.steps:
        in_band, total, pct = counts(n, band)
        rows.append((args.e0, band.lo, band.hi, n, in_band, total, f"{pct:.2f}"))
    header = ("e0", "band_lo", "band_hi", "steps", "in_band", "total", "pct")
    _write(args, bt.csv_text(header, rows))
    return EXIT_OK


def cmd_cqr(args) -> int:
    days = _load_days(args)
    ratios = tuple(float(r) for r in args.split.split(","))
    split = md.split_dataset(days, ratios, seed=_seed(args), shuffled=args.shuffle)
    if args.cqr_cmd != "train":
        try:
            model = cf.ConformalModel.from_json(Path(args.model).read_text())
        except ValueError as exc:
            raise ValueError(f"{args.model}: {exc}") from None
    if args.cqr_cmd == "predict":
        if args.clip and not args.emin < args.emax:
            raise ValueError(f"--emin {args.emin} must be below --emax {args.emax}")
        los, his = cf.predict_intervals(model, split.test.prices)
        rows = []
        for day_id, lo, hi in zip(split.test.day_ids, los.tolist(), his.tolist()):
            lo = max(lo, args.emin) if args.clip else lo
            hi = min(hi, args.emax) if args.clip else hi
            rows.append((day_id, lo, hi))
        _write(args, bt.csv_text(("day_id", "lo", "hi"), rows))
        return EXIT_OK
    params = _battery(args, days.horizon)
    bounds = md.compute_bounds(split.train, 1, args.bounds_mode)
    if args.cqr_cmd == "train":
        model = cf.fit_conformal(
            split.train,
            split.calib,
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
    labelled = split.calib if args.cqr_cmd == "calibrate" else split.test
    x, y = cf.label_days(labelled, [params], bounds, args.kch, args.kdis, args.mode)
    if args.cqr_cmd == "calibrate":
        _write(args, cf.calibrate(model, x, y[0], args.epsilon).to_json() + "\n")
        return EXIT_OK
    # evaluate
    band = _band(args.band) if args.band else None
    report = cf.evaluate_coverage(model, x, y[0], band)
    doc = {
        # the level the model was calibrated at, exact since rho_low = epsilon / 2
        "epsilon": 2 * model.rho_low,
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


def _command(sub, name, func, *groups, **kwargs):
    """Subparser ``name`` running ``func``, with the given flag groups and --out.

    Abbreviated flags are refused: ``cqr predict --mode`` would be read as --model.
    """
    p = sub.add_parser(name, allow_abbrev=False, **kwargs)
    for add_args in groups:
        add_args(p)
    p.add_argument("--out")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="socarb",
        description="Battery arbitrage threshold policies with terminal-SoC guarantees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "ingest", cmd_ingest, help="CSV price series to canonical day matrix")
    p.add_argument("csv", help="timestamp,price CSV path")
    p.add_argument("--horizon", type=int, default=24)

    p = _command(sub, "thresholds", cmd_thresholds, help="static threshold schedule as CSV")
    p.add_argument("--lmin", type=float, required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--kch", type=int, default=0)
    p.add_argument("--kdis", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None, help="charge ratio (default: solved)")
    p.add_argument("--omega", type=float, default=None, help="discharge ratio (default: solved)")

    p = _command(sub, "simulate", cmd_simulate, _add_policy_args, help="run the policy on one day")
    p.add_argument("--day", required=True, help="day matrix CSV")
    p.add_argument("--index", type=int, default=0, help="row to simulate")

    help_ = "per-step SoC distribution and band probability"
    p = _command(sub, "reach", cmd_reach, _add_days_args, _add_policy_args, help=help_)
    p.add_argument("--band", required=True, help="lo,hi")

    help_ = "Q_t curve and minimum stopping time"
    p = _command(sub, "stop-time", cmd_stop_time, _add_days_args, _add_policy_args, help=help_)
    p.add_argument("--band", required=True, help="lo,hi")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--post-stop", choices=POST_STOP, default="full")

    p = _command(sub, "table1", cmd_table1, _add_battery_args, help="feasible-trajectory counts")
    p.add_argument("--band", required=True, help="lo,hi")
    p.add_argument("--steps", type=int, nargs="+", required=True)

    p = sub.add_parser("cqr", help="conformalized quantile regression pipeline")
    cqr_sub = p.add_subparsers(dest="cqr_cmd", required=True)
    split = ",".join(map(str, md.DEFAULT_SPLIT))
    for name in ("train", "calibrate", "predict", "evaluate"):
        flags = _add_capacity_args if name == "predict" else _add_policy_args
        q = _command(cqr_sub, name, cmd_cqr, _add_days_args, flags)
        q.add_argument("--shuffle", action="store_true")
        q.add_argument("--split", default=split, help="train,calib,test ratios")
        if name in ("train", "calibrate"):
            q.add_argument("--epsilon", type=float, default=0.1)
        if name == "train":
            q.add_argument(
                "--epochs",
                type=int,
                default=cf.EPOCHS,
                help="cap on the quantile LP solver's iterations; 0 keeps the untrained start",
            )
        else:
            q.add_argument("--model", required=True, help="model JSON path")
        if name == "predict":
            q.add_argument("--clip", action="store_true", help="clip to [--emin, --emax]")
        if name == "evaluate":
            q.add_argument("--band", help="lo,hi")

    p = _command(sub, "backtest", cmd_backtest, help="full experiment grid to a JSON report")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--synthetic", type=int, default=0, help="use N synthetic days")

    p = _command(sub, "plot-data", cmd_plot_data, help="extract plot CSVs from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--kind", required=True, choices=sorted(bt.PLOT_KINDS))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves no state in it."""
    return build_parser()


# every character str.splitlines breaks a line at, to its escape as repr writes it
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _one_line(exc: Exception) -> str:
    """The message of exc on one line: a line break it quotes from a file is escaped."""
    return str(exc).translate(_LINE_BREAKS)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, OSError) as exc:
        sys.stderr.write(f"data error: {_one_line(exc)}\n")
        return EXIT_DATA
    except ValueError as exc:
        sys.stderr.write(f"validation error: {_one_line(exc)}\n")
        return EXIT_VALIDATION
    except MemoryError as exc:
        # inputs too large to hold, such as a rate whose SoC lattice has
        # billions of levels, are refused like any other invalid input
        sys.stderr.write(f"validation error: out of memory: {_one_line(exc) or 'MemoryError'}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
