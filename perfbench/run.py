"""socarb benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs operations back to back; the next starts when the previous
one has finished, its output has been checked and a short CPU probe has run.  With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, taken
from spans around socarb's public functions (see tracer.py).  ``all`` runs
every workload in turn, each in a child process of its own so that peak
memory is the workload's own, and prints them side by side.

The program is imported from ``src/`` of the checkout; nothing needs
installing.  Scratch files go to ``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative to ROOT, which is the working directory

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_s.tail has at least this many samples above it
MIN_OPS = TAIL_BEYOND + 1
MIN_TRACED_OPS = 2  # per side, traced and untraced, in a traced run
MAX_LOOP_S = 120.0  # the loop stops here even if MIN_OPS is not reached
CHILD_TIMEOUT_S = 300
# Timings are scaled to a reference CPU speed measured by cpu_probe(); see
# README.md, "Interference".
PROBE_LOOPS = 8_000  # one thread: about 3 ms on an idle 2 GHz Xeon core
# per thread of a pool probe: long enough for the interpreter to hand the
# lock between threads (every 5 ms) a few times, as the backtest pool does
PROBE_POOL_LOOPS = 20_000
PROBE_REPEATS = 3
# seconds per single-thread probe iteration between operations on an idle core
# of a 2 GHz Xeon 2-vCPU VM, where single-thread scales are therefore about 1
PROBE_REF_S = 3.75e-7

IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import socarb.cli; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_socarb():
    """Import socarb from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "socarb" / "__init__.py").is_file():
        raise FileNotFoundError(f"no socarb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import socarb.cli

    if not Path(socarb.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"socarb imported from {socarb.__file__}, not from {SRC}")
    # the library logs expected warnings (e.g. CQR drops the constant e0
    # feature on every fit); keep stderr for the benchmark's own messages
    logging.getLogger("socarb").addHandler(logging.NullHandler())


def time_import() -> float:
    """Seconds a fresh interpreter spends importing ``socarb.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.split()[-1])


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n < MIN_OPS:
        raise ValueError(f"{n} operations; op_s.tail needs {MIN_OPS}")
    return ordered[n - MIN_OPS], 100.0 * (n - TAIL_BEYOND) / n


_ZERO = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "keys": (), "detail_sum": 0}


def layer_values(summary: dict, facts: dict) -> dict:
    """Per-layer metrics of one traced operation."""

    def get(name):
        return summary.get(name, _ZERO)

    def useful(entry):
        return len(entry["keys"]) / entry["calls"] if entry["calls"] else 0.0

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    run_policy = get("thresholds.run_policy")
    ratio = get("thresholds.competitive_ratio")
    offline = get("thresholds.offline_opt")
    prop = get("reachability.propagate")
    tqm = get("conformal.train_quantile_model")
    fit = get("market_data.fit_distribution")
    bounds = get("market_data.compute_bounds")
    pool = summary["_threads"]
    return {
        "thresholds.run_policy.calls": run_policy["calls"],
        "thresholds.run_policy.busy_s": run_policy["busy_s"],
        "thresholds.competitive_ratio.calls": ratio["calls"],
        "thresholds.competitive_ratio.useful_ratio": useful(ratio),
        "thresholds.build_schedule.calls": get("thresholds.build_schedule")["calls"],
        "thresholds.offline_opt.calls": offline["calls"],
        "thresholds.offline_opt.ms_per_call": per(offline["busy_s"], offline["calls"], 1e3),
        "reachability.propagate.calls": prop["calls"],
        "reachability.propagate.busy_s": prop["busy_s"],
        "reachability.propagate.states": prop["detail_sum"],
        "reachability.propagate.states_per_s": per(prop["detail_sum"], prop["busy_s"]),
        "reachability.stopping_time.self_s": get("reachability.stopping_time")["self_s"],
        "reachability.policy_action_probabilities.busy_s": get(
            "reachability.policy_action_probabilities"
        )["busy_s"],
        "reachability.count_feasible_trajectories.busy_s": get(
            "reachability.count_feasible_trajectories"
        )["busy_s"],
        "conformal.train_quantile_model.calls": tqm["calls"],
        "conformal.train_quantile_model.busy_s": tqm["busy_s"],
        "conformal.label_days.days": get("conformal.label_days")["detail_sum"],
        "conformal.fit_conformal.self_s": get("conformal.fit_conformal")["self_s"],
        "market_data.fit_distribution.calls": fit["calls"],
        "market_data.fit_distribution.useful_ratio": useful(fit),
        "market_data.compute_bounds.calls": bounds["calls"],
        "market_data.compute_bounds.useful_ratio": useful(bounds),
        "market_data.load_day_matrix.busy_s": get("market_data.load_day_matrix")["busy_s"],
        "backtest.run_experiment.self_s": get("backtest.run_experiment")["self_s"],
        "backtest.cells": facts.get("cells", 0),
        "backtest.cells_failed": facts.get("cells_failed", 0),
        "backtest.thread_busy_ratio": per(pool["busy_s"], pool["wall_s"]),
        "backtest.thread_cpu_ratio": per(pool["cpu_s"], pool["wall_s"]),
        "cli.main.self_s": get("cli.main")["self_s"],
        "cli.report_bytes": facts.get("report_bytes", 0),
    }


class Op(NamedTuple):
    seconds: float  # wall time of the operation itself
    cycle: float  # wall time of the operation plus its check: one loop turn
    scale: float  # PROBE_REF_S over the mean of the probes around it
    traced: bool
    ok: bool
    layers: dict | None  # per-layer values, for a traced operation


def _probe_loop(loops: int) -> None:
    table: dict = {}
    for i in range(loops):
        key = (i % 97, i % 89, i % 7)
        prev = table.get(key, (0.0, 0))
        cand = (prev[0] + i * 0.5, prev[1] - 1)
        table[key] = cand if cand > prev else prev


def cpu_probe(threads: int = 1) -> float:
    """Seconds per iteration of a fixed dict-and-tuple loop: the CPU speed the
    work sees now.

    The loop does what socarb's hot paths do (tuple keys, dict lookups,
    tuple comparisons, float arithmetic), so other load on the machine slows
    it about as much as it slows them.  With ``threads`` > 1 it runs on a
    thread pool of that width, as a backtest's cells do, and so also feels
    load on the other cores the pool's threads move between.  The garbage
    collector is off while it runs, so that the size of the workload's heap
    does not leak into it, and the fastest of PROBE_REPEATS runs counts,
    because the first run after an operation is slowed by what the operation
    left behind in the caches.
    """
    loops = PROBE_LOOPS if threads == 1 else PROBE_POOL_LOOPS
    times = []
    gc.disable()
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                if threads == 1:
                    _probe_loop(loops)
                else:
                    list(pool.map(_probe_loop, [loops] * threads))
                times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return min(times) / (loops * threads)


def speed_scale(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at reference CPU speed, given the
    probes taken just before and just after the work."""
    return 2.0 * PROBE_REF_S / (before + after)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> None:
    import tracer
    import workloads

    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        work = workloads.make(name, workdir, seed)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = cpu_probe()
            imported = time_import()
            t0 = time.perf_counter()
            work.setup()
            elapsed = imported + time.perf_counter() - t0
            setup_times.append(elapsed * speed_scale(before, cpu_probe()))

        attempted = failed = 0
        problems: list[str] = []
        spans = tracer.Tracer() if trace else None

        def operation(index: int, traced: bool) -> tuple[float, float, bool, dict]:
            nonlocal attempted, failed
            attempted += 1
            if traced:
                spans.install()
            t0 = time.perf_counter()
            try:
                try:
                    out = work.run(index)
                finally:
                    op_s = time.perf_counter() - t0
                    if traced:
                        spans.remove()
                facts = work.check(out)
            except Exception as exc:  # a failed operation is counted, not fatal
                facts = {"problems": [f"{type(exc).__name__}: {exc}"]}
            cycle_s = time.perf_counter() - t0
            if facts["problems"]:
                failed += 1
                problems.extend(facts["problems"][:3])
            return op_s, cycle_s, not facts["problems"], facts

        # one operation before the timed loop, so that one-time costs of the
        # process stay out of op_s (see README.md, "Warm-up")
        warm_up_s = operation(0, traced=False)[0]
        ops: list[Op] = []
        before = cpu_probe(work.threads)
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            counts = [sum(1 for op in ops if op.traced == side) for side in (False, True)]
            enough = min(counts) >= MIN_TRACED_OPS if trace else counts[0] >= MIN_OPS
            if (elapsed >= seconds and enough) or elapsed >= MAX_LOOP_S:
                break
            traced = trace and len(ops) % 2 == 0
            op_s, cycle_s, ok, facts = operation(len(ops) + 1, traced)
            layers = layer_values(tracer.summarize(spans.take()), facts) if traced else None
            after = cpu_probe(work.threads)
            ops.append(Op(op_s, cycle_s, speed_scale(before, after), traced, ok, layers))
            before = after
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        untraced = [op for op in ops if not op.traced]
        op_times = [op.seconds * op.scale for op in untraced]
        if trace:
            rows = [op.layers for op in ops if op.traced]
            # median_low keeps counts whole: every value is one operation's
            values = {key: statistics.median_low(row[key] for row in rows) for key in rows[0]}
            values["trace.overhead_s"] = statistics.median(
                op.seconds * op.scale for op in ops if op.traced
            ) - statistics.median(op_times)
            declared = spec["per_layer"]
        else:
            tail_s, tail_pct = tail(op_times)
            values = {
                "setup_s": statistics.median(setup_times),
                "op_s.p50": statistics.median(op_times),
                "op_s.tail": tail_s,
                "ops_per_s": sum(op.ok for op in untraced)
                / sum(op.cycle * op.scale for op in untraced),
                "peak_rss_mb": peak_rss_mb,
            }
            declared = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(units) != set(values):
            raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

        import numpy

        provenance = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": git_commit(),
            "config": work.config_text,
            "result_sha256": work.digest(),
            "operations": len(ops),
            "warm_up_op_s": warm_up_s,
            "wall_op_s_samples": [op.seconds for op in ops],
            "scale_samples": [op.scale for op in ops],
            "wall_op_s.p50": statistics.median(op.seconds for op in untraced),
            "setup_s_samples": setup_times,
            "fail_ratio": failed / attempted,
        }
        if not trace:
            provenance["op_s.tail_percentile"] = tail_pct
        print("provenance " + json.dumps(provenance, sort_keys=True))
        for problem in problems[:20]:
            print(f"failure: {problem}")
        for key in sorted(values):
            print(f"{name:16s} {key:48s} {values[key]!r} {units[key]}")
        print(f"{name:16s} {'fail_ratio':48s} {failed / attempted!r} ({failed}/{attempted})")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
        }
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run_all(args, spec: dict) -> int:
    """Every workload in its own child process, one after the other."""
    import schema

    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        problems = schema.check_result(spec, lines[-1] if lines else "", args.trace)
        if child.returncode != 0 or problems:
            sys.stderr.write(child.stderr)
            sys.stderr.write(f"{name}: exit {child.returncode}; {problems}\n")
            status = 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_socarb()
    except (OSError, ImportError, ValueError) as exc:
        sys.stderr.write(f"perfbench: cannot start: {exc}\n")
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
