"""Thread-aware spans around socarb's public functions, installed from outside.

The tracer replaces each traced function with a wrapper in every socarb module
that binds it by name (``run_policy`` is bound in ``thresholds``,
``backtest``, ``conformal``, ``reachability`` and the package itself), so
calls made from inside the library are seen as well as calls made by the
benchmark.  Spans live in memory until the benchmark reads them after each
operation.

Each thread keeps its own span stack.  ``run_experiment`` fans cells out to a
thread pool, so a span that opens on a worker thread with an empty stack takes
the enclosing ``run_experiment`` span as its parent.  Self time is a span's
duration minus the union of its children's intervals; children on different
threads overlap, so summing them would give negative self times.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

EXPERIMENT = "backtest.run_experiment"

# Public functions timed per layer: those the metrics name, and those whose
# spans keep their callers' self time honest (split_dataset, load_config,
# terminal_band_probability, evaluate_coverage).  Per-step helpers
# (step_policy, static_*_thresholds, action_probabilities, ...) are left out:
# they run hundreds of thousands of times per report, and wrapping them would
# make the tracer's own cost dominate the spans around them.
TRACED = {
    "thresholds": ("run_policy", "competitive_ratio", "build_schedule", "offline_opt"),
    "reachability": (
        "policy_action_probabilities",
        "propagate",
        "stopping_time",
        "count_feasible_trajectories",
        "terminal_band_probability",
    ),
    "conformal": ("fit_conformal", "train_quantile_model", "label_days", "evaluate_coverage"),
    "market_data": ("load_day_matrix", "compute_bounds", "fit_distribution", "split_dataset"),
    "backtest": ("load_config", "run_experiment"),
    "cli": ("main",),
}


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _argument_key(args, kwargs, result):
    """Hash of the call's arguments, for the distinct-arguments ratio."""
    return hash((_freeze(args), _freeze(kwargs)))


def _propagated_states(args, kwargs, result):
    """(step, state) entries the propagation produced."""
    return sum(len(step) for step in result.per_step)


def _labelled_days(args, kwargs, result):
    return len(args[0] if args else kwargs["days"])


DETAILS = {
    "thresholds.competitive_ratio": _argument_key,
    "market_data.fit_distribution": _argument_key,
    "market_data.compute_bounds": _argument_key,
    "reachability.propagate": _propagated_states,
    "conformal.label_days": _labelled_days,
}


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    cpu: float  # CPU time on the span's thread; measured for children of run_experiment only
    detail: object = None  # what DETAILS records for this function


class Tracer:
    """Collects spans for the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._experiment: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every traced function in every loaded socarb module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "socarb" or n.startswith("socarb.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"socarb.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def remove(self) -> None:
        """Put the original functions back."""
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        detail_of = DETAILS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._owner:
                parent = tracer._experiment
            else:
                parent = None
            span_id = next(tracer._ids)
            stack.append(span_id)
            if name == EXPERIMENT:
                tracer._experiment = span_id
            # the CPU clock is a system call; read it only where summarize() uses it
            timed_cpu = name == EXPERIMENT or parent is None or parent == tracer._experiment
            result = detail = None
            cpu0 = time.thread_time() if timed_cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time() if timed_cpu else 0.0
                stack.pop()
                if name == EXPERIMENT:
                    tracer._experiment = None
                if detail_of is not None and result is not None:
                    detail = detail_of(args, kwargs, result)
                # list.append is atomic under the interpreter lock
                tracer.spans.append(
                    Span(span_id, parent, name, threading.get_ident(), t0, t1, cpu1 - cpu0, detail)
                )

        return wrapper


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span]) -> dict:
    """Per-function totals for one operation's spans.

    Returns ``{name: {"calls", "busy_s", "self_s", "keys", "detail_sum"}}`` plus
    ``"_threads"``: busy, CPU and wall seconds of ``run_experiment`` and the
    calls it fans out.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    stats: dict = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "keys": set(), "detail_sum": 0}
    )
    threads = {"busy_s": 0.0, "cpu_s": 0.0, "wall_s": 0.0}
    for span in spans:
        duration = span.end - span.start
        kids = children.get(span.span_id, ())
        clipped = ((max(k.start, span.start), min(k.end, span.end)) for k in kids)
        covered = _union_length((lo, hi) for lo, hi in clipped if lo < hi)
        self_s = duration - covered  # >= 0: children are clipped to the span
        entry = stats[span.name]
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += self_s
        if DETAILS.get(span.name) is _argument_key:
            entry["keys"].add(span.detail)
        elif span.detail is not None:
            entry["detail_sum"] += span.detail
        if span.name == EXPERIMENT:
            # busy: the owning thread's own time plus every direct child,
            # whichever thread ran it; CPU: the owning thread's CPU time plus
            # the CPU time of children that ran on other threads
            threads["wall_s"] += duration
            threads["busy_s"] += self_s + sum(k.end - k.start for k in kids)
            threads["cpu_s"] += span.cpu + sum(k.cpu for k in kids if k.thread != span.thread)
    result = dict(stats)
    result["_threads"] = threads
    return result
