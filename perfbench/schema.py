"""Check BENCHMARK.json and a benchmark result line against the output contract.

    python3 perfbench/run.py --workload desk-grid --trace 0 | python3 perfbench/schema.py --trace 0

Reads the run's stdout, takes its last line as the result, and exits 1 with
one line per problem if BENCHMARK.json or the result breaks the contract.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict) -> list[str]:
    """Problems with BENCHMARK.json itself."""
    problems = []
    if set(spec) != SPEC_KEYS:
        return [f"BENCHMARK.json keys {sorted(spec)} != {sorted(SPEC_KEYS)}"]
    command = spec["command"]
    if not (1 <= len(command) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in command)):
        problems.append("command must be 1..32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in c.split("/") for c in command):
        problems.append("command must not name absolute paths or leave the repository")
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16 or not all(PATH.fullmatch(p) and ".." not in p.split("/") for p in paths):
        problems.append("paths must be 1..16 relative paths of [A-Za-z0-9_./-]")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    names = []
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("there must be 2..8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            problems.append(f"workload {w.get('name')!r}: needs exactly name and a one-line why")
        names.append(w["name"])
    for group, keys, limit in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 16),
        ("per_layer", {"name", "unit", "better"}, 128),
    ):
        metrics = spec[group]
        if not 1 <= len(metrics) <= limit:
            problems.append(f"{group} must hold 1..{limit} metrics")
        for m in metrics:
            if set(m) != keys:
                problems.append(f"{group} {m.get('name')!r}: keys {sorted(m)} != {sorted(keys)}")
                continue
            names.append(m["name"])
            if not UNIT.fullmatch(m["unit"]):
                problems.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                problems.append(f"{m['name']}: better must be higher or lower")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound must lie in (0, 0.25]")
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    problems += [f"name {n!r} used twice" for n in sorted(set(names)) if names.count(n) > 1]
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, better lower")
    return problems


def check_result(spec: dict, line: str, trace: int) -> list[str]:
    """Problems with one result line of a run made with ``--trace trace``."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:80]!r}"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys must be exactly {sorted(RESULT_KEYS)}"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct must be true or false")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metrics {sorted(metrics)} != declared {sorted(declared)}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if set(metric) != {"value", "unit"} or metric["unit"] != declared.get(name):
            problems.append(f"{name}: expected value and unit {declared.get(name)!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"{name}: end-to-end metric is 0")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spec", default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
    problems = check_spec(spec) + check_result(spec, lines[-1] if lines else "", args.trace)
    for problem in problems:
        print(problem)
    print("schema: ok" if not problems else f"schema: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
