"""The golden backtest reports: how they are made, and a script that writes them.

One report of ``socarb backtest --synthetic 60`` per threshold mode and
post-stop mode, each run from a two-line config, is kept in
``tests/golden/`` without its ``created_utc``.  ``test_golden.py`` makes
them again and compares.  Rewrite them only where a change is meant to move
report numbers, so that the numbers it moves show in its diff:

    PYTHONPATH=src python tests/golden_reports.py

Run it with ``--diff`` first: that writes nothing and prints, per case, every
difference between a fresh report and the checked-in one, grouped by path
pattern (``test_golden.report_diff``), and exits 1 if there is any.
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from socarb.cli import main
from socarb.reachability import POST_STOP_MODES
from socarb.thresholds import THRESHOLD_MODES

GOLDEN_DIR = Path(__file__).parent / "golden"
CASES = [(mode, post_stop) for mode in THRESHOLD_MODES for post_stop in POST_STOP_MODES]


def golden_path(mode, post_stop) -> Path:
    return GOLDEN_DIR / f"backtest-{mode}-{post_stop}.json"


def backtest_report(mode, post_stop, workdir) -> dict:
    """The report ``socarb backtest --synthetic 60`` prints, without ``created_utc``."""
    config = Path(workdir) / f"{mode}-{post_stop}.conf"
    config.write_text(f"threshold_mode = {mode}\npost_stop = {post_stop}\n")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["backtest", "--config", str(config), "--synthetic", "60"])
    if code != 0:
        raise RuntimeError(f"socarb backtest exited {code} for {mode}, {post_stop}")
    doc = json.loads(out.getvalue())
    doc.pop("created_utc")
    return doc


def report_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def diff_table(groups) -> str:
    """Groups of ``report_diff(fresh, checked_in)`` as a Markdown table, one row each."""
    lines = [
        "| group | differ | retyped | max abs | max rel | only fresh | only checked-in |",
        "|---|---|---|---|---|---|---|",
    ]
    for pattern, g in groups.items():
        lines.append(
            f"| `{pattern}` | {g['count']} | {g['retyped']} | {g['max_abs']:.3g} "
            f"| {g['max_rel']:.3g} | {len(g['only_got'])} | {len(g['only_want'])} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    import tempfile

    from test_golden import report_diff

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff", action="store_true", help="compare with the checked-in reports; write nothing"
    )
    args = parser.parse_args()
    differ = False
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for mode, post_stop in CASES:
            path = golden_path(mode, post_stop)
            doc = backtest_report(mode, post_stop, workdir)
            if args.diff:
                groups = report_diff(doc, json.loads(path.read_text()))
                differ |= bool(groups)
                table = f"\n\n{diff_table(groups)}\n" if groups else "no differences"
                print(f"{path.name}:", table)
            else:
                path.write_text(report_text(doc))
                print(path)
    sys.exit(1 if differ else 0)
