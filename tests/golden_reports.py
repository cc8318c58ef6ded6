"""The golden backtest reports: how they are made, and a script that writes them.

One report of ``socarb backtest --synthetic 60`` per threshold mode and
post-stop mode, each run from a two-line config, is kept in
``tests/golden/`` without its ``created_utc``.  ``test_golden.py`` makes
them again and compares.  Rewrite them only where a change is meant to move
report numbers, so that the numbers it moves show in its diff:

    PYTHONPATH=src python tests/golden_reports.py
"""

import io
import json
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


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for mode, post_stop in CASES:
            path = golden_path(mode, post_stop)
            path.write_text(report_text(backtest_report(mode, post_stop, workdir)))
            print(path)
