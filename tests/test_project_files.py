"""Files outside the library that name its API: the README's quick start and the tracer's list."""

import contextlib
import importlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs():
    """The one ``python`` block of the README's *Library quick start* runs as written."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md (Library quick start)", "exec"), {})
    assert out.getvalue().strip()


def load_traced():
    """``TRACED`` of ``perfbench/tracer.py``, imported by path.

    The module is in ``sys.modules`` while it runs, as its dataclasses need.
    """
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer.TRACED


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in load_traced().items() for name in names]
)
def test_traced_name_exists(layer, name):
    """Every function the benchmark's tracer wraps is still defined where it looks for it."""
    module = importlib.import_module(f"socarb.{layer}")
    assert callable(getattr(module, name, None)), f"socarb.{layer}.{name}"
