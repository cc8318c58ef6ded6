"""Every backtest report equals its checked-in golden copy.

Strings, integers and the shape of the document must match exactly; floats
to a relative 1e-12.  A mismatch names the first JSON path that differs.
"""

import json

import pytest

from golden_reports import CASES, backtest_report, golden_path

REL_TOL = 1e-12


def first_difference(got, want, path="$"):
    """The first JSON path where got and want differ, with both values; None if they agree."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            return None
        return f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want):
        return f"{path}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got.keys() ^ want.keys())} in only one of the two"
        pairs = ((f"{path}.{key}", got[key], want[key]) for key in sorted(want))
    elif isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} entries != {len(want)}"
        pairs = ((f"{path}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want)))
    else:
        return None if got == want else f"{path}: {got!r} != {want!r}"
    for sub_path, g, w in pairs:
        found = first_difference(g, w, sub_path)
        if found:
            return found
    return None


@pytest.mark.parametrize("mode, post_stop", CASES)
def test_backtest_report_equals_its_golden_copy(tmp_path, mode, post_stop):
    want = json.loads(golden_path(mode, post_stop).read_text())
    found = first_difference(backtest_report(mode, post_stop, tmp_path), want)
    if found:
        pytest.fail(f"{golden_path(mode, post_stop).name} differs at {found}")


@pytest.mark.parametrize(
    "got, want, path",
    [
        ({"a": [1, 2.0]}, {"a": [1, 2.0]}, None),
        ({"a": [1, 2.0 * (1 + 1e-13)]}, {"a": [1, 2.0]}, None),
        ({"a": [1, 2.0 * (1 + 1e-11)]}, {"a": [1, 2.0]}, "$.a[1]"),
        ({"a": [1, 2]}, {"a": [1, 2.0]}, "$.a[1]"),
        ({"a": [1]}, {"a": [1, 2.0]}, "$.a"),
        ({"a": 1, "b": "x"}, {"a": 1, "b": "y"}, "$.b"),
        ({"a": 1, "c": 0}, {"a": 1, "b": 0}, "$"),
        ({"b": {"x": 0.0}, "c": 1}, {"b": {"x": 1e-300}, "c": 2}, "$.b.x"),
    ],
)
def test_first_difference_names_the_first_path(got, want, path):
    found = first_difference(got, want)
    assert (found.split(":")[0] if found else None) == path
