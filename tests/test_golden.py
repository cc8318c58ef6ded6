"""Every backtest report equals its checked-in golden copy.

Strings, integers and the shape of the document must match exactly; floats
to a relative 1e-12.  A mismatch names the first JSON path that differs;
:func:`report_diff` accounts for every one, grouped by path pattern, and
``python tests/golden_reports.py --diff`` prints that account for every case.
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


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def report_diff(got, want) -> dict[str, dict]:
    """Every difference between two JSON documents, grouped by path pattern.

    A pattern is a path whose list indices, and whose dict keys that are not
    identifiers (cell keys such as ``e0=1|band=[5,7]|steps=8``, policy keys
    such as ``k=3x3``), read ``*``: ``cells.*.policies.*.p_band``.  Per
    pattern: ``count``, the paths on both sides whose values differ as
    :func:`first_difference` reads them (floats beyond a relative
    ``REL_TOL``); ``retyped``, those of them whose types differ; ``max_abs``
    and ``max_rel``, the largest absolute and relative change among those
    that are numbers on both sides; and ``only_got`` and ``only_want``, the
    paths found on one side only.  Documents that agree give an empty dict.
    """
    groups: dict[str, dict] = {}

    def group(pattern):
        return groups.setdefault(pattern.lstrip("."), {
            "count": 0, "retyped": 0, "max_abs": 0.0, "max_rel": 0.0,
            "only_got": [], "only_want": [],
        })

    def walk(g, w, path, pattern):
        if isinstance(g, dict) and isinstance(w, dict):
            subs = [
                (g.get(key, missing), w.get(key, missing), f"{path}.{key}",
                 f"{pattern}.{key if key.isidentifier() else '*'}")
                for key in sorted(g.keys() | w.keys())
            ]
        elif isinstance(g, list) and isinstance(w, list):
            subs = [
                (g[i] if i < len(g) else missing, w[i] if i < len(w) else missing,
                 f"{path}[{i}]", f"{pattern}[*]")
                for i in range(max(len(g), len(w)))
            ]
        else:
            if first_difference(g, w) is None:
                return
            entry = group(pattern)
            entry["count"] += 1
            entry["retyped"] += type(g) is not type(w)
            if _number(g) and _number(w):
                change = abs(g - w)
                entry["max_abs"] = max(entry["max_abs"], change)
                entry["max_rel"] = max(entry["max_rel"], change / max(abs(g), abs(w)))
            return
        for g_sub, w_sub, sub_path, sub_pattern in subs:
            if w_sub is missing:
                group(sub_pattern)["only_got"].append(sub_path)
            elif g_sub is missing:
                group(sub_pattern)["only_want"].append(sub_path)
            else:
                walk(g_sub, w_sub, sub_path, sub_pattern)

    missing = object()
    walk(got, want, "$", "")
    return dict(sorted(groups.items()))


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


def test_report_diff_groups_every_difference_by_pattern():
    want = {"cells": {"e0=1|steps=2": {"p": 0.5, "n": 3}, "e0=5|steps=2": {"p": 0.25, "n": 3}}}
    got = {"cells": {"e0=1|steps=2": {"p": 0.75, "n": 3}, "e0=5|steps=2": {"p": 0.5, "n": 4}}}
    assert report_diff(got, want) == {
        "cells.*.n": {"count": 1, "retyped": 0, "max_abs": 1, "max_rel": 0.25,
                      "only_got": [], "only_want": []},
        "cells.*.p": {"count": 2, "retyped": 0, "max_abs": 0.25, "max_rel": 0.5,
                      "only_got": [], "only_want": []},
    }
    assert report_diff(want, want) == {}


def test_report_diff_lists_the_paths_on_one_side_only():
    want = {"a": {"k=3x3": {"p": 0.5}}, "rows": [[1, 0.5]], "gone": 1}
    got = {"a": {"k=3x3": {"p": 0.5, "method": "exact"}}, "rows": [[1, 0.5], [2, 0.25]]}
    diff = report_diff(got, want)
    assert diff.keys() == {"a.*.method", "rows[*]", "gone"}
    assert diff["a.*.method"]["only_got"] == ["$.a.k=3x3.method"]
    assert diff["rows[*]"]["only_got"] == ["$.rows[1]"] and diff["rows[*]"]["count"] == 0
    assert diff["gone"]["only_want"] == ["$.gone"] and diff["gone"]["only_got"] == []


def test_report_diff_counts_a_type_change():
    diff = report_diff({"t": [None, 2, 3.0], "s": "x"}, {"t": [4, 2.0, 3.0], "s": 1})
    assert diff["t[*]"]["count"] == diff["t[*]"]["retyped"] == 2
    # 2 against 2.0 is a change of type, not of value; None has no value to compare
    assert diff["t[*]"]["max_abs"] == diff["t[*]"]["max_rel"] == 0.0
    assert diff["s"]["retyped"] == 1


def test_report_diff_forgives_floats_within_the_tolerance():
    assert report_diff({"x": [2.0 * (1 + 1e-13)]}, {"x": [2.0]}) == {}
    diff = report_diff({"x": [2.0 * (1 + 1e-11)]}, {"x": [2.0]})
    assert diff["x[*]"]["count"] == 1 and 1e-12 < diff["x[*]"]["max_rel"] < 1e-10
