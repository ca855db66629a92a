"""The paired A/B summary of ``benchmarks/perfbench_pairs.py``.

Only :func:`summarize` is exercised, on hand-written pairs: no
subprocess is started and no benchmark runs.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

PAIRS_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "perfbench_pairs.py",
)


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("_perfbench_pairs", PAIRS_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_medians_ratios_and_wins(tool):
    pairs = [
        ({"grid_ms": 500.0, "hits": 90.0}, {"grid_ms": 400.0, "hits": 95.0}),
        ({"grid_ms": 520.0, "hits": 90.0}, {"grid_ms": 468.0, "hits": 90.0}),
        ({"grid_ms": 480.0, "hits": 92.0}, {"grid_ms": 504.0, "hits": 91.0}),
        ({"grid_ms": 510.0, "hits": 90.0}, {"grid_ms": 459.0, "hits": 99.0}),
    ]
    summary = tool.summarize(pairs, {"grid_ms": "lower", "hits": "higher"})
    grid = summary["grid_ms"]
    assert grid["parent_median"] == 505.0
    assert grid["change_median"] == 463.5
    # ratios 0.8, 0.9, 1.05, 0.9
    assert grid["ratio_median"] == pytest.approx(0.9)
    assert grid["ratio_q1"] == pytest.approx(0.875)
    assert grid["ratio_q3"] == pytest.approx(0.9375)
    assert (grid["won"], grid["pairs"]) == (3, 4)
    # Higher is better for hits, and a tie is not a win.
    assert summary["hits"]["won"] == 2


def test_a_metric_missing_on_one_side_is_left_out(tool):
    pairs = [({"a": 1.0, "b": 2.0}, {"a": 1.0})]
    summary = tool.summarize(pairs, {})
    assert list(summary) == ["a"]
    assert summary["a"]["ratio_median"] == summary["a"]["ratio_q1"] == 1.0
    assert summary["a"]["won"] == 0


def test_a_zero_parent_value_has_no_ratio(tool):
    summary = tool.summarize([({"dropped": 0.0}, {"dropped": 0.0})], {})
    assert summary["dropped"]["ratio_median"] is None
    assert tool.summarize([], {}) == {}


def test_directions_come_from_the_benchmark_declaration(tool):
    better = tool.directions()
    assert better["grid_ms"] == "lower"
    # Only the end-to-end metrics are compared: runs are untraced.
    assert "size_cache_hits" not in better
