"""The round loop reproduces the pinned engine fixture exactly.

``tests/data/engine_golden.json`` was written by
``tests/data/make_engine_golden.py`` before the engine's three round
loops were collapsed into one.  Regenerating it with the current engine
must give the same values, metrics, traffic hashes and error messages.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_engine_golden", DATA / "make_engine_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fixture_and_current():
    expected = json.loads((DATA / "engine_golden.json").read_text(encoding="utf-8"))
    # Round-trip through JSON so tuples and lists compare alike.
    current = json.loads(json.dumps(_generator().collect()))
    return expected, current


@pytest.mark.parametrize("section", ["cases", "aborts", "nested", "short"])
def test_engine_matches_golden_fixture(fixture_and_current, section):
    expected, current = fixture_and_current
    assert sorted(current[section]) == sorted(expected[section])
    for key, value in expected[section].items():
        assert current[section][key] == value, key
