"""A stdlib-only install runs the grid commands.

``pyproject.toml`` declares no required dependency: numpy is the optional
``repro[numpy]`` extra.  These tests block numpy in a subprocess
(``sys.modules["numpy"] = None`` makes every ``import numpy`` fail) and
run ``sweep``, ``quantum`` and ``export`` there.  The exports must be
byte-identical to the same commands run with numpy importable.  Features
that need numpy fail with the actionable message of
:func:`repro._numpy.missing_numpy_message`.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro._numpy import missing_numpy_message

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_RUN = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import repro.cli
sys.exit(repro.cli.main(sys.argv[2:]))
"""

GRIDS = {
    "sweep": [
        "sweep", "--families", "clique_chain,cycle", "--sizes", "16",
        "--algorithms", "classical_exact,two_approx,hprw_three_halves",
        "--seed", "3",
    ],
    "quantum": [
        "quantum", "--families", "cycle,clique_chain", "--sizes", "16",
        "--problems", "exact_diameter,radius", "--seed", "3",
    ],
}


def _run(mode, argv, cwd):
    return subprocess.run(
        [sys.executable, "-c", _RUN, mode, *argv],
        env=dict(os.environ, PYTHONPATH=SRC_ROOT), cwd=str(cwd),
        capture_output=True, text=True, timeout=300,
    )


def _grid_export(mode, grid, tmp_path):
    """Run ``grid`` into a store, then export it; return the export text."""
    store = tmp_path / f"{grid}-{mode}.jsonl"
    ran = _run(mode, GRIDS[grid] + ["--out", str(store)], tmp_path)
    assert ran.returncode == 0, ran.stderr
    exported = _run(mode, ["export", "--store", str(store), "--format", "jsonl"], tmp_path)
    assert exported.returncode == 0, exported.stderr
    assert exported.stdout
    return exported.stdout


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_grid_and_export_run_without_numpy(grid, tmp_path):
    assert _grid_export("block", grid, tmp_path) == _grid_export("allow", grid, tmp_path)


def test_missing_numpy_message_is_actionable():
    message = missing_numpy_message("the widget")
    assert "the widget" in message
    assert "repro[numpy]" in message
