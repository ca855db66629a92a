"""The names the command line offers as choices, as plain tuples.

Argument parsing needs the names of every registry (export formats,
graph families, sweep algorithms and quantum problems) but none of the
code behind them.  The one limit every admission point shares (the
largest grid graph) lives here for the same reason.
Keeping the names here, in a module that imports nothing, lets ``repro
export`` build the full parser without loading the simulator, and lets
each command import only the layers its handler runs.

Plain literal tuples are the single definition and their owners import
them from here.  Tuples that mirror a definition built from code (sweep
algorithms, quantum problems) are pinned to it by
``tests/test_import_budget.py``.
"""

from __future__ import annotations

from typing import Tuple

#: Store export formats (:func:`repro.store.export.render_records`).
EXPORT_FORMATS: Tuple[str, ...] = ("csv", "json", "jsonl")

#: Graph families of :func:`repro.graphs.generators.family_for_sweep`.
SWEEP_FAMILIES: Tuple[str, ...] = (
    "path",
    "cycle",
    "star",
    "clique_chain",
    "ring_of_cliques",
    "lollipop",
    "random_sparse",
    "random_dense",
    "random_regular",
    "preferential",
    "tree",
)

#: :data:`repro.runner.algorithms.SWEEP_ALGORITHMS`, sorted.
SWEEP_ALGORITHM_NAMES: Tuple[str, ...] = (
    "classical_exact",
    "hprw_three_halves",
    "quantum_exact",
    "quantum_radius",
    "quantum_source_ecc",
    "quantum_three_halves",
    "two_approx",
    "two_approx_retry",
)

#: The built-in problems of :data:`repro.core.problems.QUANTUM_PROBLEMS`,
#: sorted.
QUANTUM_PROBLEM_NAMES: Tuple[str, ...] = (
    "exact_diameter",
    "radius",
    "source_ecc",
    "three_halves",
)

#: The largest node count a grid cell may ask for.  ``GridRequest.validate``
#: (the CLI and ``POST /jobs``) and ``CostModel.grid_costs`` (remote
#: dispatch admission) both refuse sizes outside ``1..MAX_GRID_NODES``,
#: and ``CostModel.observe`` ignores timings that claim one, so no client
#: can lease a worker a graph it cannot build or skew the cost model with
#: an impossible cell.
MAX_GRID_NODES = 2**20
