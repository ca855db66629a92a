"""Every Theorem-7 problem reproduces its pinned outcome exactly.

``EXPECTED`` was recorded before the shared parts of the four problems
(oracle-mode check, Setup cost, reference-mode cost, eccentricity table,
amplitudes, register size) moved into
:class:`repro.qcongest.framework.DistributedSearchProblem`.  Each entry is
one ``problem/oracle mode/graph`` run at ``seed=5`` and pins the answer,
the modelled cost (rounds, resource counts, messages, bits, per-node
memory) and the simulation actually executed (distinct evaluations, runs
and rounds), so a refactor that moves a run, a payload or a memo shows
here.  The ``simple`` exact-diameter variant is pinned in congest mode
only: its reference-mode cost was corrected after recording.
"""

from __future__ import annotations

import pytest

from repro.core.approx_diameter import quantum_three_halves_diameter
from repro.core.exact_diameter import quantum_exact_diameter
from repro.core.radius import quantum_exact_radius
from repro.core.source_ecc import quantum_source_eccentricity
from repro.graphs import generators

GRAPHS = {
    "clique_chain_3_4": lambda: generators.clique_chain(3, 4),
    "gnp_16": lambda: generators.random_connected_gnp(16, 0.2, seed=9),
}

#: Problem name -> (entry point, answer field, extra keyword arguments).
PROBLEMS = {
    "exact_diameter": (quantum_exact_diameter, "diameter", {}),
    "exact_diameter_simple": (
        quantum_exact_diameter, "diameter", {"variant": "simple"}
    ),
    "three_halves": (quantum_three_halves_diameter, "estimate", {}),
    "radius": (quantum_exact_radius, "radius", {}),
    "source_ecc": (quantum_source_eccentricity, "eccentricity", {}),
}

#: ``key -> (answer, rounds, (setup, evaluation, measurements),
#: distinct_evaluations, simulated_runs, simulated_rounds, messages,
#: total_bits, max_node_memory_bits)``.
EXPECTED = {
    "exact_diameter/congest/clique_chain_3_4": (5, 4066, (69, 37, 33), 12, 41, 620, 20284, 344715, 24),
    "exact_diameter/reference/clique_chain_3_4": (5, 4066, (69, 37, 33), 12, 8, 81, 26204, 465927, 24),
    "exact_diameter_simple/congest/clique_chain_3_4": (5, 2067, (128, 67, 56), 12, 41, 240, 5773, 82356, 16),
    "three_halves/congest/clique_chain_3_4": (5, 893, (21, 9, 9), 4, 13, 154, 4156, 66327, 72),
    "three_halves/reference/clique_chain_3_4": (5, 893, (21, 9, 9), 4, 4, 43, 4156, 66327, 72),
    "radius/congest/clique_chain_3_4": (3, 1985, (128, 63, 50), 12, 40, 234, 5514, 79696, 16),
    "radius/reference/clique_chain_3_4": (3, 1985, (128, 63, 50), 12, 7, 45, 5514, 77239, 16),
    "source_ecc/congest/clique_chain_3_4": (5, 1201, (131, 68, 57), 12, 14, 85, 2229, 3460, 16),
    "source_ecc/reference/clique_chain_3_4": (5, 1201, (131, 68, 57), 12, 3, 19, 2229, 3256, 16),
    "exact_diameter/congest/gnp_16": (3, 3323, (135, 66, 51), 16, 53, 369, 49216, 799400, 30),
    "exact_diameter/reference/gnp_16": (3, 3323, (135, 66, 51), 16, 8, 39, 49216, 799400, 30),
    "exact_diameter_simple/congest/gnp_16": (3, 1283, (139, 71, 57), 16, 53, 187, 10510, 180053, 20),
    "three_halves/congest/gnp_16": (3, 2134, (88, 40, 36), 6, 19, 135, 24561, 378833, 80),
    "three_halves/reference/gnp_16": (3, 2134, (88, 40, 36), 6, 4, 25, 24561, 378833, 80),
    "radius/congest/gnp_16": (2, 1208, (135, 66, 51), 16, 52, 184, 9865, 172634, 20),
    "radius/reference/gnp_16": (2, 1076, (135, 66, 51), 16, 7, 24, 9865, 167684, 20),
    "source_ecc/congest/gnp_16": (2, 607, (135, 66, 51), 16, 18, 55, 3099, 5459, 20),
    "source_ecc/reference/gnp_16": (2, 607, (135, 66, 51), 16, 3, 10, 3099, 5327, 20),
}


def outcome(key: str) -> tuple:
    """Run the ``problem/mode/graph`` named by ``key``; return its record."""
    problem, mode, graph = key.split("/")
    entry, field, extra = PROBLEMS[problem]
    result = entry(GRAPHS[graph](), oracle_mode=mode, seed=5, **extra)
    optimization = result.optimization
    counts = result.counts
    return (
        getattr(result, field),
        result.rounds,
        (counts.setup_calls, counts.evaluation_calls, counts.measurements),
        optimization.distinct_evaluations,
        optimization.simulated_runs,
        optimization.simulated_rounds,
        result.metrics.messages,
        result.metrics.total_bits,
        result.metrics.max_node_memory_bits,
    )


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_problem_matches_golden(key):
    assert outcome(key) == EXPECTED[key]
