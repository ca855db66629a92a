"""Every Theorem-7 problem reproduces its pinned outcome exactly.

Each problem runs on each graph at ``seed=5`` in both oracle modes.
``MODELLED`` pins, per ``problem/graph``, the answer and the modelled
Theorem-7 cost (rounds, resource counts, messages, bits, per-node
memory); the two modes must both match it, because reference mode
charges the congest Evaluation that congest mode charges (the first
evaluated item of maximal ``evaluation_cost_rank``).  ``SIMULATED`` pins,
per ``problem/mode/graph``, the simulation actually executed (distinct
evaluations, runs and rounds), so a refactor that moves a run, a payload
or a memo shows here.
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

#: ``problem/graph -> (answer, rounds, (setup, evaluation, measurements),
#: messages, total_bits, max_node_memory_bits)``.
MODELLED = {
    "exact_diameter/clique_chain_3_4": (5, 4066, (69, 37, 33), 20284, 344715, 24),
    "exact_diameter_simple/clique_chain_3_4": (5, 2067, (128, 67, 56), 5773, 82356, 16),
    "three_halves/clique_chain_3_4": (5, 893, (21, 9, 9), 4156, 66327, 72),
    "radius/clique_chain_3_4": (3, 1985, (128, 63, 50), 5514, 79696, 16),
    "source_ecc/clique_chain_3_4": (5, 1201, (131, 68, 57), 2229, 3460, 16),
    "exact_diameter/gnp_16": (3, 3323, (135, 66, 51), 49216, 799400, 30),
    "exact_diameter_simple/gnp_16": (3, 1283, (139, 71, 57), 10510, 180053, 20),
    "three_halves/gnp_16": (3, 2134, (88, 40, 36), 24561, 378833, 80),
    "radius/gnp_16": (2, 1208, (135, 66, 51), 9865, 172634, 20),
    "source_ecc/gnp_16": (2, 607, (135, 66, 51), 3099, 5459, 20),
}

#: ``problem/mode/graph -> (distinct_evaluations, simulated_runs,
#: simulated_rounds)``.
SIMULATED = {
    "exact_diameter/congest/clique_chain_3_4": (12, 41, 620),
    "exact_diameter/reference/clique_chain_3_4": (12, 8, 81),
    "exact_diameter_simple/congest/clique_chain_3_4": (12, 41, 240),
    "exact_diameter_simple/reference/clique_chain_3_4": (12, 8, 51),
    "three_halves/congest/clique_chain_3_4": (4, 13, 154),
    "three_halves/reference/clique_chain_3_4": (4, 4, 43),
    "radius/congest/clique_chain_3_4": (12, 40, 234),
    "radius/reference/clique_chain_3_4": (12, 7, 45),
    "source_ecc/congest/clique_chain_3_4": (12, 14, 85),
    "source_ecc/reference/clique_chain_3_4": (12, 3, 19),
    "exact_diameter/congest/gnp_16": (16, 53, 369),
    "exact_diameter/reference/gnp_16": (16, 8, 39),
    "exact_diameter_simple/congest/gnp_16": (16, 53, 187),
    "exact_diameter_simple/reference/gnp_16": (16, 8, 29),
    "three_halves/congest/gnp_16": (6, 19, 135),
    "three_halves/reference/gnp_16": (6, 4, 25),
    "radius/congest/gnp_16": (16, 52, 184),
    "radius/reference/gnp_16": (16, 7, 26),
    "source_ecc/congest/gnp_16": (16, 18, 55),
    "source_ecc/reference/gnp_16": (16, 3, 10),
}

def outcome(key: str) -> tuple:
    """Run the ``problem/mode/graph`` named by ``key``; return its
    modelled and its simulated record."""
    problem, mode, graph = key.split("/")
    entry, field, extra = PROBLEMS[problem]
    result = entry(GRAPHS[graph](), oracle_mode=mode, seed=5, **extra)
    optimization = result.optimization
    counts = result.counts
    modelled = (
        getattr(result, field),
        result.rounds,
        (counts.setup_calls, counts.evaluation_calls, counts.measurements),
        result.metrics.messages,
        result.metrics.total_bits,
        result.metrics.max_node_memory_bits,
    )
    simulated = (
        optimization.distinct_evaluations,
        optimization.simulated_runs,
        optimization.simulated_rounds,
    )
    return modelled, simulated


def test_pins_cover_every_problem_mode_and_graph():
    assert sorted(MODELLED) == sorted(
        f"{problem}/{graph}" for problem in PROBLEMS for graph in GRAPHS
    )
    assert sorted(SIMULATED) == sorted(
        f"{problem}/{mode}/{graph}"
        for problem in PROBLEMS
        for mode in ("congest", "reference")
        for graph in GRAPHS
    )


@pytest.mark.parametrize("key", sorted(SIMULATED))
def test_problem_matches_golden(key):
    problem, _, graph = key.split("/")
    assert outcome(key) == (MODELLED[f"{problem}/{graph}"], SIMULATED[key])
