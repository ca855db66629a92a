"""The two oracle modes of every Theorem-7 problem report the same run.

Reference mode serves branch values from a sequential oracle, then runs
one congest Evaluation -- the first evaluated item of maximal
``evaluation_cost_rank`` -- and charges it per call.  Congest mode runs
every Evaluation and charges the costliest.  The rule is right when the
two pick runs of equal cost, so this holds the answer, the modelled
rounds, the resource counts, messages, bits and per-node memory equal
across the modes, on graphs where Evaluations from different items run
for different lengths (the path, the random graphs) and where they do not
(the clique chain).
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
    "path_15": lambda: generators.path_graph(15),
    "diameter_controlled_96_6": lambda: generators.diameter_controlled_graph(
        96, 6, seed=1
    ),
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


def reported(problem: str, graph: str, mode: str) -> dict:
    """What one run reports to its caller."""
    entry, field, extra = PROBLEMS[problem]
    result = entry(GRAPHS[graph](), oracle_mode=mode, seed=5, **extra)
    counts = result.counts
    return {
        "answer": getattr(result, field),
        "rounds": result.rounds,
        "counts": (counts.setup_calls, counts.evaluation_calls, counts.measurements),
        "evaluation_rounds_per_call": result.optimization.evaluation_rounds_per_call,
        "messages": result.metrics.messages,
        "total_bits": result.metrics.total_bits,
        "max_node_memory_bits": result.metrics.max_node_memory_bits,
    }


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_reference_mode_reports_the_congest_run(problem, graph):
    assert reported(problem, graph, "reference") == reported(
        problem, graph, "congest"
    )
