"""Quickstart: compute a network's diameter classically and quantumly.

This script builds a small CONGEST network, runs

* the classical exact O(n)-round baseline ([PRT12, HW12]),
* the paper's quantum exact algorithm (Theorem 1, O~(sqrt(n D)) rounds),
* the trivial 2-approximation and the classical 3/2-approximation,

checks every answer against the sequential oracle, and prints the round
counts next to the paper's Table-1 formulas.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.algorithms import (
    run_classical_exact_diameter,
    run_classical_two_approximation,
    run_hprw_three_halves_approximation,
)
from repro.analysis.tables import render_table, render_table1
from repro.congest import Network
from repro.core import quantum_exact_diameter, quantum_exact_radius
from repro.core.complexity import classical_exact_upper, quantum_exact_upper
from repro.graphs import generators


def main() -> None:
    # A chain of cliques: n = 24 nodes, diameter 7 -- a graph where the
    # diameter is much smaller than n, the regime the paper targets.
    graph = generators.clique_chain(num_cliques=4, clique_size=6)
    n, true_diameter = graph.num_nodes, graph.compile().diameter()
    print(f"graph: {n} nodes, {graph.num_edges} edges, true diameter {true_diameter}\n")

    classical = run_classical_exact_diameter(Network(graph, seed=0))
    quantum = quantum_exact_diameter(graph, oracle_mode="congest", seed=1)
    two_approx = run_classical_two_approximation(Network(graph, seed=0))
    three_halves = run_hprw_three_halves_approximation(Network(graph, seed=0), seed=2)

    rows = [
        ["classical exact [PRT12/HW12]", classical.diameter, classical.rounds,
         f"Theta(n) = {classical_exact_upper(n):.0f}"],
        ["quantum exact (Theorem 1)", quantum.diameter, quantum.rounds,
         f"O~(sqrt(nD)) = {quantum_exact_upper(n, true_diameter):.0f}"],
        ["2-approximation (ecc of leader)", two_approx.estimate,
         two_approx.rounds, "O(D)"],
        ["classical 3/2-approx [HPRW14]", three_halves.estimate,
         three_halves.rounds, "O~(sqrt(n) + D)"],
    ]
    print(render_table(rows, header=["algorithm", "answer", "rounds", "paper formula"]))

    assert classical.diameter == true_diameter
    assert quantum.diameter == true_diameter
    print("\nboth exact algorithms returned the true diameter.")
    print(
        "quantum resource counts: "
        f"{quantum.counts.setup_calls} Setup applications, "
        f"{quantum.counts.evaluation_calls} Evaluation applications, "
        f"{quantum.memory_bits_per_node} (qu)bits of memory per node."
    )

    # The same Theorem-7 framework also computes the exact radius, here
    # with every branch value evaluated on the simulated network.
    radius = quantum_exact_radius(graph, oracle_mode="congest", seed=3)
    assert radius.radius == graph.compile().radius()
    print(
        f"\nquantum exact radius (Theorem-7 framework): {radius.radius} "
        f"in {radius.rounds} rounds."
    )

    print("\nTable 1 of the paper, evaluated at this (n, D):\n")
    print(render_table1(n=n, diameter=true_diameter))


if __name__ == "__main__":
    main()
