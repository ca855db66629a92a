"""Ablation 3: the amplitude-amplification budget constant.

Corollary 1's query budget is O(sqrt(log(1/delta) / eps)) with a hidden
constant; the simulation exposes it (``budget_constant``).  The ablation
sweeps the constant and measures the trade-off the paper's analysis implies:
a larger budget increases the round count linearly but pushes the success
probability towards 1, while a too-small budget makes the optimization stop
before it has amplified the maximisers.
"""

from __future__ import annotations

from bench_workloads import record

from repro.core.exact_diameter import quantum_exact_diameter
from repro.graphs import generators


def _measure(constants, seeds):
    graph = generators.clique_chain(5, 4)
    truth = graph.compile().diameter()
    rows = []
    for constant in constants:
        hits = 0
        total_rounds = 0
        for seed in seeds:
            result = quantum_exact_diameter(
                graph, oracle_mode="reference", seed=seed,
                budget_constant=constant, delta=0.1,
            )
            hits += result.diameter == truth
            total_rounds += result.rounds
        rows.append(
            {
                "budget_constant": constant,
                "success_rate": hits / len(seeds),
                "mean_rounds": total_rounds / len(seeds),
            }
        )
    return rows


def test_amplification_budget_ablation(run_once, benchmark):
    rows = run_once(_measure, (0.5, 1.0, 2.0, 4.0, 8.0), range(8))
    record(
        benchmark,
        budget_constants=[row["budget_constant"] for row in rows],
        success_rates=[round(row["success_rate"], 2) for row in rows],
        mean_rounds=[round(row["mean_rounds"]) for row in rows],
    )
    # Rounds grow monotonically (within noise) with the budget constant.
    assert rows[-1]["mean_rounds"] > rows[0]["mean_rounds"]
    # The generous budget reaches a high success rate, at least as good as
    # the smallest budget's.
    assert rows[-1]["success_rate"] >= 0.75
    assert rows[-1]["success_rate"] >= rows[0]["success_rate"]
