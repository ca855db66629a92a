"""Theorem 4 headline: quantum 3/2-approximation in O~((n D)^(1/3) + D) rounds.

End-to-end measurement of the second upper bound: the approximation
guarantee holds across seeds, the quantum-optimization phase searches a ball
of ~ s = Theta(n^{2/3} D^{-1/3}) nodes with polylogarithmic memory, and the
round count normalised by the paper's formula stays flat as n grows.
"""

from __future__ import annotations

import math

from bench_workloads import fixed_diameter_family, record

from repro.analysis.fitting import fit_power_law
from repro.core.approx_diameter import quantum_three_halves_diameter
from repro.core.complexity import quantum_approx_upper


def test_theorem4_guarantee_and_scaling(run_once, benchmark):
    def measure():
        rows = []
        for name, graph in fixed_diameter_family((36, 72, 144), diameter=6, seed=8):
            truth = graph.compile().diameter()
            result = quantum_three_halves_diameter(graph, oracle_mode="reference", seed=2)
            rows.append(
                {
                    "family": name,
                    "n": graph.num_nodes,
                    "D": truth,
                    "estimate": result.estimate,
                    "valid": math.floor(2 * truth / 3) <= result.estimate <= truth,
                    "rounds": result.rounds,
                    "ball": result.ball_size,
                    "s": result.s_parameter,
                }
            )
        return rows

    rows = run_once(measure)
    fit = fit_power_law([row["n"] for row in rows], [row["rounds"] for row in rows])
    normalised = [
        row["rounds"] / quantum_approx_upper(row["n"], row["D"]) for row in rows
    ]
    record(
        benchmark,
        guarantee_holds=all(row["valid"] for row in rows),
        rounds=[row["rounds"] for row in rows],
        rounds_exponent_vs_n=round(fit.exponent, 3),
        expected_exponent=round(1 / 3, 3),
        normalised_spread=round(max(normalised) / min(normalised), 2),
        ball_sizes=[row["ball"] for row in rows],
        s_parameters=[row["s"] for row in rows],
    )
    assert all(row["valid"] for row in rows)
    # Sublinear growth in n; the cube-root shape itself only emerges beyond
    # simulable sizes because the preparation constants dominate here, so
    # the assertion is deliberately coarse.
    assert fit.exponent <= 1.0
    assert max(normalised) / min(normalised) <= 8.0


def test_theorem4_correctness_rate(run_once, benchmark):
    def measure():
        graph = fixed_diameter_family((80,), diameter=7, seed=5)[0][1]
        truth = graph.compile().diameter()
        valid = 0
        for seed in range(8):
            result = quantum_three_halves_diameter(graph, oracle_mode="reference", seed=seed)
            valid += math.floor(2 * truth / 3) <= result.estimate <= truth
        return {"valid": valid, "trials": 8}

    data = run_once(measure)
    record(benchmark, **data)
    assert data["valid"] >= 7
