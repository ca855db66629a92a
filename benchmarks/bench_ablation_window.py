"""Ablation 2: the windowed objective f (Eq. 2) vs plain ecc (Eq. 1).

Section 3.1's simple algorithm optimizes f(u) = ecc(u) with P_opt >= 1/n and
pays O~(sqrt(n) * D) rounds; Section 3.2's final algorithm optimizes
f(u) = max_{v in S(u)} ecc(v) with P_opt >= d/(2n) and pays O~(sqrt(n D)).
The window makes each Evaluation slightly more expensive (a constant factor)
but cuts the number of amplitude-amplification iterations by ~sqrt(d),
which is what wins asymptotically when the diameter is large.  The ablation
measures both variants on a high-diameter family and reports iteration
counts and total rounds.
"""

from __future__ import annotations

import math

from bench_workloads import record

from repro.analysis.fitting import fit_power_law
from repro.core.exact_diameter import quantum_exact_diameter
from repro.graphs import generators


def _measure(sizes):
    rows = []
    for n in sizes:
        graph = generators.cycle_graph(n)
        truth = graph.compile().diameter()
        windowed = quantum_exact_diameter(graph, variant="windowed", oracle_mode="reference", seed=1)
        simple = quantum_exact_diameter(graph, variant="simple", oracle_mode="reference", seed=1)
        rows.append(
            {
                "n": n,
                "D": truth,
                "windowed_rounds": windowed.rounds,
                "simple_rounds": simple.rounds,
                "windowed_evaluations": windowed.counts.evaluation_calls,
                "simple_evaluations": simple.counts.evaluation_calls,
                "both_correct": windowed.diameter == truth and simple.diameter == truth,
            }
        )
    return rows


def test_windowed_objective_ablation(run_once, benchmark):
    rows = run_once(_measure, (12, 24, 48, 96))
    windowed_fit = fit_power_law([r["n"] for r in rows], [r["windowed_rounds"] for r in rows])
    simple_fit = fit_power_law([r["n"] for r in rows], [r["simple_rounds"] for r in rows])
    record(
        benchmark,
        all_correct=all(r["both_correct"] for r in rows),
        windowed_rounds_exponent_vs_n=round(windowed_fit.exponent, 3),
        simple_rounds_exponent_vs_n=round(simple_fit.exponent, 3),
        expected_windowed_exponent=1.0,   # sqrt(n D) with D ~ n/2 gives ~n
        expected_simple_exponent=1.5,     # sqrt(n) * D with D ~ n/2 gives ~n^1.5
        evaluation_calls_windowed=[r["windowed_evaluations"] for r in rows],
        evaluation_calls_simple=[r["simple_evaluations"] for r in rows],
    )
    assert all(r["both_correct"] for r in rows)
    # On cycles (D = n/2) the simple variant's rounds grow with a strictly
    # larger exponent than the windowed variant's.
    assert simple_fit.exponent >= windowed_fit.exponent + 0.2
    # The windowed objective needs fewer amplification iterations on the
    # largest instance (P_opt is d/2n instead of 1/n).
    assert rows[-1]["windowed_evaluations"] <= rows[-1]["simple_evaluations"]
