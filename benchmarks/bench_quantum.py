"""Micro-benchmark: sampling vs batched quantum schedule backends.

The maximum-finding schedule (:func:`repro.quantum.maximum_finding.
find_maximum`) is the hot loop of every Theorem-7 run.  It is one loop
with two sources of each round's marked statistics
(:mod:`repro.quantum.backend`): the reference ``"sampling"`` backend
rescans the whole search space once per amplification round, while the
``"batched"`` backend serves every round's marked mass, success
probabilities and conditioned sampling lists from per-threshold tables --
with **byte-identical** results for a fixed seed (the identity is
asserted inside every workload here, and proven more broadly by
``tests/test_quantum_backends.py``).

This harness measures:

* the headline **exact-diameter schedule** (Theorem 1, windowed variant)
  on an ``n >= 500`` random sparse graph: the real Setup amplitudes,
  window values and ``P_opt >= d/2n`` promise of the paper's final
  algorithm, with the branch values pre-resolved so the timing isolates
  the schedule simulation itself (the acceptance bar: batched must be
  >= 5x sampling in full mode);
* the same schedule under the simple variant's ``P_opt >= 1/n`` promise
  (longer schedules, tracked over time);
* an **end-to-end** `quantum_exact_diameter` run per backend (reference
  oracle mode), asserting field-for-field result identity;
* a **registered-problem sweep**: every problem in
  :data:`repro.core.problems.QUANTUM_PROBLEMS` runs through its
  :mod:`repro.core` entry point on the batched backend and must
  reproduce its sequential ground truth.

Results land in ``BENCH_quantum.json`` next to the repository root.

Run it standalone (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_quantum.py
    PYTHONPATH=src python benchmarks/bench_quantum.py --smoke

or through pytest (the ``test_`` wrapper asserts the speedup bar)::

    PYTHONPATH=src python -m pytest benchmarks/bench_quantum.py -q
"""

from __future__ import annotations

import random
import time

from repro.congest.network import Network
from repro.core.approx_diameter import quantum_three_halves_diameter
from repro.core.exact_diameter import (
    ORACLE_REFERENCE,
    VARIANT_SIMPLE,
    VARIANT_WINDOWED,
    ExactDiameterProblem,
    quantum_exact_diameter,
)
from repro.core.problems import QUANTUM_PROBLEMS
from repro.core.radius import quantum_exact_radius
from repro.core.source_ecc import quantum_source_eccentricity
from repro.graphs import generators
from repro.quantum.backend import (
    BatchedScheduleBackend,
    SamplingScheduleBackend,
)
from repro.quantum.maximum_finding import find_maximum
from repro.runner.algorithms import SWEEP_ALGORITHMS

from _harness import Harness, report_path

#: The sampling reference and the batched production backend, by name.
BACKENDS = {
    "sampling": SamplingScheduleBackend(),
    "batched": BatchedScheduleBackend(),
}

#: Each problem's :mod:`repro.core` entry point and its answer field.
ENTRY_POINTS = {
    "exact_diameter": (quantum_exact_diameter, "diameter"),
    "three_halves": (quantum_three_halves_diameter, "estimate"),
    "radius": (quantum_exact_radius, "radius"),
    "source_ecc": (quantum_source_eccentricity, "eccentricity"),
}

#: Node count of the headline schedule workload (the issue bar: n >= 500).
SCHEDULE_NODES = 3000

#: Acceptance bar for the headline schedule speedup (full mode).
TARGET_SPEEDUP = 5.0

#: The headline's ``--smoke`` floor (smaller sizes amortise the fast
#: path's setup less): 75% of the last committed smoke baseline.
SMOKE_FLOOR = 0.75 * 3.93

#: Measurement passes per workload; the reported speedup uses the
#: fastest pass per backend (standard min-time benchmarking).
REPEATS = 3

#: Schedule seeds simulated per measurement pass.
SCHEDULE_SEEDS = 15

#: Where the results land (repository root, next to ROADMAP.md).
OUTPUT_PATH = report_path("BENCH_quantum.json")


def _prepare_schedule(nodes: int, variant: str):
    """The real Theorem-1 schedule inputs on a random sparse graph.

    Runs the problem's Initialization once (sparse engine, fixed leader)
    and resolves every branch value through the reference oracle, so the
    backend timings below measure the schedule simulation alone -- the
    evaluation work is identical across backends by construction (both
    touch every branch exactly once).
    """
    graph = generators.family_for_sweep("random_sparse", nodes, seed=17)
    network = Network(graph)
    problem = ExactDiameterProblem(
        network,
        variant=variant,
        oracle_mode=ORACLE_REFERENCE,
        leader=graph.nodes()[0],
    )
    problem.initialization()
    amplitudes = problem.setup_amplitudes()
    values = {item: problem.evaluate(item)[0] for item in amplitudes}
    return amplitudes, values, problem.optimum_mass_lower_bound(), problem


def _bench_schedule(nodes: int, variant: str, seeds: int) -> dict:
    """Time the maximum-finding schedule per backend; assert identity."""
    amplitudes, values, eps, problem = _prepare_schedule(nodes, variant)
    timings = {"sampling": [], "batched": []}
    for _ in range(REPEATS):
        results = {}
        for name, backend in BACKENDS.items():
            start = time.perf_counter()
            results[name] = [
                find_maximum(
                    amplitudes,
                    values.__getitem__,
                    eps=eps,
                    delta=0.1,
                    rng=random.Random(seed),
                    backend=backend,
                )
                for seed in range(seeds)
            ]
            timings[name].append(time.perf_counter() - start)
        if results["sampling"] != results["batched"]:
            raise AssertionError(
                "sampling and batched backends disagree on the "
                f"{variant} schedule (n={nodes})"
            )
    sampling = min(timings["sampling"])
    batched = min(timings["batched"])
    evaluation_calls = sum(
        result.evaluation_calls for result in results["sampling"]
    )
    return {
        "nodes": nodes,
        "variant": variant,
        "window_parameter": problem.window_parameter,
        "eps": eps,
        "seeds": seeds,
        "evaluation_calls_total": evaluation_calls,
        "sampling_seconds": round(sampling, 6),
        "batched_seconds": round(batched, 6),
        "speedup": round(sampling / max(batched, 1e-9), 2),
    }


def _bench_end_to_end(nodes: int) -> dict:
    """Full Theorem-1 runs per backend (reference oracle), identical output."""
    graph = generators.family_for_sweep("clique_chain", nodes, seed=5)
    timings = {}
    results = {}
    for name, backend in BACKENDS.items():
        start = time.perf_counter()
        results[name] = quantum_exact_diameter(
            Network(graph), oracle_mode=ORACLE_REFERENCE, seed=11,
            backend=backend,
        )
        timings[name] = time.perf_counter() - start
    sampling, batched = results["sampling"], results["batched"]
    if (
        sampling.diameter != batched.diameter
        or sampling.rounds != batched.rounds
        or sampling.counts != batched.counts
        or sampling.optimization.simulated_runs
        != batched.optimization.simulated_runs
    ):
        raise AssertionError("end-to-end backend results diverge")
    return {
        "nodes": graph.num_nodes,
        "family": "clique_chain",
        "diameter": sampling.diameter,
        "rounds": sampling.rounds,
        "evaluation_calls": sampling.counts.evaluation_calls,
        "sampling_seconds": round(timings["sampling"], 6),
        "batched_seconds": round(timings["batched"], 6),
        "speedup": round(
            timings["sampling"] / max(timings["batched"], 1e-9), 2
        ),
    }


def _bench_problems(nodes: int) -> dict:
    """Every registered problem on the batched backend vs its oracle."""
    graph = generators.family_for_sweep("clique_chain", nodes, seed=9)
    rows = {}
    for name, info in sorted(QUANTUM_PROBLEMS.items()):
        entry, field = ENTRY_POINTS[name]
        start = time.perf_counter()
        run = entry(
            Network(graph, seed=1),
            oracle_mode=ORACLE_REFERENCE,
            seed=3,
        )
        seconds = time.perf_counter() - start
        value = float(getattr(run, field))
        # The sweep entry's own ground truth, else the diameter.
        truth = SWEEP_ALGORITHMS[info.sweep_name].check_target(graph)
        if truth is None:
            truth = float(graph.compile().diameter())
        if info.guarantee == "exact" and value != truth:
            raise AssertionError(
                f"problem {name!r} returned {value}, oracle says {truth}"
            )
        rows[name] = {
            "theorem": info.theorem,
            "value": value,
            "oracle": truth,
            "rounds": run.rounds,
            "evaluation_calls": run.counts.evaluation_calls,
            "seconds": round(seconds, 6),
        }
    return {"nodes": graph.num_nodes, "family": "clique_chain", "problems": rows}


def run_benchmark(smoke: bool = False) -> dict:
    """Measure all workloads; return the report."""
    schedule_nodes = 500 if smoke else SCHEDULE_NODES
    seeds = 5 if smoke else SCHEDULE_SEEDS
    e2e_nodes = 48 if smoke else 120
    problem_nodes = 24 if smoke else 36
    report = {
        "smoke": smoke,
        "workloads": {
            "schedule_windowed": _bench_schedule(
                schedule_nodes, VARIANT_WINDOWED, seeds
            ),
            "schedule_simple": _bench_schedule(
                max(200, schedule_nodes // 4), VARIANT_SIMPLE, max(2, seeds // 3)
            ),
            "exact_diameter_end_to_end": _bench_end_to_end(e2e_nodes),
            "registered_problems_batched": _bench_problems(problem_nodes),
        },
    }
    report["headline_speedup"] = report["workloads"]["schedule_windowed"]["speedup"]
    return report


HARNESS = Harness(
    run_benchmark, OUTPUT_PATH, smoke_floor=SMOKE_FLOOR,
    full_floor=TARGET_SPEEDUP, description=__doc__,
)


def test_quantum_schedule_speedup():
    """The schedule-engine acceptance bar: >= 5x batched-vs-sampling on
    the n=3000 exact-diameter (windowed) schedule, with byte-identical
    results (the identity is asserted inside every workload)."""
    HARNESS.gate(run_benchmark())


if __name__ == "__main__":
    raise SystemExit(HARNESS.main())
