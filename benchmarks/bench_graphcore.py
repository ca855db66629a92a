"""Micro-benchmark: legacy adjacency-map oracles vs the compiled CSR view.

The indexed graph core (``Graph.compile() -> IndexedGraph``) exists because
the sequential oracles are the hot path of every sweep's correctness gate:
the diameter oracle is one all-pairs BFS per graph, and the legacy
implementation runs it over label-keyed dicts and hash probes.  The
compiled view stores the topology in CSR arrays and dispatches between
three exact all-eccentricities strategies (plain stamped BFS, bit-parallel
level-synchronous BFS, Takes-Kosters bound pruning), all byte-identical to
the legacy oracle.

This harness measures:

* the headline ``all_eccentricities`` oracle on an n=2000 sparse random
  graph (the acceptance bar: CSR must be >= 5x the legacy path);
* the ``diameter`` oracle on a structured clique chain (the sweep
  families' correctness-gate workload);
* dense- and sparse-engine BFS wall-clock on the compiled topology
  bindings (prebound neighbour tuples + frozensets), tracked over time.

Results land in ``BENCH_graphcore.json`` next to the repository root.

Run it standalone (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_graphcore.py
    PYTHONPATH=src python benchmarks/bench_graphcore.py --smoke

or through pytest (the ``test_`` wrappers assert the speedup bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_graphcore.py -q
"""

from __future__ import annotations

import time

from repro.algorithms.bfs import run_bfs_tree
from repro.congest.network import Network
from repro.engine import DenseScheduler, SparseScheduler
from repro.graphs import generators

from _harness import Harness, report_path

#: Node count of the headline all-eccentricities workload.
ORACLE_NODES = 2000

#: Acceptance bar for the headline oracle (full mode).
TARGET_SPEEDUP = 5.0

#: The headline's ``--smoke`` floor (smaller sizes amortise the fast
#: path's setup less): 75% of the last committed smoke baseline.
SMOKE_FLOOR = 0.75 * 23.31

#: Where the results land (repository root, next to ROADMAP.md).
OUTPUT_PATH = report_path("BENCH_graphcore.json")


def _time(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _bench_all_eccentricities(nodes: int) -> dict:
    """Headline workload: full eccentricity oracle, legacy vs CSR.

    The CSR timing includes ``compile()`` itself (measured on a freshly
    built graph), so the reported speedup is end-to-end.
    """
    legacy_graph = generators.family_for_sweep("random_sparse", nodes, seed=11)
    csr_graph = generators.family_for_sweep("random_sparse", nodes, seed=11)
    legacy_seconds, legacy_result = _time(legacy_graph.all_eccentricities)
    csr_seconds, csr_result = _time(
        lambda: csr_graph.compile().all_eccentricities()
    )
    if csr_result != legacy_result or list(csr_result) != list(legacy_result):
        raise AssertionError("CSR and legacy eccentricity oracles disagree")
    return {
        "nodes": nodes,
        "edges": legacy_graph.num_edges,
        "family": "random_sparse",
        "diameter": max(legacy_result.values()),
        "legacy_seconds": round(legacy_seconds, 6),
        "csr_seconds": round(csr_seconds, 6),
        "speedup": round(legacy_seconds / max(csr_seconds, 1e-9), 2),
    }


def _bench_diameter(nodes: int) -> dict:
    """Diameter oracle on a structured family (the sweep gate workload)."""
    legacy_graph = generators.family_for_sweep("clique_chain", nodes, seed=7)
    csr_graph = generators.family_for_sweep("clique_chain", nodes, seed=7)
    legacy_seconds, legacy_diameter = _time(legacy_graph.diameter)
    csr_seconds, csr_diameter = _time(lambda: csr_graph.compile().diameter())
    if csr_diameter != legacy_diameter:
        raise AssertionError("CSR and legacy diameter oracles disagree")
    return {
        "nodes": legacy_graph.num_nodes,
        "edges": legacy_graph.num_edges,
        "family": "clique_chain",
        "diameter": legacy_diameter,
        "legacy_seconds": round(legacy_seconds, 6),
        "csr_seconds": round(csr_seconds, 6),
        "speedup": round(legacy_seconds / max(csr_seconds, 1e-9), 2),
    }


def _bench_engine_rounds(nodes: int) -> dict:
    """Dense and sparse engine BFS on the prebound CSR topology.

    The engine binds the compiled view per run (scheduler node order,
    transport neighbour frozensets, factory neighbour tuples); this
    workload tracks the absolute round-loop cost of both engines so the
    perf trajectory of the dense hot loop stays visible across PRs.
    """
    graph = generators.path_graph(nodes)
    results = {}
    trees = {}
    schedulers = {"dense": DenseScheduler, "sparse": SparseScheduler}
    for engine, scheduler in schedulers.items():
        network = Network(graph, scheduler=scheduler())
        seconds, tree = _time(lambda: run_bfs_tree(network, graph.nodes()[0]))
        trees[engine] = tree
        results[f"{engine}_seconds"] = round(seconds, 6)
        results[f"{engine}_rounds_per_second"] = round(
            tree.metrics.rounds / max(seconds, 1e-9), 1
        )
    if trees["dense"].distance != trees["sparse"].distance:
        raise AssertionError("engines disagree on BFS distances")
    results.update(
        {
            "nodes": nodes,
            "rounds": trees["dense"].metrics.rounds,
            "messages": trees["dense"].metrics.messages,
            "sparse_speedup": round(
                results["dense_seconds"]
                / max(results["sparse_seconds"], 1e-9),
                2,
            ),
        }
    )
    return results


def run_benchmark(smoke: bool = False) -> dict:
    """Measure all workloads; return the report."""
    oracle_nodes = 300 if smoke else ORACLE_NODES
    diameter_nodes = 200 if smoke else 1000
    engine_nodes = 200 if smoke else 1000
    report = {
        "smoke": smoke,
        "workloads": {
            "all_eccentricities": _bench_all_eccentricities(oracle_nodes),
            "diameter_clique_chain": _bench_diameter(diameter_nodes),
            "engine_bfs_path": _bench_engine_rounds(engine_nodes),
        },
    }
    report["headline_speedup"] = report["workloads"]["all_eccentricities"][
        "speedup"
    ]
    return report


HARNESS = Harness(
    run_benchmark, OUTPUT_PATH, smoke_floor=SMOKE_FLOOR,
    full_floor=TARGET_SPEEDUP, description=__doc__,
)


def test_graphcore_oracle_speedup():
    """The graph-core refactor's acceptance bar: >= 5x on the n=2000
    all-eccentricities oracle, with byte-identical results (the identity
    is asserted inside the workload)."""
    HARNESS.gate(run_benchmark())


if __name__ == "__main__":
    raise SystemExit(HARNESS.main())
