"""Micro-benchmark: dense vs sparse engine wall-clock on path-gadget BFS.

The sparse (event-driven) scheduler exists because BFS-wave algorithms keep
almost every node idle in almost every round: on a 2,000-node path the
wavefront is O(1) nodes wide while the dense engine wakes all 2,000 nodes
for each of the ~2,000 rounds.  This harness measures the wall-clock of the
same single-source BFS under both engines, checks the outputs and metrics
are identical, and writes a ``BENCH_engine.json`` next to the repository
root so later PRs can track the perf trajectory.

Run it standalone (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_engine_overhead.py

or through pytest (the ``test_`` wrapper asserts the >= 3x speedup the
engine refactor promises)::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_overhead.py -q

Either way the headline is gated (:mod:`_harness`): >= 3x in full mode,
>= ``SMOKE_FLOOR`` with ``--smoke``.
"""

from __future__ import annotations

import time

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.multi_source_bfs import run_multi_source_bfs
from repro.congest.network import Network
from repro.engine import DenseScheduler, SparseScheduler
from repro.graphs import generators

from _harness import Harness, report_path

#: Size of the path gadget driving the headline measurement.
PATH_NODES = 2000

#: Acceptance bar for the headline (full mode).
TARGET_SPEEDUP = 3.0

#: The headline's ``--smoke`` floor: 75% of the committed smoke baseline
#: of the retired cross-harness regression gate.
SMOKE_FLOOR = 0.75 * 13.91

#: Where the results land (repository root, next to ROADMAP.md).
OUTPUT_PATH = report_path("BENCH_engine.json")


def _metric_snapshot(metrics):
    return {
        "rounds": metrics.rounds,
        "messages": metrics.messages,
        "total_bits": metrics.total_bits,
        "max_edge_bits_per_round": metrics.max_edge_bits_per_round,
        "max_node_memory_bits": metrics.max_node_memory_bits,
    }


def _time_bfs(graph, scheduler):
    network = Network(graph, scheduler=scheduler())
    start = time.perf_counter()
    tree = run_bfs_tree(network, graph.nodes()[0])
    elapsed = time.perf_counter() - start
    return elapsed, tree


def _time_multi_source(graph, sources, scheduler):
    network = Network(graph, scheduler=scheduler())
    start = time.perf_counter()
    result = run_multi_source_bfs(network, sources)
    elapsed = time.perf_counter() - start
    return elapsed, result


def run_benchmark(path_nodes: int = PATH_NODES, smoke: bool = False) -> dict:
    """Measure both engines on the two headline workloads; return the report."""
    if smoke:
        path_nodes = min(path_nodes, 400)
    num_cliques, clique_size = (12, 4) if smoke else (40, 5)
    report = {"smoke": smoke, "workloads": {}}

    # Workload 1: single-source BFS on the path gadget (the acceptance
    # criterion: sparse must be >= 3x faster with identical metrics).
    path = generators.path_graph(path_nodes)
    dense_seconds, dense_tree = _time_bfs(path, DenseScheduler)
    sparse_seconds, sparse_tree = _time_bfs(path, SparseScheduler)
    if dense_tree.distance != sparse_tree.distance:
        raise AssertionError("engines disagree on BFS distances")
    if _metric_snapshot(dense_tree.metrics) != _metric_snapshot(sparse_tree.metrics):
        raise AssertionError("engines disagree on BFS metrics")
    report["workloads"]["bfs_path_gadget"] = {
        "nodes": path_nodes,
        "rounds": dense_tree.metrics.rounds,
        "messages": dense_tree.metrics.messages,
        "dense_seconds": round(dense_seconds, 6),
        "sparse_seconds": round(sparse_seconds, 6),
        "speedup": round(dense_seconds / max(sparse_seconds, 1e-9), 2),
    }

    # Workload 2: pipelined multi-source BFS on a clique chain (self-wake
    # driven queue draining; denser activity, smaller but real win).
    chain = generators.clique_chain(num_cliques=num_cliques, clique_size=clique_size)
    sources = chain.nodes()[:8]
    dense_seconds, dense_ms = _time_multi_source(
        chain, sources, DenseScheduler
    )
    sparse_seconds, sparse_ms = _time_multi_source(
        chain, sources, SparseScheduler
    )
    if dense_ms.distances != sparse_ms.distances:
        raise AssertionError("engines disagree on multi-source BFS distances")
    if _metric_snapshot(dense_ms.metrics) != _metric_snapshot(sparse_ms.metrics):
        raise AssertionError("engines disagree on multi-source BFS metrics")
    report["workloads"]["multi_source_bfs_clique_chain"] = {
        "nodes": chain.num_nodes,
        "sources": len(sources),
        "rounds": dense_ms.metrics.rounds,
        "messages": dense_ms.metrics.messages,
        "dense_seconds": round(dense_seconds, 6),
        "sparse_seconds": round(sparse_seconds, 6),
        "speedup": round(dense_seconds / max(sparse_seconds, 1e-9), 2),
    }

    report["headline_speedup"] = report["workloads"]["bfs_path_gadget"]["speedup"]
    return report


HARNESS = Harness(
    run_benchmark, OUTPUT_PATH, smoke_floor=SMOKE_FLOOR,
    full_floor=TARGET_SPEEDUP, description=__doc__,
)


def test_sparse_engine_speedup():
    """The engine refactor's acceptance bar: >= 3x on path-gadget BFS."""
    HARNESS.gate(run_benchmark())


if __name__ == "__main__":
    raise SystemExit(HARNESS.main())
