"""Ablation 1: why the DFS-scheduled pipelining matters.

The Evaluation procedure starts the wave of node v at round 2 tau'(v), which
Lemmas 2-4 show keeps the waves congestion-free with O(log n) memory.  This
ablation compares three variants of the multi-source distance computation:

* the paper's schedule (correct, one O(log n)-bit message per edge/round);
* the naive all-start-at-round-0 schedule with the same keep-one filtering
  rule: still within bandwidth, but the computed maxima become *wrong*;
* the naive schedule with forward-all semantics: correct values would
  require forwarding several wave messages per round, which blows past the
  CONGEST bandwidth budget (counted as violations in non-strict mode).
"""

from __future__ import annotations

from bench_workloads import record

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.dfs_traversal import run_full_euler_tour
from repro.algorithms.waves import WaveScheduleEntry, run_distance_waves
from repro.congest.network import Network
from repro.graphs import generators


def _measure():
    graph = generators.clique_chain(6, 4)
    truth = {
        node: max(graph.distance(u, node) for u in graph.nodes())
        for node in graph.nodes()
    }
    network = Network(graph, seed=0)
    tree = run_bfs_tree(network, 0)
    tour = run_full_euler_tour(network, tree)
    duration = 4 * graph.num_nodes + 2 * tree.depth + 2

    dfs_schedule = {
        node: WaveScheduleEntry(start_round=2 * time, tag=time)
        for node, time in tour.visit_time.items()
    }
    naive_schedule = {
        node: WaveScheduleEntry(start_round=0, tag=time)
        for node, time in tour.visit_time.items()
    }

    paper = run_distance_waves(network, dfs_schedule, duration)
    naive = run_distance_waves(network, naive_schedule, duration)
    loose_network = Network(graph, seed=0, strict_bandwidth=False)
    naive_forward_all = run_distance_waves(
        loose_network, naive_schedule, duration, forward_all=True
    )

    def errors(result):
        return sum(1 for node in graph.nodes() if result.max_distance[node] != truth[node])

    return {
        "paper_schedule_errors": errors(paper),
        "paper_schedule_max_edge_bits": paper.metrics.max_edge_bits_per_round,
        "paper_schedule_violations": paper.metrics.bandwidth_violations,
        "naive_schedule_errors": errors(naive),
        "naive_forward_all_errors": errors(naive_forward_all),
        "naive_forward_all_violations": naive_forward_all.metrics.bandwidth_violations,
        "naive_forward_all_max_edge_bits": naive_forward_all.metrics.max_edge_bits_per_round,
        "bandwidth_budget": network.bandwidth_bits,
    }


def test_dfs_scheduling_ablation(run_once, benchmark):
    data = run_once(_measure)
    record(benchmark, **data)
    # The paper's schedule: correct, within budget.
    assert data["paper_schedule_errors"] == 0
    assert data["paper_schedule_violations"] == 0
    # Naive simultaneous start with keep-one filtering: wrong values.
    assert data["naive_schedule_errors"] > 0
    # Naive start with forward-all: needs more bandwidth than the model allows.
    assert data["naive_forward_all_violations"] > 0
    assert data["naive_forward_all_max_edge_bits"] > data["bandwidth_budget"]
