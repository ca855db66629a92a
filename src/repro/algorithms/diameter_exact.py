"""Classical exact diameter computation in ``O(n)`` rounds ([PRT12, HW12]).

This is the classical baseline of Table 1's "Exact computation" row.  The
algorithm is the one the paper's Evaluation procedure refines: DFS-number
every node along an Euler tour of a BFS tree, start a distance wave from
node ``v`` at round ``2 tau(v)``, and let the Figure-2 filtering rule keep
the waves congestion-free.  After all waves have propagated, every node
holds ``d_v = max_u d(u, v)`` and a convergecast of ``max_v d_v`` delivers
the diameter to the leader.

Round complexity: leader election and BFS take ``O(D)`` rounds, the full
Euler tour takes ``2 (n - 1)`` rounds, the wave phase takes
``2 * 2 (n - 1) + O(D)`` rounds and the convergecast ``O(D)`` rounds --
``O(n)`` in total, matching the classical upper bound cited in the paper.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._record import Record
from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.broadcast import run_tree_aggregate_max
from repro.algorithms.dfs_traversal import run_full_euler_tour
from repro.algorithms.leader_election import run_leader_election
from repro.algorithms.waves import WaveScheduleEntry, run_distance_waves
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.graphs.graph import NodeId


class ExactDiameterResult(Record):
    """Outcome of the classical exact-diameter computation."""

    __slots__ = ("diameter", "leader", "metrics")

    @property
    def rounds(self) -> int:
        """Total number of rounds used."""
        return self.metrics.rounds


def run_classical_exact_diameter(
    network: Network, leader: Optional[NodeId] = None
) -> ExactDiameterResult:
    """Compute the exact diameter classically in ``O(n)`` rounds.

    When ``leader`` is ``None`` a leader is elected first (costing ``O(D)``
    extra rounds); otherwise the given node coordinates the computation.
    """
    metrics = ExecutionMetrics()

    if leader is None:
        election = run_leader_election(network)
        leader = election.leader
        metrics = metrics.merged(election.metrics)

    tree = run_bfs_tree(network, leader)
    metrics = metrics.merged(tree.metrics)

    tour = run_full_euler_tour(network, tree)
    metrics = metrics.merged(tour.metrics)
    if set(tour.visit_time) != set(network.graph.nodes()):
        raise RuntimeError("the full Euler tour failed to number every node")

    schedule: Dict[NodeId, WaveScheduleEntry] = {
        node: WaveScheduleEntry(start_round=2 * time, tag=time)
        for node, time in tour.visit_time.items()
    }
    max_tag = max(entry.tag for entry in schedule.values())
    duration = 2 * max_tag + 2 * tree.depth + 2
    waves = run_distance_waves(network, schedule, duration)
    metrics = metrics.merged(waves.metrics)

    aggregate = run_tree_aggregate_max(network, tree, waves.max_distance)
    metrics = metrics.merged(aggregate.metrics)

    return ExactDiameterResult(
        diameter=aggregate.value, leader=leader, metrics=metrics
    )
