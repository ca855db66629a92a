"""Leader election by maximum-identifier flooding.

Section 3 of the paper assumes "the network G has elected a node leader ...
This can be done using standard methods in O(D) classical rounds and
O(log n) memory space per node".  The standard method implemented here is
maximum-identifier flooding: every node repeatedly remembers the largest
identifier it has heard of and forwards improvements.  After ``D`` rounds
every node knows the globally largest identifier; the flooding then goes
quiet and the simulator's termination detection stops the execution, for a
total of ``D + O(1)`` rounds.

Identifiers are compared through a deterministic total order on their
``repr`` so that the heterogeneous tuple labels used by the gadget graphs
are comparable.  The order is computed once per election as integer ranks
(:func:`identifier_ranks`), so the nodes compare ranks, never strings.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._record import Record
from repro.congest.network import Network
from repro.congest.node import Inbox, NodeAlgorithm, Outbox
from repro.graphs.graph import NodeId


def identifier_key(node: NodeId) -> str:
    """Deterministic total order on node identifiers."""
    return repr(node)


class LeaderElectionResult(Record):
    """Outcome of leader election."""

    __slots__ = ("leader", "metrics")


class _MaxIdFloodingNode(NodeAlgorithm):
    """Flood the largest identifier seen so far.

    ``rank`` maps every node identifier to its position in
    :func:`identifier_key` order (one dict shared by all nodes; equal keys
    share a rank), so a received identifier costs one lookup and one
    integer comparison instead of a ``repr``.
    """

    def __init__(self, node_id, neighbors, num_nodes, rng, rank) -> None:
        super().__init__(node_id, neighbors, num_nodes, rng)
        self.best: NodeId = node_id
        self._rank = rank
        self._best_rank = rank[node_id]
        # The node is always "reactively finished": the execution stops when
        # the flooding stabilises (no more improvements anywhere).
        self.finished = True

    def on_round(self, round_number: int, inbox: Inbox) -> Optional[Outbox]:
        rank = self._rank
        best_rank = self._best_rank
        improved = round_number == 0
        for candidate in inbox.values():
            candidate_rank = rank[candidate]
            if candidate_rank > best_rank:
                self.best, best_rank = candidate, candidate_rank
                improved = True
        if improved:
            self._best_rank = best_rank
            return self.broadcast(self.best)
        return {}

    def result(self):
        return self.best


def identifier_ranks(nodes) -> Dict[NodeId, int]:
    """Each identifier's position in :func:`identifier_key` order; two
    identifiers with equal keys get the same rank."""
    keys = {node: identifier_key(node) for node in nodes}
    position = {key: index for index, key in enumerate(sorted(set(keys.values())))}
    return {node: position[key] for node, key in keys.items()}


def run_leader_election(network: Network) -> LeaderElectionResult:
    """Elect the node with the largest identifier, in ``D + O(1)`` rounds.

    Every node ends up knowing the leader's identifier; the returned result
    reports it together with the execution metrics.
    """
    rank = identifier_ranks(network.graph.nodes())
    execution = network.run(
        lambda node, net: _MaxIdFloodingNode(
            node, net.neighbors(node), net.num_nodes, net.node_seed(node), rank
        )
    )
    leaders = set(map(identifier_key, execution.results.values()))
    if len(leaders) != 1:
        raise RuntimeError(
            "leader election did not converge to a unique leader; "
            "is the network connected?"
        )
    leader = next(iter(execution.results.values()))
    execution.metrics.record_phase("leader_election", execution.metrics.rounds)
    return LeaderElectionResult(leader=leader, metrics=execution.metrics)
