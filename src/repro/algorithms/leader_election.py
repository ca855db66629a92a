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
are comparable.
"""

from __future__ import annotations

from typing import Optional

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
    """Flood the largest identifier seen so far."""

    def __init__(self, node_id, neighbors, num_nodes, rng) -> None:
        super().__init__(node_id, neighbors, num_nodes, rng)
        self.best: NodeId = node_id
        self._best_key = identifier_key(node_id)
        # The node is always "reactively finished": the execution stops when
        # the flooding stabilises (no more improvements anywhere).
        self.finished = True

    def on_round(self, round_number: int, inbox: Inbox) -> Optional[Outbox]:
        improved = round_number == 0
        for _, payload in inbox.items():
            candidate = tuple(payload)[0] if isinstance(payload, list) else payload
            key = identifier_key(candidate)
            if key > self._best_key:
                self.best, self._best_key = candidate, key
                improved = True
        if improved:
            return self.broadcast(self.best)
        return {}

    def result(self):
        return self.best


def run_leader_election(network: Network) -> LeaderElectionResult:
    """Elect the node with the largest identifier, in ``D + O(1)`` rounds.

    Every node ends up knowing the leader's identifier; the returned result
    reports it together with the execution metrics.
    """
    execution = network.run(
        lambda node, net: _MaxIdFloodingNode(
            node, net.neighbors(node), net.num_nodes, net.node_seed(node)
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
