"""Tree broadcast and convergecast (aggregation) primitives.

These are the standard ``O(depth)``-round building blocks used repeatedly by
the paper's algorithms:

* *broadcast*: the root of a tree holds a value of ``O(log n)`` bits and
  every node must learn it (used to disseminate ``d = ecc(leader)``, the
  identity of the node ``w`` in the approximation algorithm, thresholds of
  the ball-selection binary search, ...);
* *convergecast*: every node holds a value and the root must learn an
  associative aggregate -- the maximum (Step 3 of Figure 2, eccentricity
  computation), the maximum together with a witness node (finding the node
  ``w`` maximizing ``d(w, p(w))`` in Figure 3), or the sum (counting the
  nodes within a distance threshold when selecting the set ``R``).

Both take an explicitly provided tree (parent / children maps, typically the
output of :func:`repro.algorithms.bfs.run_bfs_tree`) so that they do not pay
for rebuilding it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro._record import Record
from repro.congest.network import Network
from repro.congest.node import Inbox, NodeAlgorithm, Outbox
from repro.graphs.graph import NodeId

from repro.algorithms.bfs import BFSTreeResult


class AggregateResult(Record):
    """Outcome of a convergecast: the aggregate seen at the root."""

    __slots__ = ("value", "witness", "metrics")


class BroadcastResult(Record):
    """Outcome of a tree broadcast: the value received at every node."""

    __slots__ = ("values", "metrics")


class _TreeBroadcastNode(NodeAlgorithm):
    """Forward a value from the root down the tree."""

    def __init__(
        self, node_id, neighbors, num_nodes, rng,
        tree: BFSTreeResult, root_value: Any,
    ) -> None:
        super().__init__(node_id, neighbors, num_nodes, rng)
        self.children = tree.children_of(node_id)
        self.is_root = node_id == tree.root
        self.value: Any = root_value if self.is_root else None
        self._sent = False
        self.finished = not self.children and not self.is_root

    def on_round(self, round_number: int, inbox: Inbox) -> Optional[Outbox]:
        if self.value is None:
            for _, payload in inbox.items():
                self.value = payload
                break
        if self.value is not None and not self._sent:
            self._sent = True
            self.finished = True
            return {child: self.value for child in self.children}
        self.finished = self.value is not None
        return {}

    def result(self):
        return self.value


class _TreeAggregateNode(NodeAlgorithm):
    """Convergecast an associative aggregate towards the root."""

    def __init__(
        self, node_id, neighbors, num_nodes, rng,
        tree: BFSTreeResult, local_value: Any, mode: str,
    ) -> None:
        super().__init__(node_id, neighbors, num_nodes, rng)
        if mode not in ("max", "sum", "max_witness"):
            raise ValueError(f"unknown aggregation mode {mode!r}")
        self.mode = mode
        self.parent = tree.parent[node_id]
        self.children = tree.children_of(node_id)
        self.is_root = node_id == tree.root
        if mode == "max_witness":
            self.accumulator: Any = (local_value, node_id)
        else:
            self.accumulator = local_value
        self.pending = set(self.children)
        self._sent = False

    def _combine(self, other: Any) -> None:
        if self.mode == "sum":
            self.accumulator = self.accumulator + other
        elif self.mode == "max":
            self.accumulator = max(self.accumulator, other)
        else:  # max_witness: compare on the value, keep the witness id.
            other_value, other_witness = other
            if other_value > self.accumulator[0]:
                self.accumulator = (other_value, other_witness)

    def on_round(self, round_number: int, inbox: Inbox) -> Optional[Outbox]:
        for sender, payload in inbox.items():
            if sender in self.pending:
                self.pending.discard(sender)
                if self.mode == "max_witness":
                    self._combine(tuple(payload))
                else:
                    self._combine(payload)
        if not self.pending and not self._sent:
            self._sent = True
            self.finished = True
            if not self.is_root and self.parent is not None:
                if self.mode == "max_witness":
                    return {self.parent: list(self.accumulator)}
                return {self.parent: self.accumulator}
        return {}

    def result(self):
        return self.accumulator


def run_tree_broadcast(
    network: Network, tree: BFSTreeResult, root_value: Any
) -> BroadcastResult:
    """Broadcast ``root_value`` from the tree root to every node.

    Runs in ``depth + O(1)`` rounds.
    """
    execution = network.run(
        lambda node, net: _TreeBroadcastNode(
            node, net.neighbors(node), net.num_nodes, net.node_seed(node),
            tree, root_value,
        )
    )
    execution.metrics.record_phase("tree_broadcast", execution.metrics.rounds)
    return BroadcastResult(values=execution.results, metrics=execution.metrics)


def _run_aggregate(
    network: Network,
    tree: BFSTreeResult,
    values: Dict[NodeId, Any],
    mode: str,
) -> AggregateResult:
    missing = [node for node in network.graph.nodes() if node not in values]
    if missing:
        raise ValueError(f"no local value provided for nodes {missing[:3]!r}...")
    execution = network.run(
        lambda node, net: _TreeAggregateNode(
            node, net.neighbors(node), net.num_nodes, net.node_seed(node),
            tree, values[node], mode,
        )
    )
    root_accumulator = execution.results[tree.root]
    if mode == "max_witness":
        value, witness = root_accumulator
    else:
        value, witness = root_accumulator, None
    execution.metrics.record_phase(f"convergecast_{mode}", execution.metrics.rounds)
    return AggregateResult(value=value, witness=witness, metrics=execution.metrics)


def run_tree_aggregate_max(
    network: Network, tree: BFSTreeResult, values: Dict[NodeId, Any]
) -> AggregateResult:
    """Convergecast the maximum of per-node values to the tree root.

    This is Step 3 of the Figure-2 Evaluation procedure ("the transmission is
    done bottom up on BFS(leader), and at each node only the maximum of
    received values is transmitted").  Runs in ``depth + O(1)`` rounds.
    """
    return _run_aggregate(network, tree, values, "max")


def run_tree_aggregate_max_witness(
    network: Network, tree: BFSTreeResult, values: Dict[NodeId, Any]
) -> AggregateResult:
    """Convergecast the maximum and a node achieving it."""
    return _run_aggregate(network, tree, values, "max_witness")


def run_tree_aggregate_sum(
    network: Network, tree: BFSTreeResult, values: Dict[NodeId, Any]
) -> AggregateResult:
    """Convergecast the sum of per-node values to the tree root."""
    return _run_aggregate(network, tree, values, "sum")
