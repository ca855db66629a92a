"""Distributed construction of a Breadth-First-Search tree (Figure 1).

Proposition 1 of the paper: a BFS tree rooted at ``leader`` -- each node
learning its parent and its distance to the root -- can be built in
``O(D)`` rounds with ``O(log n)`` bits of memory per node.  The procedure is
the classical flooding of Figure 1: the root activates its neighbours; a
node adopting a parent re-broadcasts its own distance; later activations are
ignored.

On top of the paper's procedure, every activated node also notifies its
chosen parent with a one-bit ``child`` message, so that the tree is known
*downwards* as well (parents know their children).  This costs one extra
round and is required by the tree broadcast / convergecast / Euler-tour
primitives used throughout the library.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Set, Tuple

from repro._record import Record
from repro.congest.network import Network
from repro.congest.node import Inbox, NodeAlgorithm, Outbox
from repro.graphs.graph import NodeId


class BFSTreeResult(Record):
    """Outcome of the distributed BFS-tree construction."""

    __slots__ = ("root", "parent", "distance", "children", "metrics")

    @property
    def depth(self) -> int:
        """Depth of the tree (equals ``ecc(root)`` on a connected graph)."""
        return max(self.distance.values())

    def children_of(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Children of ``node`` in a fixed, deterministic order."""
        return self.children[node]


class _BFSNode(NodeAlgorithm):
    """Per-node state machine of the Figure-1 BFS construction."""

    def __init__(self, node_id, neighbors, num_nodes, rng, root: NodeId) -> None:
        super().__init__(node_id, neighbors, num_nodes, rng)
        self._log_n = max(1, math.ceil(math.log2(num_nodes + 1)))
        self.root = root
        self.distance: Optional[int] = None
        self.parent: Optional[NodeId] = None
        self.children: List[NodeId] = []
        # Membership beside the list: a hub hears from ~n children.
        self._child_set: Set[NodeId] = set()
        self._broadcasted = False

    def on_round(self, round_number: int, inbox: Inbox) -> Optional[Outbox]:
        outbox: Dict[NodeId, Any] = {}

        # Record children notifications from any round.
        for sender, payload in inbox.items():
            if payload == ("ch",) and sender not in self._child_set:
                self._child_set.add(sender)
                self.children.append(sender)

        if self.node_id == self.root and round_number == 0:
            self.distance = 0
            self._broadcasted = True
            self.finished = True
            return self.broadcast(("bfs", 0))

        if self.distance is None:
            activators = [
                (payload[1], sender)
                for sender, payload in inbox.items()
                if isinstance(payload, tuple) and payload and payload[0] == "bfs"
            ]
            if activators:
                best_distance, best_sender = min(
                    activators, key=lambda item: (item[0], repr(item[1]))
                )
                self.distance = best_distance + 1
                self.parent = best_sender
                for neighbor in self.neighbors:
                    if neighbor == self.parent:
                        outbox[neighbor] = ("ch",)
                    else:
                        outbox[neighbor] = ("bfs", self.distance)
                self._broadcasted = True
                self.finished = True
        return outbox

    def result(self):
        return {
            "parent": self.parent,
            "distance": self.distance,
            "children": tuple(sorted(self.children, key=repr)),
        }

    def memory_bits(self) -> Optional[int]:
        # Parent pointer, distance counter and one flag: O(log n) bits.  The
        # children list is part of the node's (classical) knowledge of its
        # incident tree edges, which the CONGEST model grants for free.
        return 3 * self._log_n


def run_bfs_tree(network: Network, root: NodeId) -> BFSTreeResult:
    """Build a BFS tree rooted at ``root`` (Proposition 1 / Figure 1).

    Runs in ``ecc(root) + O(1)`` rounds.  Returns the parent, distance and
    (ordered) children of every node, together with the execution metrics.
    """
    if not network.graph.has_node(root):
        raise ValueError(f"root {root!r} is not a node of the network")

    execution = network.run(
        lambda node, net: _BFSNode(
            node, net.neighbors(node), net.num_nodes, net.node_seed(node), root
        )
    )
    parent = {node: data["parent"] for node, data in execution.results.items()}
    distance = {node: data["distance"] for node, data in execution.results.items()}
    children = {node: data["children"] for node, data in execution.results.items()}
    if any(value is None for value in distance.values()):
        raise RuntimeError(
            "BFS did not reach every node; the network graph must be connected"
        )
    execution.metrics.record_phase("bfs", execution.metrics.rounds)
    return BFSTreeResult(
        root=root,
        parent=parent,
        distance=distance,
        children=children,
        metrics=execution.metrics,
    )
