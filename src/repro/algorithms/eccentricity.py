"""Distributed eccentricity computation for a single node.

``ecc(u)`` is the maximum distance from ``u`` to any other node.  The
distributed computation (used in the paper's Initialization step to obtain
``d = ecc(leader)``, and as the trivial 2-approximation of the diameter) is
the obvious composition: build a BFS tree from ``u`` (Figure 1), then
convergecast the maximum distance back up the tree.  Both phases take
``O(D)`` rounds.
"""

from __future__ import annotations

from typing import Optional

from repro._record import Record
from repro.algorithms.bfs import BFSTreeResult, run_bfs_tree
from repro.algorithms.broadcast import run_tree_aggregate_max
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.graphs.graph import NodeId


class EccentricityResult(Record):
    """Outcome of the distributed eccentricity computation."""

    __slots__ = ("node", "eccentricity", "tree", "metrics")


def run_eccentricity(
    network: Network, node: NodeId, tree: Optional[BFSTreeResult] = None
) -> EccentricityResult:
    """Compute ``ecc(node)`` in ``O(D)`` rounds.

    If a BFS tree rooted at ``node`` is already available it can be passed
    in to avoid rebuilding it (its construction cost is then not charged
    again).
    """
    metrics = ExecutionMetrics()
    if tree is None or tree.root != node:
        tree = run_bfs_tree(network, node)
        metrics = metrics.merged(tree.metrics)
    aggregate = run_tree_aggregate_max(network, tree, tree.distance)
    metrics = metrics.merged(aggregate.metrics)
    return EccentricityResult(
        node=node,
        eccentricity=aggregate.value,
        tree=tree,
        metrics=metrics,
    )
