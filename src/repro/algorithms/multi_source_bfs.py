"""Pipelined multi-source BFS (source detection, in the style of [LP13]).

The classical 3/2-approximation of the diameter ([LP13, HPRW14], used by the
paper as the baseline for Theorem 4 and as the preparation phase of
Figure 3) needs every node ``v`` to learn its distance ``d(v, s)`` to every
node ``s`` of a source set ``S``.  Running the ``|S|`` BFS computations one
after the other would cost ``O(|S| * D)`` rounds; the standard pipelining --
each node forwards, every round, the smallest-distance pair it has not
forwarded yet -- brings this down to ``O(|S| + D)`` rounds, which is what
makes the ``O~(sqrt(n) + D)`` baseline possible.

Each node keeps its not-yet-forwarded pairs in a heap of
``(distance, rank, source)``, where ``rank`` is the source's position in
``repr`` order -- the identifier tie-break.  An entry is pushed whenever
``d(v, s)`` improves and discarded lazily when it reaches the top stale
(its source already forwarded, or its distance since improved), so
choosing the next pair costs ``O(log |S|)`` per improvement instead of a
scan of every pending source each round.

Unlike the Figure-2 waves (which only track a running maximum in ``O(log n)``
bits), this primitive stores one distance per source and therefore uses
``O(|S| log n)`` bits of memory per node.  The paper explicitly notes that
the preparation phase of its approximation algorithm requires polynomial
classical memory, in contrast to the polylogarithmic quantum memory of the
optimization phase.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro._record import Record
from repro.congest.message import log_n_bits
from repro.congest.network import Network
from repro.congest.node import Inbox, NodeAlgorithm, Outbox
from repro.graphs.graph import NodeId


class MultiSourceBFSResult(Record):
    """Distances from every node to every source."""

    __slots__ = ("sources", "distances", "metrics")

    def distance_to_set(self, node: NodeId) -> int:
        """``d(node, S)``: distance to the nearest source."""
        return min(self.distances[node].values())

    def nearest_source(self, node: NodeId) -> NodeId:
        """A nearest source ``p(node)`` (ties broken deterministically)."""
        table = self.distances[node]
        return min(table, key=lambda source: (table[source], repr(source)))

    def eccentricity_of_source(self, source: NodeId) -> int:
        """``ecc(source)`` computed from the collected distances."""
        return max(table[source] for table in self.distances.values())


class _MultiSourceBFSNode(NodeAlgorithm):
    """Per-node state machine of the pipelined multi-source BFS.

    ``rank`` maps every source to its position in ``repr`` order (one dict
    shared by all nodes), so the heap orders pending pairs exactly as the
    ``(distance, repr(source))`` key of the forwarding rule.
    """

    def __init__(
        self, node_id, neighbors, num_nodes, rng, is_source: bool,
        rank: Dict[NodeId, int],
    ) -> None:
        super().__init__(node_id, neighbors, num_nodes, rng)
        self._log_n = log_n_bits(num_nodes)
        self._rank = rank
        self.known: Dict[NodeId, int] = {}
        self.pending: Set[NodeId] = set()
        #: ``(distance, rank, source)`` per improvement of ``known``; an
        #: entry whose source is no longer pending, or whose distance is
        #: no longer ``known[source]``, is stale and dropped when it
        #: surfaces.
        self._queue: List[Tuple[int, int, NodeId]] = []
        if is_source:
            self.known[node_id] = 0
            self.pending.add(node_id)
            self._queue.append((0, rank[node_id], node_id))
        # Reactive termination: the run stops when no queue has anything to
        # forward anywhere in the network.
        self.finished = True

    def on_round(self, round_number: int, inbox: Inbox) -> Optional[Outbox]:
        known = self.known
        known_get = known.get
        pending = self.pending
        queue = self._queue
        rank = self._rank
        for payload in inbox.values():
            # Exact classes first: a plain tuple payload and an int source
            # skip the ``isinstance`` calls their subclasses need.
            if not (
                (payload.__class__ is tuple or isinstance(payload, tuple))
                and payload
                and payload[0] == "m"
            ):
                continue
            source, distance = payload[1], payload[2]
            if source.__class__ is not int and isinstance(source, list):
                source = tuple(source)
            candidate = distance + 1
            current = known_get(source)
            if current is None or candidate < current:
                known[source] = candidate
                pending.add(source)
                heappush(queue, (candidate, rank[source], source))

        if not pending:
            return {}
        # Forward the smallest-distance pending pair (ties by identifier).
        while True:
            distance, _, chosen = heappop(queue)
            if chosen in pending and known[chosen] == distance:
                break
        pending.discard(chosen)
        if pending:
            # The queue is not drained: ask the (sparse) scheduler to run us
            # again next round even if no new message arrives
            # (:meth:`wake_next_round`'s request, appended without its call).
            self._wake_requests.append(None)
        return self.broadcast(("m", chosen, distance))

    def result(self):
        return dict(self.known)

    def memory_bits(self) -> Optional[int]:
        return max(1, 2 * len(self.known)) * self._log_n


def run_multi_source_bfs(
    network: Network, sources: Sequence[NodeId]
) -> MultiSourceBFSResult:
    """Compute ``d(v, s)`` for every node ``v`` and every source ``s``.

    Runs in ``O(|sources| + D)`` rounds thanks to smallest-distance-first
    pipelining.  Raises ``ValueError`` on an empty source set.
    """
    source_set = set(sources)
    if not source_set:
        raise ValueError("the source set must be non-empty")
    for source in source_set:
        if not network.graph.has_node(source):
            raise ValueError(f"source {source!r} is not a node of the network")

    ordered = tuple(sorted(source_set, key=repr))
    rank = {source: index for index, source in enumerate(ordered)}
    execution = network.run(
        lambda node, net: _MultiSourceBFSNode(
            node, net.neighbors(node), net.num_nodes, net.node_seed(node),
            node in source_set, rank,
        )
    )
    distances: Dict[NodeId, Dict[NodeId, int]] = execution.results
    missing = [
        node
        for node, table in distances.items()
        if set(table) != source_set
    ]
    if missing:
        raise RuntimeError(
            "multi-source BFS did not deliver every source distance to every "
            f"node (first offenders: {missing[:3]!r})"
        )
    execution.metrics.record_phase("multi_source_bfs", execution.metrics.rounds)
    return MultiSourceBFSResult(
        sources=ordered,
        distances=distances,
        metrics=execution.metrics,
    )
