"""Fault-tolerant BFS with retry/backoff rebroadcasts.

The Figure-1 BFS of :mod:`repro.algorithms.bfs` sends each distance
announcement exactly once, which is optimal on a reliable network but
brittle under the lossy/dynamic fault models of :mod:`repro.faults`: a
single dropped ``("bfs", d)`` message silences an entire subtree.

:class:`_ResilientBFSNode` hardens the flood with the retry helpers of
:class:`repro.congest.node.NodeAlgorithm`: after adopting (or improving)
a distance, a node rebroadcasts it on an exponential-backoff schedule
(:meth:`~repro.congest.node.NodeAlgorithm.retry_backoff`) until a fixed
retry budget is exhausted, and only then sets ``finished``.  Lost or
churned-away announcements are therefore re-sent a bounded number of
times, and delayed announcements can only *improve* a node's distance
(stale larger distances are ignored), so the computed distances are
correct whenever every node hears from a shortest-path predecessor at
least once.

Determinism across schedulers.  Retry instants are absolute round numbers
stored on the node and compared against ``round_number`` in ``on_round``:
the dense scheduler polls every node every round and the sparse
scheduler wakes the node exactly at the stored round, so both
execute identical retry sequences.  On a fault-free network the retry
budget still runs to completion (a node cannot locally detect that the
network is reliable), costing a constant factor in messages and
``O(retries)`` extra rounds -- the price of robustness that
``benchmarks/bench_faults.py`` quantifies against the plain baselines.
"""

from __future__ import annotations

from typing import Optional

from repro._record import Record
from repro.algorithms.diameter_approx import ApproxDiameterResult
from repro.congest.message import log_n_bits
from repro.congest.network import Network
from repro.congest.node import Inbox, NodeAlgorithm, Outbox
from repro.graphs.graph import NodeId

#: Default number of rebroadcast retries per adopted distance.  With the
#: doubling backoff of ``retry_backoff`` the retries span ``2^(retries+1)
#: - 1`` rounds, so 4 retries cover a 31-round window of loss/churn/outage
#: per hop while bounding the fault-free overhead.
DEFAULT_MAX_RETRIES = 4


class ResilientBFSResult(Record):
    """Outcome of the retrying BFS flood."""

    __slots__ = ("root", "distance", "reached", "metrics")

    @property
    def complete(self) -> bool:
        """True when every node learned a distance."""
        return self.reached == len(self.distance)


class _ResilientBFSNode(NodeAlgorithm):
    """Per-node state machine of the retrying BFS flood."""

    def __init__(
        self, node_id, neighbors, num_nodes, rng, root: NodeId, max_retries: int
    ) -> None:
        super().__init__(node_id, neighbors, num_nodes, rng)
        self._log_n = log_n_bits(num_nodes)
        self.root = root
        self.max_retries = max_retries
        self.distance: Optional[int] = None
        self._attempt = 0
        self._next_retry: Optional[int] = None

    def on_round(self, round_number: int, inbox: Inbox) -> Optional[Outbox]:
        best: Optional[int] = None
        for payload in inbox.values():
            if (
                (payload.__class__ is tuple or isinstance(payload, tuple))
                and len(payload) == 2
                and payload[0] == "bfs"
            ):
                candidate = payload[1] + 1
                if best is None or candidate < best:
                    best = candidate
        if self.node_id == self.root and round_number == 0:
            best = 0

        if best is not None and (self.distance is None or best < self.distance):
            # New or improved distance: announce it and restart the retry
            # schedule.  ``finished`` stays false until the retry budget is
            # spent, so every engine terminates at the same round (all
            # scheduled wakes are in the past by then -- a reschedule only
            # ever moves the horizon forward).
            self.distance = best
            self._attempt = 0
            self._next_retry = self.retry_backoff(round_number, 0)
            return self.broadcast(("bfs", self.distance))

        if self._next_retry is not None and round_number >= self._next_retry:
            self._attempt += 1
            if self._attempt > self.max_retries:
                self._next_retry = None
                self.finished = True
                return None
            self._next_retry = self.retry_backoff(round_number, self._attempt)
            return self.broadcast(("bfs", self.distance))
        return None

    def result(self):
        return self.distance

    def memory_bits(self) -> Optional[int]:
        # Distance, attempt counter and retry round: O(log n) bits (the
        # retry round is O(log(rounds)) = O(log n) for this procedure).
        return 3 * self._log_n


def run_resilient_bfs(
    network: Network,
    root: NodeId,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> ResilientBFSResult:
    """Run the retrying BFS flood from ``root``.

    Unlike :func:`repro.algorithms.bfs.run_bfs_tree` this does *not* raise
    when some nodes end up unreached -- under faults partial coverage is an
    expected outcome and is reported through :attr:`ResilientBFSResult.reached`
    / :attr:`~ResilientBFSResult.complete` so callers can decide.
    """
    if not network.graph.has_node(root):
        raise ValueError(f"root {root!r} is not a node of the network")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    execution = network.run(
        lambda node, net: _ResilientBFSNode(
            node,
            net.neighbors(node),
            net.num_nodes,
            net.node_seed(node),
            root,
            max_retries,
        )
    )
    distance = dict(execution.results)
    reached = sum(1 for value in distance.values() if value is not None)
    execution.metrics.record_phase("resilient_bfs", execution.metrics.rounds)
    return ResilientBFSResult(
        root=root,
        distance=distance,
        reached=reached,
        metrics=execution.metrics,
    )


def run_resilient_two_approximation(
    network: Network,
    node: Optional[NodeId] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> ApproxDiameterResult:
    """A fault-tolerant 2-approximation: ``D_hat = ecc(node)`` via the
    retrying flood.

    The reference node defaults to the minimum node identifier -- a value
    every node can agree on without a (fault-sensitive) leader election.
    Raises :class:`RuntimeError` when the flood fails to reach every node
    (the eccentricity of a partially-covered flood is not a diameter
    bound), which the sweep layer records as a failed cell under faults.
    """
    if node is None:
        node = min(network.graph.nodes(), key=repr)
    bfs = run_resilient_bfs(network, node, max_retries=max_retries)
    if not bfs.complete:
        raise RuntimeError(
            f"resilient BFS reached {bfs.reached}/{len(bfs.distance)} nodes; "
            "no diameter bound can be certified"
        )
    estimate = max(bfs.distance.values())
    return ApproxDiameterResult(
        estimate=estimate,
        approximation_factor=2.0,
        metrics=bfs.metrics,
    )
