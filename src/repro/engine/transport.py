"""Message transport: delivery, size measurement and bandwidth policy.

The transport owns everything that happens to a message between a node's
outbox and its neighbour's next-round inbox.  The engine makes one call
per round, :meth:`Transport.deliver_round`, with every ``(node, outbox)``
pair of the round in node order (:meth:`Transport.deliver` is that call
with one pair).  One pass covers:

* the CONGEST contract check (only neighbours may be addressed, enforced
  with :class:`repro.congest.errors.ProtocolError`) -- the per-node
  neighbour frozensets come from the graph's compiled CSR view
  (:meth:`repro.graphs.indexed.IndexedGraph.neighbor_sets`), so the hot
  loop performs one frozenset-membership test per message instead of a
  ``has_edge`` call.  They are fetched on the first outbox that is
  checked message by message, so a run whose sends are all
  own-neighbourhood broadcasts never builds them.  The engine refreshes
  the binding at the start of every run via
  :meth:`Transport.bind_topology`; the graph's version counter makes the
  refresh O(1) when the topology is unchanged and drops the stale sets
  when the graph was mutated between runs;
* size measurement: every payload is sized by
  :func:`repro.congest.message.message_size_bits`, once per message --
  or once per whole-neighbourhood send (below);
* the bandwidth policy: in strict mode an oversized message raises
  :class:`repro.congest.errors.BandwidthExceededError`, otherwise the
  violation is only counted;
* the run's core message accounting (messages, bits, the per-edge
  maximum, violations, dropped and delayed messages), summed in the
  pass's locals and stamped into the run's
  :class:`repro.congest.metrics.ExecutionMetrics` once per pass;
* under a fault model, each message's fate, decided while the message is
  placed (:meth:`repro.faults.FaultPlan.route`).

Whole-neighbourhood sends.  Most of the paper's traffic is a node sending
one O(log n)-bit value to every neighbour (BFS and distance waves,
multi-source BFS, leader election).  Such a send is one object, a
:class:`repro.congest.node.Broadcast` from
:meth:`repro.congest.node.NodeAlgorithm.broadcast`, whose targets are the
network's own neighbour tuple of the sender.  When no per-message
listener is attached, one identity check on that tuple stands for the
neighbour check, the payload is sized once and its copies are accounted
in bulk.  Every other outbox -- plain dicts, a ``Broadcast`` over any
other targets, everything under a listener -- goes message by message.
Both ways give the same metrics, errors and inboxes, and under a fault
plan the same fates in the same order.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.congest.errors import BandwidthExceededError, ProtocolError
from repro.congest.message import message_size_bits
from repro.congest.metrics import ExecutionMetrics
from repro.congest.node import Broadcast
from repro.graphs.graph import Graph, NodeId
from repro.graphs.indexed import IndexedGraph


class Transport:
    """Synchronous one-round-latency message delivery with bandwidth policy.

    Parameters
    ----------
    graph:
        The communication topology (for the neighbour check).
    bandwidth_bits:
        Per-edge per-round budget.  The engine refreshes this from the
        owning network at the start of every run, so post-construction
        mutations of ``Network.bandwidth_bits`` are honoured.
    strict_bandwidth:
        Whether oversized messages abort the run or are merely counted.
        Refreshed per run like ``bandwidth_bits``.
    """

    def __init__(
        self,
        graph: Graph,
        bandwidth_bits: int,
        strict_bandwidth: bool,
    ) -> None:
        self.graph = graph
        self.bandwidth_bits = bandwidth_bits
        self.strict_bandwidth = strict_bandwidth
        #: Per-node neighbour frozensets from the compiled CSR view (one
        #: lookup per outbox, one membership test per message), or
        #: ``None`` until an outbox first needs them.  The engine
        #: refreshes the binding per run, so graph mutations between runs
        #: are honoured.
        self._indexed: Optional[IndexedGraph] = None
        self._neighbor_sets: Optional[Dict[NodeId, Any]] = None
        #: Per-node neighbour tuples, the ones the network's algorithm
        #: factories hand to the nodes: a node's ``Broadcast`` over its
        #: own tuple is recognised by identity.
        self._neighbor_tuples: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self.bind_topology(graph.compile())

    # ------------------------------------------------------------------
    def bind_topology(self, indexed: IndexedGraph) -> None:
        """(Re)bind the per-node neighbour tuples from a compiled view.

        Called by the engine at the start of every run with
        ``graph.compile()``: on an unmutated graph the compiled view is
        the same cached object and the rebind is a no-op identity check;
        after a mutation a fresh view arrives, its tuples are bound (and
        cached on the view, shared with other transports and with the
        network's algorithm factories), and the old view's neighbour
        frozensets are dropped: :meth:`deliver_round` fetches the new
        view's on the first outbox it checks message by message.
        """
        if indexed is not self._indexed:
            self._indexed = indexed
            self._neighbor_sets = None
            self._neighbor_tuples = indexed.neighbor_tuples()

    # ------------------------------------------------------------------
    def deliver_round(
        self,
        round_number: int,
        sends: Iterable[Tuple[NodeId, Mapping[NodeId, Any]]],
        next_inboxes: Dict[NodeId, Dict[NodeId, Any]],
        metrics: ExecutionMetrics,
        listeners: Sequence[Callable[..., None]] = (),
        plan=None,
        pending: Optional[Dict[int, List[Tuple[NodeId, NodeId, Any]]]] = None,
    ) -> None:
        """Validate, size, account and enqueue one round's outboxes.

        ``sends`` holds the round's ``(sender, outbox)`` pairs in the
        order the nodes ran; they are delivered in that order.
        ``next_inboxes`` is the sparse mapping of the *following* round's
        inboxes: only nodes that actually receive something get an entry
        (a fresh dict).  Every message is passed to each of
        ``listeners`` (the ``on_message`` hooks of the run's per-message
        observers) before the strict bandwidth check.  The round's
        messages, bits, largest message, bandwidth violations and, under
        a fault plan, dropped and delayed messages are summed in locals
        and added to ``metrics`` once, at the end of the pass; a pass that
        raises adds nothing (the run it belongs to is aborted).

        A :class:`repro.congest.node.Broadcast` whose ``targets`` is the
        network's own neighbour tuple of its sender (what
        :meth:`repro.congest.node.NodeAlgorithm.broadcast` returns) takes
        a shortcut with the same outcome when no listener is attached:
        one identity check stands for the neighbour check, the payload is
        sized once, and the copies are accounted in bulk and enqueued in
        ``targets`` order.  An oversized payload raises the same strict
        error (naming the first target) or counts one violation per copy.
        Every other outbox -- a dict, a ``Broadcast`` over other targets,
        any outbox under a listener -- is checked, sized and accounted
        message by message.

        ``plan`` is the run's :class:`repro.faults.FaultPlan`, or ``None``
        under the null model.  A faulty network does not change what a
        node *sends* -- every message is accounted and observed whether
        or not it arrives -- so an outbox's messages are routed by their
        fates (:meth:`repro.faults.FaultPlan.route`) only after the whole
        outbox has passed those checks.
        """
        budget = self.bandwidth_bits
        own_tuples = self._neighbor_tuples
        neighbor_sets = self._neighbor_sets
        size_of = message_size_bits
        bulk = not listeners
        next_inboxes_get = next_inboxes.get
        messages = bits = peak = violations = dropped = delayed = 0
        for sender, outbox in sends:
            if (
                bulk
                and outbox.__class__ is Broadcast
                and outbox.targets is own_tuples.get(sender)
                and outbox.targets
            ):
                targets = outbox.targets
                payload = outbox.payload
                count = len(targets)
                size = size_of(payload)
                if size > budget:
                    if self.strict_bandwidth:
                        raise BandwidthExceededError(
                            f"round {round_number}: node {sender!r} sent "
                            f"{size} bits to {targets[0]!r} "
                            f"(budget {budget} bits)"
                        )
                    violations += count
                messages += count
                bits += count * size
                if size > peak:
                    peak = size
                if plan is None:
                    for target in targets:
                        inbox = next_inboxes_get(target)
                        if inbox is None:
                            inbox = next_inboxes[target] = {}
                        inbox[sender] = payload
            else:
                if neighbor_sets is None:
                    neighbor_sets = self._neighbor_sets = (
                        self._indexed.neighbor_sets()
                    )
                neighbors = neighbor_sets.get(sender)
                for target, payload in outbox.items():
                    if neighbors is None or target not in neighbors:
                        raise ProtocolError(
                            f"node {sender!r} tried to send to non-neighbour {target!r}"
                        )
                    size = size_of(payload)
                    messages += 1
                    bits += size
                    if size > peak:
                        peak = size
                    violation = size > budget
                    if listeners:
                        for listener in listeners:
                            listener(
                                round_number, sender, target, payload, size, violation
                            )
                    if violation:
                        violations += 1
                        if self.strict_bandwidth:
                            raise BandwidthExceededError(
                                f"round {round_number}: node {sender!r} sent "
                                f"{size} bits to {target!r} "
                                f"(budget {budget} bits)"
                            )
                    if plan is None:
                        inbox = next_inboxes_get(target)
                        if inbox is None:
                            inbox = next_inboxes[target] = {}
                        inbox[sender] = payload
            if plan is not None:
                lost, late = plan.route(
                    round_number, sender, outbox.items(), next_inboxes, pending
                )
                dropped += lost
                delayed += late

        metrics.messages += messages
        metrics.total_bits += bits
        if peak > metrics.max_edge_bits_per_round:
            metrics.max_edge_bits_per_round = peak
        if violations:
            metrics.bandwidth_violations += violations
        if dropped:
            metrics.dropped_messages += dropped
        if delayed:
            metrics.delayed_messages += delayed

    def deliver(
        self,
        round_number: int,
        sender: NodeId,
        outbox: Mapping[NodeId, Any],
        next_inboxes: Dict[NodeId, Dict[NodeId, Any]],
        metrics: ExecutionMetrics,
        listeners: Sequence[Callable[..., None]] = (),
        plan=None,
        pending: Optional[Dict[int, List[Tuple[NodeId, NodeId, Any]]]] = None,
    ) -> None:
        """Deliver one node's outbox: :meth:`deliver_round` of the single
        pair ``(sender, outbox)``."""
        self.deliver_round(
            round_number, ((sender, outbox),), next_inboxes, metrics,
            listeners, plan, pending,
        )
