"""Message transport: delivery, size measurement and bandwidth policy.

The transport owns everything that happens to a message between a node's
outbox and its neighbour's next-round inbox.  The engine makes one call
per round, :meth:`Transport.deliver_round`, with every ``(node, outbox)``
pair of the round in node order (:meth:`Transport.deliver` is that call
with one pair).  One pass covers:

* the CONGEST contract check (only neighbours may be addressed, enforced
  with :class:`repro.congest.errors.ProtocolError`) -- the per-node
  neighbour frozensets are prebound from the graph's compiled CSR view
  (:meth:`repro.graphs.indexed.IndexedGraph.neighbor_sets`), so the hot
  loop performs one frozenset-membership test per message instead of a
  ``has_edge`` call.  The engine refreshes the binding at the start of
  every run via :meth:`Transport.bind_topology`; the graph's version
  counter makes the refresh O(1) when the topology is unchanged and
  rebuilds it when the graph was mutated between runs;
* size measurement via :func:`repro.congest.message.message_size_bits`,
  behind a memo cache -- the paper's algorithms send the same small tuples
  (``("bfs", d)``, ``("w", tag, delta)``, ...) over thousands of edges and
  rounds, so identical payloads are measured once;
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
neighbour check, the payload is measured once -- a value-tier hit is read
inline, without a :meth:`Transport.measure` call -- and its copies are
accounted in bulk.  Every other outbox -- plain dicts, a ``Broadcast``
over any other targets, everything under a listener -- goes message by
message.  Both ways give the same metrics, errors, cache counters and
inboxes, and under a fault plan the same fates in the same order.

Memo cache.  Two tiers, tried hash-first:

* the **value tier** keys scalars and flat tuples of scalars by the payload
  itself -- no ``repr`` string is built on the hot path.  Because Python's
  ``==``/``hash`` conflate equal numerics of different types (``2``,
  ``2.0`` and ``True`` collide, yet cost 2, 64 and 1 bits), each entry
  stores a *type signature* (the element classes) that is verified with
  identity checks on every hit; a signature mismatch falls through to a
  fresh measurement, so the tier is exact by construction.  A miss is
  measured in its signature pass: one loop over a flat tuple yields both
  the signature and the size (by the rules of ``message_size_bits``);
* the **repr tier** is the original ``(type, repr(payload))`` key, used for
  everything else: nested containers, unhashable payloads (lists, dicts,
  sets) and exotic types.  Payloads whose ``repr`` fails are measured
  directly without caching.

Both tiers share one entry budget (``size_cache_limit``); beyond it new
payloads are measured without being cached (no eviction churn).

Cache effectiveness is reported on the run's metrics without touching
the hit path: ``measure`` counts only its (rare) misses and
overflows, and the engine derives per-run hits as ``messages - misses``
when stamping ``ExecutionMetrics``.  Every delivered message is charged
exactly one measurement -- performed, or for the copies of a
whole-neighbourhood send, charged by the miss path as measuring the copy
would have come out (``measure(payload, copies)``) -- so the identity is
exact for leaf runs (and clamped for re-entrant nested runs, whose misses
land in the outer run's delta while their messages do not).
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

#: Default bound on the number of memoised payload sizes; beyond it new
#: payloads are measured without being cached (no eviction churn).
DEFAULT_SIZE_CACHE_LIMIT = 65536

#: Payload classes eligible for the value tier.  Scalars of these classes
#: (and flat tuples thereof) are fully disambiguated by their class
#: signature: equal values of the same class always measure the same size.
_SCALAR_CLASSES = frozenset((int, bool, float, str, type(None)))


def _value_signature(payload: Any):
    """The value tier's ``(type signature, size in bits)`` of ``payload``,
    or ``None`` if it is ineligible.

    Scalars sign as their class; flat tuples of scalars sign as the tuple
    of their element classes.  Nested containers are ineligible (their
    signature would not see inside, so ``(("a", 2),)`` and ``(("a", 2.0),)``
    could conflate) and fall back to the repr tier.

    A tuple is sized in the same pass that signs it, by the rules of
    :func:`repro.congest.message.message_size_bits` (the definition,
    which sizes scalars here): 2 bits of framing per element plus the
    bit length and sign of an int, 8 bits per character of a str (at
    least 1), 64 for a float and 1 for a bool or ``None``.
    """
    cls = payload.__class__
    if cls is tuple:
        signature = []
        append = signature.append
        size = 0
        for item in payload:
            item_cls = item.__class__
            if item_cls is str:
                size += 2 + (8 * len(item) or 1)
            elif item_cls is int:
                size += 2 + (item.bit_length() + (item < 0) if item else 1)
            elif item_cls is float:
                size += 66
            elif item_cls is bool or item is None:
                size += 3
            else:
                return None
            append(item_cls)
        return tuple(signature), size or 1
    if cls in _SCALAR_CLASSES:
        return cls, message_size_bits(payload)
    return None


def _signed_as(payload: Any, signature: Any) -> bool:
    """Whether ``payload`` has the value tier's type ``signature`` (see
    :func:`_value_signature`), given that it equals the payload the
    signature was taken from.

    Equal tuples have equal lengths, so the common 2- and 3-tuples are
    checked element by element without building a tuple of classes.
    """
    cls = payload.__class__
    if cls is not tuple:
        return cls is signature
    if signature.__class__ is not tuple:
        return False
    length = len(payload)
    if length == 3:
        return (
            payload[0].__class__ is signature[0]
            and payload[1].__class__ is signature[1]
            and payload[2].__class__ is signature[2]
        )
    if length == 2:
        return (
            payload[0].__class__ is signature[0]
            and payload[1].__class__ is signature[1]
        )
    return tuple(map(type, payload)) == signature


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
    size_cache_limit:
        Maximum number of distinct payloads whose measured size is memoised
        (shared by both cache tiers).
    """

    def __init__(
        self,
        graph: Graph,
        bandwidth_bits: int,
        strict_bandwidth: bool,
        size_cache_limit: int = DEFAULT_SIZE_CACHE_LIMIT,
    ) -> None:
        self.graph = graph
        self.bandwidth_bits = bandwidth_bits
        self.strict_bandwidth = strict_bandwidth
        self.size_cache_limit = size_cache_limit
        #: Value tier: payload -> (type signature, size).
        self._value_cache: Dict[Any, Tuple[Any, int]] = {}
        #: Repr tier: (type, repr) -> size.
        self._size_cache: Dict[Tuple[type, str], int] = {}
        #: Per-node neighbour frozensets, prebound from the compiled CSR
        #: view (one lookup per outbox, one membership test per message).
        #: The engine refreshes the binding per run, so graph mutations
        #: between runs are honoured.
        self._indexed: Optional[IndexedGraph] = None
        self._neighbor_sets: Dict[NodeId, Any] = {}
        #: Per-node neighbour tuples, the ones the network's algorithm
        #: factories hand to the nodes: a node's ``Broadcast`` over its
        #: own tuple is recognised by identity.
        self._neighbor_tuples: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self.bind_topology(graph.compile())
        # Cache-effectiveness counters, cumulative across the network's
        # runs; the engine stamps per-run deltas into the run's metrics.
        # Only misses and overflows are counted (they are rare -- one per
        # distinct payload); hits are derived from the message count so
        # the cache-hit path stays increment-free.
        self.cache_misses = 0
        self.cache_overflows = 0

    # ------------------------------------------------------------------
    def bind_topology(self, indexed: IndexedGraph) -> None:
        """(Re)bind the per-node neighbour sets and tuples from a compiled
        view.

        Called by the engine at the start of every run with
        ``graph.compile()``: on an unmutated graph the compiled view is
        the same cached object and the rebind is a no-op identity check;
        after a mutation a fresh view arrives and the frozensets and
        tuples are rebuilt (and cached on the view, shared with other
        transports and with the network's algorithm factories).
        """
        if indexed is not self._indexed:
            self._indexed = indexed
            self._neighbor_sets = indexed.neighbor_sets()
            self._neighbor_tuples = indexed.neighbor_tuples()

    def measure(self, payload: Any, copies: int = 1) -> int:
        """Size of ``payload`` in bits, memoised across the network's runs.

        ``copies`` charges the cache counters as measuring that many
        copies of the payload one after another would: a hit is a hit for
        every copy, a miss that caches the payload is one miss (the later
        copies would hit), and a miss that cannot cache it (a full cache,
        or a ``repr`` that fails) is repeated by every copy.
        """
        # Value tier: hash the payload itself -- no repr on the hot path.
        value_cache = self._value_cache
        try:
            hit = value_cache.get(payload)
        except TypeError:
            hashable = False
        else:
            hashable = True
            if hit is not None:
                if _signed_as(payload, hit[0]):
                    return hit[1]
                # Signature mismatch: an equal-but-differently-typed
                # payload (e.g. ``(2,)`` probing an entry for ``(2.0,)``).
                # Fall through, re-measure and retake the slot.
        if hashable:
            measured = _value_signature(payload)
            if measured is not None:
                if (
                    hit is not None  # overwriting an existing slot
                    or len(value_cache) + len(self._size_cache)
                    < self.size_cache_limit
                ):
                    value_cache[payload] = measured
                    self.cache_misses += 1
                else:
                    self.cache_misses += copies
                    self.cache_overflows += copies
                return measured[1]

        # Repr tier: nested containers, unhashable and exotic payloads.
        try:
            key = (payload.__class__, repr(payload))
        except Exception:
            # The first copy's miss counts even if measuring it raises,
            # as it does when copies are measured one by one.
            self.cache_misses += 1
            size = message_size_bits(payload)
            self.cache_misses += copies - 1
            return size
        cache = self._size_cache
        size = cache.get(key)
        if size is None:
            size = message_size_bits(payload)
            if len(cache) + len(self._value_cache) < self.size_cache_limit:
                cache[key] = size
                self.cache_misses += 1
            else:
                self.cache_misses += copies
                self.cache_overflows += copies
        return size

    @property
    def size_cache_entries(self) -> int:
        """Number of memoised payload sizes (introspection for benchmarks)."""
        return len(self._value_cache) + len(self._size_cache)

    def cache_stats(self) -> Dict[str, int]:
        """Cumulative cache-effectiveness counters (for reports).

        Hits are not counted here (the hit path is increment-free); per-run
        hit counts are derived by the engine and reported on
        ``ExecutionMetrics.size_cache_hits``.
        """
        return {
            "misses": self.cache_misses,
            "overflows": self.cache_overflows,
            "entries": self.size_cache_entries,
        }

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
        """Validate, measure, account and enqueue one round's outboxes.

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
        measured once -- a value-tier cache hit is read inline, anything
        else goes through :meth:`measure`, charging the cache counters for
        every copy -- and the copies are accounted in bulk and enqueued in
        ``targets`` order.  An oversized payload raises the same strict
        error (naming the first target) or counts one violation per copy.
        Every other outbox -- a dict, a ``Broadcast`` over other targets,
        any outbox under a listener -- is checked, measured and accounted
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
        value_cache = self._value_cache
        measure = self.measure
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
                # The value tier's hit path of ``measure``, inline.
                try:
                    hit = value_cache.get(payload)
                except TypeError:
                    hit = None
                if hit is not None and (
                    payload.__class__ is hit[0] or _signed_as(payload, hit[0])
                ):
                    size = hit[1]
                else:
                    size = measure(payload, count)
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
                neighbors = neighbor_sets.get(sender)
                for target, payload in outbox.items():
                    if neighbors is None or target not in neighbors:
                        raise ProtocolError(
                            f"node {sender!r} tried to send to non-neighbour {target!r}"
                        )
                    size = measure(payload)
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
