"""Per-node algorithm interface for the CONGEST simulator.

A distributed algorithm is written as a subclass of :class:`NodeAlgorithm`.
The network instantiates one object per node (via a factory), then drives
all of them in lock-step rounds:

* at round 0 every node's :meth:`NodeAlgorithm.on_round` is called with an
  empty inbox -- this is where initiators send their first messages;
* at round ``t >= 1`` it is called with the messages that the neighbours
  sent at round ``t - 1``;
* the return value is a mapping ``{neighbour_id: payload}`` of messages to
  send this round (an empty mapping or ``None`` sends nothing);
* a node signals completion by setting ``self.finished = True``; the network
  stops once every node has finished and no message is in flight.

Only *local* information is available to a node: its identifier, the
identifiers of its neighbours, the number of nodes ``n``, and whatever it
learns from messages.  This mirrors the knowledge assumption of Section 2.1
of the paper.

Self-wakes.  Networks run the event-driven
:class:`repro.engine.SparseScheduler`: a node's ``on_round`` is only called
when its inbox is non-empty (plus once at round 0, and once when it
restarts after a crash).  Algorithms that need to act in a round *without*
having received anything -- draining an internal queue, starting a wave at
a prescribed round -- must declare it with
:meth:`NodeAlgorithm.wake_next_round` or :meth:`NodeAlgorithm.wake_at`.
Under the dense reference scheduler of the differential tests both are
no-ops, so calling them is always safe.
"""

from __future__ import annotations

import random
from collections import abc
from itertools import repeat
from typing import (
    Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.graphs.graph import NodeId

Outbox = Mapping[NodeId, Any]
Inbox = Dict[NodeId, Any]

_new_object = object.__new__


class Broadcast(abc.Mapping):
    """A read-only outbox that sends one ``payload`` to every node of
    ``targets``, in ``targets`` order.

    What :meth:`NodeAlgorithm.broadcast` returns.  Construction is O(1):
    ``targets`` is kept as given (the node's own neighbour tuple), not
    copied into a dict.  It reads like the equivalent
    ``dict.fromkeys(targets, payload)`` -- iteration, ``len``, lookups,
    ``items()`` and ``values()`` (one-shot iterators here) -- and
    compares equal to it.  The transport delivers it in bulk -- one
    payload sizing for every copy -- when ``targets`` is the network's
    own neighbour tuple of the sender (see
    :meth:`repro.engine.transport.Transport.deliver_round`); any other
    ``Broadcast`` goes message by message like a dict.  ``targets`` must
    not repeat a node.  To edit an outbox, copy it first:
    ``dict(outbox)``.  :meth:`NodeAlgorithm.broadcast` fills the two
    slots of a bare instance itself, skipping the ``__init__`` frame.
    """

    __slots__ = ("targets", "payload")

    def __init__(self, targets: Tuple[NodeId, ...], payload: Any) -> None:
        self.targets = targets
        self.payload = payload

    def __len__(self) -> int:
        return len(self.targets)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.targets)

    def __getitem__(self, target: NodeId) -> Any:
        if target in self.targets:
            return self.payload
        raise KeyError(target)

    def values(self) -> Iterator[Any]:  # type: ignore[override]
        return repeat(self.payload, len(self.targets))

    def items(self) -> Iterator[Tuple[NodeId, Any]]:  # type: ignore[override]
        return zip(self.targets, repeat(self.payload))

    def __repr__(self) -> str:
        return f"Broadcast({self.targets!r}, {self.payload!r})"


class NodeAlgorithm:
    """Base class for the per-node state machine of a distributed algorithm.

    Subclasses implement :meth:`on_round` and usually :meth:`result`;
    long-lived local variables are ordinary instance attributes.

    Parameters
    ----------
    node_id:
        This node's identifier.
    neighbors:
        Identifiers of adjacent nodes (the node's local view of the graph),
        kept as :attr:`neighbors`, a tuple.  Network factories pass the
        network's own cached tuple (:meth:`repro.congest.network.Network.neighbors`),
        which is kept as is -- that identity is what lets the transport
        deliver :meth:`broadcast` outboxes in bulk; any other sequence is
        copied into a tuple.
    num_nodes:
        The number ``n`` of nodes in the network, known to every node.
    rng:
        The node-local pseudo-random generator, or the integer seed of one.
        Network factories pass :meth:`repro.congest.network.Network.node_seed`,
        so executions are reproducible; ``None`` means seed 0.  A seed is
        turned into a ``random.Random`` on the first read of :attr:`rng`,
        so a node that never draws never pays for seeding a generator.
    """

    #: Pending self-wake requests, oldest first: ``None`` for
    #: :meth:`wake_next_round`, an absolute round for :meth:`wake_at`.
    #: The round loop (``Network._run_loop``) drains them once before
    #: round 0 and after every ``on_round`` call, under every scheduler.
    #: The class-level empty default keeps that drain valid for a
    #: subclass that does not call ``NodeAlgorithm.__init__``.
    _wake_requests: Sequence[Optional[int]] = ()

    def __init__(
        self,
        node_id: NodeId,
        neighbors: Sequence[NodeId],
        num_nodes: int,
        rng: Union[random.Random, int, None] = None,
    ) -> None:
        self.node_id = node_id
        self.neighbors: Tuple[NodeId, ...] = (
            neighbors if neighbors.__class__ is tuple else tuple(neighbors)
        )
        self.num_nodes = num_nodes
        self._rng = 0 if rng is None else rng
        self.finished = False
        self._wake_requests: List[Optional[int]] = []

    @property
    def rng(self) -> random.Random:
        """The node-local generator, seeded on first access."""
        rng = self._rng
        if isinstance(rng, int):
            rng = self._rng = random.Random(rng)
        return rng

    @rng.setter
    def rng(self, value: Union[random.Random, int]) -> None:
        self._rng = value

    # ------------------------------------------------------------------
    # Hooks implemented by concrete algorithms
    # ------------------------------------------------------------------
    def on_round(self, round_number: int, inbox: Inbox) -> Optional[Outbox]:
        """Process the inbox of this round and return messages to send.

        ``round_number`` starts at 0.  ``inbox`` maps a neighbour identifier
        to the payload it sent in the previous round (absent if it sent
        nothing).  Return a mapping ``{neighbour: payload}`` or ``None``.

        The inbox mapping is owned by the network and only valid for the
        duration of this call: an algorithm that needs the contents later
        must copy them (``dict(inbox)``), and must never place the inbox
        object itself (directly or nested) inside an outgoing payload --
        send a copy.  Returning the inbox itself as the outbox is fine.
        The payloads *received* through the inbox are untouched.

        The returned outbox is delivered after every node scheduled in
        this round has run (one transport pass per round), so it must not
        be changed after it is returned; a node builds a new outbox each
        round.  If a round aborts (a send to a non-neighbour, a strict
        bandwidth violation), the nodes after the offender have already
        run that round and the run's state is discarded; if one of them
        raises (in ``on_round`` or a nested run), its error reaches the
        caller instead of the offender's.
        """
        raise NotImplementedError

    def result(self) -> Any:
        """The node's local output once the algorithm has finished."""
        return None

    def memory_bits(self) -> Optional[int]:
        """Optional estimate of the node's current working memory in bits.

        Algorithms that care about the paper's memory bounds (e.g. the
        Figure-2 Evaluation procedure, which must run in ``O(log n)`` bits
        per node) override this; returning ``None`` opts out of accounting.

        The value must never decrease during a run (a high-water mark, not
        the live footprint): the round loop reads it once per node, when a
        run of at least one round ends, and reports the largest value as
        ``ExecutionMetrics.max_node_memory_bits`` (0 for a run of no
        rounds).  Every node has run by then -- all nodes run in round 0
        and no crash starts earlier -- so the final value is the node's
        peak.
        """
        return None

    # ------------------------------------------------------------------
    # Self-wake API (event-driven scheduling)
    # ------------------------------------------------------------------
    def wake_next_round(self) -> None:
        """Request that ``on_round`` be called next round even if the inbox
        is empty.

        The event-driven :class:`repro.engine.SparseScheduler` of every
        network only runs nodes with a non-empty inbox, so an algorithm
        that keeps internal work queued between rounds must declare it.
        Under the dense reference scheduler (every node runs every round)
        this is a no-op, so the call is always safe.

        Example -- a node draining a local queue one message per round::

            def on_round(self, round_number, inbox):
                self.queue.extend(inbox.values())
                if not self.queue:
                    return {}
                item = self.queue.pop(0)
                if self.queue:            # more to drain next round, with or
                    self.wake_next_round()  # without new incoming messages
                return self.broadcast(item)
        """
        self._wake_requests.append(None)

    def wake_at(self, round_number: int) -> None:
        """Request that ``on_round`` be called at the absolute round
        ``round_number`` even if the inbox is empty then.

        Used by timer-driven algorithms whose schedule is known up-front,
        e.g. a Figure-2 wave source that must start its wave at round
        ``2 * tau'``; may be called from ``__init__`` (before round 0).
        Requests for rounds that have already passed are clamped to the
        next round.  A no-op under the dense scheduler.
        """
        self._wake_requests.append(int(round_number))

    # ------------------------------------------------------------------
    # Retry/backoff helpers (graceful degradation under faults)
    # ------------------------------------------------------------------
    def wake_after(self, round_number: int, delay: int) -> int:
        """Schedule a self-wake ``delay`` rounds after ``round_number``.

        Returns the absolute target round, which the caller should store
        and compare against ``round_number`` in later ``on_round`` calls:
        the dense scheduler polls every node every round, the sparse one
        wakes the node exactly at the target, and checking ``round_number
        >= target`` makes both behave identically.  ``delay`` is clamped
        to at least 1 (a node cannot re-run within its own round).
        """
        target = round_number + max(1, int(delay))
        self.wake_at(target)
        return target

    def retry_backoff(
        self,
        round_number: int,
        attempt: int,
        base: int = 1,
        factor: int = 2,
        cap: int = 64,
    ) -> int:
        """Schedule a retry wake with exponential backoff.

        Attempt 0 wakes after ``base`` rounds, attempt 1 after ``base *
        factor`` rounds, and so on, capped at ``cap`` rounds.  Returns
        the absolute round of the scheduled wake (see :meth:`wake_after`).
        Used by fault-tolerant algorithms to re-request messages that a
        lossy network may have dropped, without flooding every round.
        """
        delay = min(cap, base * factor ** max(0, attempt))
        # :meth:`wake_after`'s target, appended without its two calls.
        target = round_number + max(1, int(delay))
        self._wake_requests.append(target)
        return target

    # ------------------------------------------------------------------
    # Conveniences for subclasses
    # ------------------------------------------------------------------
    def broadcast(self, payload: Any) -> Outbox:
        """An outbox that sends ``payload`` to every neighbour.

        Returns a read-only :class:`Broadcast` over :attr:`neighbors` (an
        empty dict for a node without neighbours, so ``if outbox:`` still
        means "sends something").  This is the transport's fast case:
        when the neighbour tuple is the network's own, the payload is
        sized once for the whole outbox and the copies are accounted in
        bulk.  To send something else to some neighbours, build a
        dict (``dict(self.broadcast(payload))`` is one to edit).

        The outbox is made with ``object.__new__`` and two slot stores,
        the same object ``Broadcast(self.neighbors, payload)`` makes
        without its ``__init__`` frame: one Python frame per broadcast.
        """
        neighbors = self.neighbors
        if not neighbors:
            return {}
        outbox = _new_object(Broadcast)
        outbox.targets = neighbors
        outbox.payload = payload
        return outbox

    def send_to(self, neighbor: NodeId, payload: Any) -> Outbox:
        """An outbox that sends ``payload`` to a single neighbour."""
        if neighbor not in self.neighbors:
            raise ValueError(
                f"node {self.node_id!r} has no neighbour {neighbor!r}"
            )
        return {neighbor: payload}
