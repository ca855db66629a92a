"""Schedulers: which nodes run in which round.

The seed simulator woke **every** node **every** round.  For the BFS-wave
style algorithms at the heart of the paper (single- and multi-source BFS,
the Figure-2 Evaluation procedure) almost all nodes are idle in almost all
rounds -- a wavefront of O(1) nodes does the work -- so the dense policy
spends Theta(n * rounds) scheduler time where Theta(activations) suffices.

Two policies ship:

* :class:`SparseScheduler` -- the production policy, event-driven: after
  round 0 (where every node runs, so initiators can start the algorithm)
  a node runs only when its inbox is non-empty, when it explicitly asked
  to be woken via the :meth:`repro.congest.node.NodeAlgorithm.wake_next_round`
  / :meth:`~repro.congest.node.NodeAlgorithm.wake_at` API, or when it
  restarts after a crash.  Idle nodes are never touched.
* :class:`DenseScheduler` -- the reference, kept for the differential
  tests and benchmarks (``Network(graph, scheduler=DenseScheduler())``):
  every node runs every round, exactly the synchronous CONGEST
  definition, and wake requests are no-ops (a node that wants to act at a
  given round can simply look at ``round_number``).

The sparse policy requires algorithms to be *idle-quiescent*: a node whose
``on_round`` is called with an empty inbox and no pending self-wake must
neither send messages nor change state.  All algorithms in this repository
satisfy the contract (the pipelined multi-source BFS and the scheduled
distance waves use self-wakes).  Under that contract the two policies
record the same outcome, including for a run that stalls -- unfinished
nodes but no message in flight, no wake and no restart ahead: the dense
policy spins to the round cap, the sparse policy raises the same
:class:`repro.congest.errors.RoundLimitExceededError` at once.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from repro.congest.errors import RoundLimitExceededError
from repro.graphs.graph import NodeId
from repro.graphs.indexed import IndexedGraph


class Scheduler:
    """Base class of the scheduling policies.

    A scheduler is owned by one network and recycled across runs;
    :meth:`begin_run` resets its per-run state.  A nested run on the
    same network gets a fresh ``type(scheduler)()``.
    """

    #: Whether the engine should drain self-wake requests after each
    #: ``on_round`` call.  Dense scheduling ignores wakes, so the engine
    #: skips the drain entirely in its hot loop.
    uses_wakes: bool = False

    def begin_run(
        self,
        algorithms: Mapping[NodeId, Any],
        indexed: Optional[IndexedGraph] = None,
        restarts: Optional[Mapping[NodeId, int]] = None,
    ) -> None:
        """Reset per-run state; ``algorithms`` fixes the node universe.

        ``indexed`` is the compiled CSR view of the topology when the
        engine has one: schedulers prebind its frozen ``labels`` tuple
        and label->index map instead of rebuilding them from
        ``algorithms`` on every run.  The node universes are identical
        by construction (the engine builds ``algorithms`` from the same
        graph); ``indexed=None`` keeps the standalone behaviour for
        direct scheduler use.  ``restarts`` maps each node that restarts
        after a crash to its restart round (the fault plan's
        ``restart_round``; ``None``: no restarts); the node must run in
        that round.
        """
        raise NotImplementedError

    def all_nodes(self) -> Optional[Sequence[NodeId]]:
        """The exact sequence object :meth:`active_nodes` returns for an
        every-node round, or ``None`` if unknown.

        The engine compares the active sequence against this object *by
        identity* to skip the per-node ``algorithms[node]`` dict lookups
        on full rounds (every dense round, round 0 under sparse)."""
        return None

    def active_nodes(
        self, round_number: int, inboxes: Mapping[NodeId, Any]
    ) -> Sequence[NodeId]:
        """The nodes to run in ``round_number``, in a deterministic order.

        ``inboxes`` is the sparse inbox map: it contains exactly the nodes
        that received at least one message in the previous round.
        """
        raise NotImplementedError

    def request_wakes(
        self,
        earliest: int,
        requests: Iterable[Tuple[NodeId, Sequence[Optional[int]]]],
    ) -> None:
        """Schedule one round's self-wakes.

        ``requests`` holds ``(node, rounds)`` pairs: each entry of
        ``rounds`` asks to run ``node`` in that absolute round, or, if
        ``None``, in round ``earliest``; a round before ``earliest`` is
        clamped to it.  The engine calls this once per round with the
        requests drained after that round's ``on_round`` calls
        (``earliest`` is the next round), and once before round 0 with
        the requests made at construction (``earliest`` 0).
        """

    def has_scheduled_wakes(self) -> bool:
        """Whether any future self-wake is pending (termination input)."""
        return False

    def check_quiescent(self, max_rounds: int, messages_sent: int) -> None:
        """Called when no messages are in flight, no wakes are scheduled,
        no restart is ahead and some node has not finished.  Dense
        scheduling keeps spinning (a node may act on a later
        ``round_number``) until the round cap ``max_rounds`` aborts the
        run.  ``messages_sent`` is the run's message count so far."""


class DenseScheduler(Scheduler):
    """The reference policy: every node runs every round."""

    uses_wakes = False

    def __init__(self) -> None:
        self._nodes: Sequence[NodeId] = []

    def begin_run(
        self,
        algorithms: Mapping[NodeId, Any],
        indexed: Optional[IndexedGraph] = None,
        restarts: Optional[Mapping[NodeId, int]] = None,
    ) -> None:
        # The compiled view's frozen labels tuple spares the O(n) copy.
        self._nodes = indexed.labels if indexed is not None else list(algorithms)

    def active_nodes(
        self, round_number: int, inboxes: Mapping[NodeId, Any]
    ) -> Sequence[NodeId]:
        return self._nodes

    def all_nodes(self) -> Optional[Sequence[NodeId]]:
        return self._nodes


class SparseScheduler(Scheduler):
    """Event-driven policy: only nodes with work to do run.

    A node is scheduled in round ``t > 0`` iff it received a message in
    round ``t - 1``, a self-wake was requested for ``t`` or it restarts
    at ``t``.  Round 0 runs every node (any node may be an initiator).
    Scheduling is O(active) per round; the active set is ordered by the
    node order of the graph so that executions remain deterministic and
    match the dense policy.  Restarts join the active set without
    entering a wake bucket, so they never keep a finished network
    running.
    """

    uses_wakes = True

    def __init__(self) -> None:
        self._nodes: Sequence[NodeId] = []
        self._order: Dict[NodeId, int] = {}
        self._wakes: Dict[int, Set[NodeId]] = {}
        self._restarts: Dict[int, Set[NodeId]] = {}

    def begin_run(
        self,
        algorithms: Mapping[NodeId, Any],
        indexed: Optional[IndexedGraph] = None,
        restarts: Optional[Mapping[NodeId, int]] = None,
    ) -> None:
        if indexed is not None:
            # Prebound CSR order: the frozen labels tuple and the
            # label->index map are shared with the view (no per-run
            # rebuild of either).
            self._nodes = indexed.labels
            self._order = indexed.index_of
        else:
            self._nodes = list(algorithms)
            self._order = {node: index for index, node in enumerate(self._nodes)}
        self._wakes = {}
        self._restarts = {}
        for node, at in (restarts or {}).items():
            self._restarts.setdefault(at, set()).add(node)

    def active_nodes(
        self, round_number: int, inboxes: Mapping[NodeId, Any]
    ) -> Sequence[NodeId]:
        woken = self._wakes.pop(round_number, None)
        if self._restarts:
            restarting = self._restarts.pop(round_number, None)
            if restarting:
                woken = restarting if not woken else woken | restarting
        if round_number == 0:
            return self._nodes
        if not woken:
            if len(inboxes) <= 1:
                return list(inboxes)
            return sorted(inboxes, key=self._order.__getitem__)
        active = set(inboxes)
        active.update(woken)
        return sorted(active, key=self._order.__getitem__)

    def all_nodes(self) -> Optional[Sequence[NodeId]]:
        # Round 0 returns self._nodes verbatim, so the engine's identity
        # check gives the full-round fast path there too.
        return self._nodes

    def request_wakes(
        self,
        earliest: int,
        requests: Iterable[Tuple[NodeId, Sequence[Optional[int]]]],
    ) -> None:
        wakes = self._wakes
        for node, rounds in requests:
            for at in rounds:
                if at is None or at < earliest:
                    at = earliest
                bucket = wakes.get(at)
                if bucket is None:
                    bucket = wakes[at] = set()
                bucket.add(node)

    def has_scheduled_wakes(self) -> bool:
        return bool(self._wakes)

    def check_quiescent(self, max_rounds: int, messages_sent: int) -> None:
        # Nothing can run again, so raise now what the dense policy raises
        # when its idle spin reaches the cap: the outcome, not the work.
        raise RoundLimitExceededError.for_run(
            max_rounds, max_rounds, messages_sent
        )
