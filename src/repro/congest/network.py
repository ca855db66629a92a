"""The round-synchronous CONGEST network simulator.

:class:`Network` wraps a :class:`repro.graphs.graph.Graph` and executes
per-node :class:`repro.congest.node.NodeAlgorithm` state machines in
synchronous rounds, delivering messages with a one-round latency and
accounting for rounds, messages, bits, per-edge bandwidth and per-node
memory (see :mod:`repro.congest.metrics`).

Round loop.  :meth:`Network.run` is the one round loop.  It composes two
components of :mod:`repro.engine`:

* a *scheduler* (:mod:`repro.engine.scheduler`) decides which nodes run
  each round.  Every network runs the event-driven
  :class:`repro.engine.SparseScheduler`, which skips idle nodes entirely
  -- asymptotically faster for the paper's BFS-wave algorithms.
  ``Network(graph, scheduler=DenseScheduler())`` runs every node every
  round instead; it is the reference the differential tests hold the
  sparse policy to, with identical results and metrics for
  idle-quiescent algorithms;
* a *transport* (:mod:`repro.engine.transport`) moves messages --
  neighbour validation, size measurement, bandwidth policy, message
  accounting and delivery.

Each round, every scheduled node reads its inbox and computes its
outbox; the round's outboxes then go to the transport in one pass
(:meth:`repro.engine.Transport.deliver_round`) and the round's self-wake
requests to the scheduler in one call.  The core accounting (rounds,
messages, bits, the per-edge maximum, violations, the memory high-water
mark) goes into the run's own
:class:`repro.congest.metrics.ExecutionMetrics`, so nested runs stay
separate.  The memory high-water mark is read once per node when a run
of at least one round ends: a node's
:meth:`~repro.congest.node.NodeAlgorithm.memory_bits` never decreases
during a run, so its final value is its peak.  Observers attached with
:meth:`Network.add_observer` (:mod:`repro.engine.observers`) are opt-in:
they see run boundaries, and per-message events only when they override
``on_message``.  Inboxes are sparse: the inbox mapping of a round holds
exactly the nodes that received a message, so with the sparse scheduler a
round costs O(active + messages) rather than O(n).

Faults are one branch of the same loop.  A network built with a non-null
:class:`repro.faults.FaultModel` resolves a per-run
:class:`repro.faults.FaultPlan`; the loop then merges delayed arrivals,
counts churn, skips down nodes, hands the restart rounds to the scheduler
and clamps the round cap to the model's ``timeout``, and the transport has
the plan route each message by its fate.  The null model resolves no plan,
so its runs are byte-identical to the fault-free simulator.

Bandwidth.  The CONGEST model allows ``bw = O(log n)`` bits per edge per
round.  By default the simulator uses ``bw = BANDWIDTH_LOG_FACTOR *
ceil(log2(n + 1))`` bits, which is enough for a constant number of node
identifiers and counters per message -- exactly the granularity at which the
paper's algorithms communicate.  In *strict* mode exceeding the budget
raises :class:`repro.congest.errors.BandwidthExceededError`; in non-strict
mode violations are only counted, which the congestion-ablation benchmark
uses to show why the naive (non-pipelined) multi-source BFS breaks the
model.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, List, Optional

from repro._record import Record
from repro.congest.errors import RoundLimitExceededError
from repro.congest.message import log_n_bits
from repro.congest.metrics import ExecutionMetrics
from repro.congest.node import Broadcast, Inbox, NodeAlgorithm
from repro.engine.observers import MetricsObserver, TrafficLogObserver
from repro.engine.scheduler import Scheduler, SparseScheduler
from repro.engine.transport import Transport
from repro.faults import NULL_FAULT_MODEL, FaultModel
from repro.graphs.graph import Graph, NodeId

#: Multiplier applied to ``ceil(log2(n+1))`` to obtain the default bandwidth.
#: The paper allows any O(log n) bandwidth; the constant 16 accommodates a
#: small constant number of identifiers/counters plus framing per message.
BANDWIDTH_LOG_FACTOR = 16

#: Multiplier of ``n + 2`` used for the default round cap.  The natural
#: budget for the paper's algorithms would be ``O(n + D)``, but the diameter
#: ``D`` is not computable up-front (it is exactly what the algorithms set
#: out to measure), so the simulator falls back to a generous multiple of
#: ``n`` -- which dominates ``D`` on a connected graph.  An algorithm that
#: has not terminated after ``DEFAULT_MAX_ROUND_FACTOR * (n + 2)`` rounds is
#: assumed to be stuck and aborted with
#: :class:`repro.congest.errors.RoundLimitExceededError`.
DEFAULT_MAX_ROUND_FACTOR = 64

AlgorithmFactory = Callable[[NodeId, "Network"], NodeAlgorithm]


class ExecutionResult(Record):
    """Outcome of running one distributed algorithm to completion."""

    __slots__ = ("results", "metrics", "traffic")

    _defaults = {"traffic": None}

    @property
    def rounds(self) -> int:
        """Number of rounds the execution used."""
        return self.metrics.rounds


class Network:
    """A CONGEST network over a static topology.

    Parameters
    ----------
    graph:
        The (connected) communication topology.
    bandwidth_bits:
        Per-edge per-round bandwidth budget.  Defaults to
        ``BANDWIDTH_LOG_FACTOR * ceil(log2(n + 1))``.
    strict_bandwidth:
        When true (the default), exceeding the budget raises
        :class:`BandwidthExceededError`; otherwise violations are counted in
        the metrics.
    seed:
        Seed for the per-node pseudo-random generators.
    scheduler:
        The :class:`repro.engine.Scheduler` instance of this network,
        kept as :attr:`scheduler`; ``None`` (the production path) is a
        fresh :class:`repro.engine.SparseScheduler`.  Tests and
        benchmarks pass a :class:`repro.engine.DenseScheduler` as the
        reference.
    fault_model:
        The :class:`repro.faults.FaultModel` injected into every run of
        this network (seeded message loss/delay, node crash/restart and
        edge churn), kept as :attr:`fault_model`.  ``None`` is the null
        model, byte-identical to the fault-free simulator.

    :attr:`transport` is the network's :class:`repro.engine.Transport`.
    :attr:`observers` holds the persistent observers
    (:meth:`add_observer`), notified on every top-level run in addition
    to the per-run traffic log.
    """

    def __init__(
        self,
        graph: Graph,
        bandwidth_bits: Optional[int] = None,
        strict_bandwidth: bool = True,
        seed: Optional[int] = None,
        scheduler=None,
        fault_model=None,
    ) -> None:
        if graph.num_nodes == 0:
            raise ValueError("cannot build a network over an empty graph")
        # Compiling here both performs the connectivity check on the CSR
        # fast path and warms the cached view each run binds.
        indexed = graph.compile()
        if not indexed.is_connected():
            raise ValueError("the CONGEST network topology must be connected")
        self.graph = graph
        self.num_nodes = graph.num_nodes
        if bandwidth_bits is None:
            bandwidth_bits = BANDWIDTH_LOG_FACTOR * log_n_bits(self.num_nodes)
        if bandwidth_bits < 1:
            raise ValueError(f"bandwidth must be >= 1 bit, got {bandwidth_bits}")
        self.bandwidth_bits = bandwidth_bits
        self.strict_bandwidth = strict_bandwidth
        self._seed = seed if seed is not None else 0
        #: :meth:`node_seed` per node; ``_seed`` is fixed here, so a
        #: memoised value never goes stale.
        self._node_seeds: Dict[NodeId, int] = {}
        #: :meth:`neighbors`' table, read from the compiled view it was
        #: taken from (rebound when a graph mutation replaces the view).
        self._neighbors_view = indexed
        self._neighbor_tuples: Dict[NodeId, tuple] = indexed.neighbor_tuples()

        if scheduler is None:
            scheduler = SparseScheduler()
        elif not isinstance(scheduler, Scheduler):
            raise TypeError(
                f"scheduler must be a Scheduler instance, got {scheduler!r}"
            )
        if fault_model is None:
            fault_model = NULL_FAULT_MODEL
        elif not isinstance(fault_model, FaultModel):
            raise TypeError(
                f"fault_model must be a FaultModel instance, got {fault_model!r}"
            )
        self.fault_model = fault_model
        self.scheduler = scheduler
        self.transport = Transport(graph, bandwidth_bits, strict_bandwidth)
        self.observers: List[MetricsObserver] = []
        self._run_depth = 0
        # Per-network counter of fault-aware runs: each run of a faulty
        # network salts its fault stream with this index, so multi-phase
        # algorithms (one ``run`` per phase) draw fresh, reproducible
        # fault patterns per phase instead of replaying round-0 fates.
        self._fault_runs = 0

    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Attach a persistent :class:`repro.engine.MetricsObserver`.

        The observer is notified of the start and end of every subsequent
        *top-level* ``run`` of this network, and of every message if it
        overrides ``on_message`` -- e.g. the stitched traffic recorder of
        the Theorem-10 two-party reduction.
        Nested (re-entrant) runs are not reported, so cross-run accounting
        like the stitched transcript stays sequential.
        """
        self.observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Detach an observer previously added with :meth:`add_observer`."""
        self.observers.remove(observer)

    # ------------------------------------------------------------------
    def neighbors(self, node: NodeId):
        """Neighbours of ``node`` as a cached tuple from the compiled view.

        Algorithm factories should use this instead of
        ``network.graph.neighbors(node)``: the tuple is prebound on the
        CSR view (no per-call list copy) and stays the same object until
        the graph is mutated; the first call after a mutation rebinds
        the table from the graph's fresh view.  It
        is also the tuple the transport recognises, by identity, as the
        targets of a node's :meth:`~repro.congest.node.NodeAlgorithm.broadcast`.
        """
        # A mutation clears the graph's cached view (``Graph._compiled``),
        # so while that view is still the one bound here the table is
        # current without a ``compile()`` call.
        if self.graph._compiled is not self._neighbors_view:
            indexed = self._neighbors_view = self.graph.compile()
            self._neighbor_tuples = indexed.neighbor_tuples()
        return self._neighbor_tuples[node]

    def node_seed(self, node: NodeId) -> int:
        """Deterministic per-node seed: a CRC of the network seed and the
        node identifier.

        A CRC rather than Python's built-in ``hash`` (randomised per
        process for strings), so executions are reproducible across
        processes.  Algorithm factories pass this seed as the node's
        ``rng`` argument; :class:`repro.congest.node.NodeAlgorithm` seeds
        its generator from it on first use only.  Memoised per node, so
        the repeated runs of a network derive each seed once.
        """
        seed = self._node_seeds.get(node)
        if seed is None:
            seed = self._node_seeds[node] = zlib.crc32(
                f"{self._seed}|{node!r}".encode("utf-8")
            )
        return seed

    def node_rng(self, node: NodeId) -> random.Random:
        """Deterministic per-node random generator, seeded with
        :meth:`node_seed`: the stream a node's ``self.rng`` draws."""
        return random.Random(self.node_seed(node))

    def default_max_rounds(self) -> int:
        """A generous round cap used when the caller does not provide one."""
        return DEFAULT_MAX_ROUND_FACTOR * (self.num_nodes + 2)

    # ------------------------------------------------------------------
    def run(
        self,
        factory: AlgorithmFactory,
        max_rounds: Optional[int] = None,
        exact_rounds: Optional[int] = None,
        record_traffic: bool = False,
    ) -> ExecutionResult:
        """Run one distributed algorithm to completion.

        Re-entrant: a nested ``run`` on the same network (e.g. a factory
        or callback simulating a sub-protocol) gets its own scheduler
        instance so the outer run's state survives.  A nested run started
        from a node's ``on_round`` completes before any send of the outer
        round is delivered: the round's sends go out together once every
        scheduled node has run.

        Parameters
        ----------
        factory:
            Called as ``factory(node_id, network)`` to create the per-node
            state machine.
        max_rounds:
            Abort with :class:`RoundLimitExceededError` if the algorithm has
            not finished after this many rounds.
        exact_rounds:
            When given, run exactly this many rounds regardless of the
            nodes' ``finished`` flags (used for fixed-schedule procedures
            such as the Figure-2 Evaluation, whose duration is known to all
            nodes up-front).
        record_traffic:
            When true, the result carries a per-message traffic log of
            ``(round, sender, receiver, bits)`` tuples for this run; tests
            compare it.  The Theorem-10 reduction spans several runs and
            records with :class:`repro.engine.observers.StitchedTrafficObserver`.

        Returns
        -------
        ExecutionResult
            Per-node results (``algorithm.result()``) and execution metrics.
        """
        if max_rounds is None:
            max_rounds = self.default_max_rounds()

        algorithms: Dict[NodeId, NodeAlgorithm] = {
            node: factory(node, self) for node in self.graph.nodes()
        }

        if self._run_depth == 0:
            scheduler = self.scheduler
        else:
            scheduler = type(self.scheduler)()
        self._run_depth += 1
        try:
            return self._run_loop(
                algorithms, scheduler, max_rounds, exact_rounds, record_traffic
            )
        finally:
            self._run_depth -= 1

    def _run_loop(
        self,
        algorithms: Dict[NodeId, NodeAlgorithm],
        scheduler: Scheduler,
        max_rounds: int,
        exact_rounds: Optional[int],
        record_traffic: bool,
    ) -> ExecutionResult:
        metrics = ExecutionMetrics(bandwidth_limit_bits=self.bandwidth_bits)
        traffic_log = TrafficLogObserver() if record_traffic else None
        # Persistent observers see only top-level runs: interleaving a
        # nested run's events would corrupt cross-run accounting such as
        # the stitched traffic transcript's sequential round re-basing.
        observers = list(self.observers) if self._run_depth == 1 else []
        # Per-message calls are opt-in: only observers whose class
        # overrides ``on_message`` are handed to the transport.
        listeners = [
            observer.on_message
            for observer in [traffic_log, *observers]
            if observer is not None
            and type(observer).on_message is not MetricsObserver.on_message
        ]

        # The bandwidth policy is re-read from the network on every run so
        # that post-construction mutations of ``bandwidth_bits`` /
        # ``strict_bandwidth`` are honoured.
        # The topology is re-compiled the same way: ``compile()`` returns
        # the cached CSR view unless the graph was mutated since the last
        # run, in which case transport and scheduler rebind fresh state.
        transport = self.transport
        transport.bandwidth_bits = self.bandwidth_bits
        transport.strict_bandwidth = self.strict_bandwidth
        indexed = self.graph.compile()
        transport.bind_topology(indexed)

        # The fault layer is a per-round branch plus a delivery filter,
        # both keyed on ``plan is not None``; the null model resolves no
        # plan, which keeps it byte-identical to the fault-free simulator.
        plan = None
        has_crashes = has_churn = False
        fault_model = self.fault_model
        if not fault_model.is_null:
            plan = fault_model.resolve(self._seed, indexed, self._fault_runs)
            self._fault_runs += 1
            if fault_model.timeout is not None:
                max_rounds = min(max_rounds, fault_model.timeout)
            has_crashes = bool(plan.crash_round)
            has_churn = fault_model.churn > 0.0
            node_down = plan.node_down
        #: In-flight delayed messages: arrival round -> [(sender, target,
        #: payload)] in delivery order.  Stays empty without a plan.
        pending: Dict[int, list] = {}
        churned_edge_rounds = 0

        scheduler.begin_run(
            algorithms, indexed, None if plan is None else plan.restart_round
        )
        uses_wakes = scheduler.uses_wakes

        # Wakes requested during construction (e.g. a wave source that
        # knows its start round up-front).
        wakes: list = []
        for node, algorithm in algorithms.items():
            requests = algorithm._wake_requests
            if requests:
                algorithm._wake_requests = []
                wakes.append((node, requests))
        if wakes:
            if uses_wakes:
                scheduler.request_wakes(0, wakes)
            wakes.clear()

        for observer in observers:
            observer.on_run_start(self)

        # Hot-loop bindings: the attribute lookups below run O(active)
        # times per round, so they are hoisted out of the loop.
        deliver_round = transport.deliver_round
        active_nodes = scheduler.active_nodes
        request_wakes = scheduler.request_wakes
        has_scheduled_wakes = scheduler.has_scheduled_wakes
        # Full-round fast path: when the scheduler hands back its
        # every-node sequence (identity check), iterate the prezipped
        # (node, algorithm) pairs instead of one dict lookup per node --
        # this removes O(n) hash probes per dense round.
        full_sequence = scheduler.all_nodes()
        algorithm_pairs = list(algorithms.items())
        #: The round's ``(node, outbox)`` sends, handed to the transport in
        #: one pass after every scheduled node has run.
        sends: list = []
        sends_append = sends.append
        wakes_append = wakes.append

        inboxes: Dict[NodeId, Inbox] = {}
        round_number = 0
        while True:
            if plan is not None:
                # Delayed deliveries scheduled for this round re-enter the
                # inboxes before any termination check or scheduling
                # decision.  ``setdefault``: an on-time message from the
                # same sender was sent later and wins over a delayed
                # (older) one; among delayed messages the earliest-sent
                # wins.
                for sender, target, payload in pending.pop(round_number, ()):
                    inbox = inboxes.get(target)
                    if inbox is None:
                        inbox = inboxes[target] = {}
                    inbox.setdefault(sender, payload)

            if exact_rounds is not None and round_number >= exact_rounds:
                break
            if exact_rounds is None and round_number > 0:
                # In-flight delayed messages keep the run alive in every
                # termination check.
                if not inboxes and not has_scheduled_wakes() and not pending:
                    # A node's ``finished`` flag changes only in its own
                    # ``on_round`` (or constructor), so it is read here,
                    # once the network is quiet, not after every call.
                    if all(algorithm.finished for algorithm in algorithms.values()):
                        break
                    # A restart still ahead may produce new work.
                    if plan is None or not plan.restarts_pending(round_number):
                        scheduler.check_quiescent(max_rounds, metrics.messages)
            if round_number >= max_rounds:
                raise RoundLimitExceededError.for_run(
                    max_rounds, round_number, metrics.messages
                )

            active = active_nodes(round_number, inboxes)
            if has_crashes:
                # Down nodes neither run nor drain their wakes (fail-pause);
                # their inboxes are already empty -- the transport drops
                # messages whose receiver is down at arrival.
                items = [
                    (node, algorithms[node])
                    for node in active
                    if not node_down(round_number, node)
                ]
            elif active is full_sequence:
                items = algorithm_pairs
            else:
                items = zip(active, map(algorithms.__getitem__, active))
            if has_churn:
                churned_edge_rounds += len(plan.churned_edges(round_number))

            next_inboxes: Dict[NodeId, Inbox] = {}
            inboxes_get = inboxes.get
            for node, algorithm in items:
                inbox = inboxes_get(node)
                if inbox is None:
                    inbox = {}
                outbox = algorithm.on_round(round_number, inbox)
                # A broadcast is tested by its targets tuple: its own
                # truth test is a Python-level ``__len__`` call.
                if outbox.targets if outbox.__class__ is Broadcast else outbox:
                    sends_append((node, outbox))
                # Drain wake requests under every scheduler so they cannot
                # pile up across the run; only wake-aware schedulers act on
                # them, in one call per round.
                requests = algorithm._wake_requests
                if requests:
                    algorithm._wake_requests = []
                    wakes_append((node, requests))

            if sends:
                deliver_round(
                    round_number, sends, next_inboxes, metrics, listeners,
                    plan, pending,
                )
                sends.clear()
            if wakes:
                if uses_wakes:
                    request_wakes(round_number + 1, wakes)
                wakes.clear()
            round_number += 1
            inboxes = next_inboxes

        metrics.rounds = round_number
        if round_number:
            # Every node ran in round 0 (both schedulers run all of them,
            # and no crash starts before round 1), and a node's footprint
            # never decreases during a run (the ``memory_bits`` contract),
            # so its value now is its peak: one read per node per run.
            peak_memory = 0
            for algorithm in algorithms.values():
                memory = algorithm.memory_bits()
                if memory is not None and memory > peak_memory:
                    peak_memory = memory
            metrics.max_node_memory_bits = peak_memory
        if plan is not None:
            # Crash and restart events fire at the top of their round, so
            # exactly the events of the rounds that ran have happened.
            metrics.node_crashes = sum(
                1 for at in plan.crash_round.values() if at < round_number
            )
            metrics.node_restarts = sum(
                1 for at in plan.restart_round.values() if at < round_number
            )
            metrics.churned_edge_rounds = churned_edge_rounds
        for observer in observers:
            observer.on_run_end(metrics)
        results = {node: algorithm.result() for node, algorithm in algorithms.items()}
        return ExecutionResult(
            results=results,
            metrics=metrics,
            traffic=traffic_log.traffic if traffic_log is not None else None,
        )

