"""The execution engine: one synchronous CONGEST round loop.

:class:`ExecutionEngine` is the round loop that used to live inline in
``Network.run``.  It composes two components:

* a :class:`repro.engine.scheduler.Scheduler` decides *which* nodes run in
  each round (the production sparse policy: only nodes with messages,
  self-wakes or a restart; the dense reference: all);
* a :class:`repro.engine.transport.Transport` moves messages -- neighbour
  validation, memoised size measurement, bandwidth policy, message
  accounting, delivery.

Each round, every scheduled node reads its inbox, computes and hands its
outbox to the transport.  The core accounting (rounds, messages, bits,
the per-edge maximum, violations, the memory high-water mark) is done
inline into the run's own :class:`repro.congest.metrics.ExecutionMetrics`,
so nested runs stay separate.  Observers
(:mod:`repro.engine.observers`) see run boundaries, and per-message events
only when they override ``on_message``.

Faults are one branch of the same loop.  A network built with a non-null
:class:`repro.faults.FaultModel` resolves a per-run
:class:`repro.faults.FaultPlan`; the loop then merges delayed arrivals,
counts churn, skips down nodes, hands the restart rounds to the
scheduler and clamps the round cap to the model's ``timeout``, and the
transport asks the plan for each message's fate.  The null model
resolves no plan, so its runs are byte-identical to the fault-free
simulator.

Internally the engine represents inboxes *sparsely*: the inbox mapping of a
round contains exactly the nodes that received at least one message, so
with the sparse scheduler the per-round cost is O(active + messages)
rather than O(n).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.congest.errors import RoundLimitExceededError
from repro.congest.metrics import ExecutionMetrics
from repro.congest.node import Broadcast, Inbox, NodeAlgorithm
from repro.engine.observers import MetricsObserver, TrafficLogObserver
from repro.engine.scheduler import Scheduler
from repro.engine.transport import Transport
from repro.graphs.graph import NodeId

class ExecutionEngine:
    """Drives per-node state machines in synchronous rounds.

    Parameters
    ----------
    network:
        The owning :class:`repro.congest.network.Network` (supplies the
        topology, bandwidth configuration and per-node RNGs to factories).
    scheduler:
        The scheduling policy.
    transport:
        Message delivery; built from the network's configuration when not
        given.  The transport's payload-size memo cache persists across the
        runs of one network.

    :attr:`observers` holds the persistent observers
    (:meth:`repro.congest.network.Network.add_observer`), notified on
    every top-level run in addition to the per-run traffic log.
    """

    def __init__(
        self,
        network: Any,
        scheduler: Scheduler,
        transport: Optional[Transport] = None,
    ) -> None:
        self.network = network
        self.scheduler = scheduler
        if transport is None:
            transport = Transport(
                network.graph, network.bandwidth_bits, network.strict_bandwidth
            )
        self.transport = transport
        self.observers: List[MetricsObserver] = []
        self._run_depth = 0
        # Per-engine counter of fault-aware runs: each run of a faulty
        # network salts its fault stream with this index, so multi-phase
        # algorithms (one ``run`` per phase) draw fresh, reproducible
        # fault patterns per phase instead of replaying round-0 fates.
        self._fault_runs = 0

    # ------------------------------------------------------------------
    def run(
        self,
        factory: Callable[[NodeId, Any], NodeAlgorithm],
        max_rounds: Optional[int] = None,
        exact_rounds: Optional[int] = None,
        record_traffic: bool = False,
    ):
        """Run one distributed algorithm to completion.

        See :meth:`repro.congest.network.Network.run` for the parameter
        documentation.  Re-entrant: a nested ``run`` on the same network
        (e.g. a factory or callback simulating a sub-protocol) gets its own
        scheduler instance so the outer run's state survives.
        """
        network = self.network
        if max_rounds is None:
            max_rounds = network.default_max_rounds()

        algorithms: Dict[NodeId, NodeAlgorithm] = {
            node: factory(node, network) for node in network.graph.nodes()
        }

        if self._run_depth == 0:
            scheduler = self.scheduler
        else:
            scheduler = type(self.scheduler)()
        self._run_depth += 1
        try:
            return self._run_loop(
                network, algorithms, scheduler, max_rounds, exact_rounds,
                record_traffic,
            )
        finally:
            self._run_depth -= 1

    def _run_loop(
        self,
        network,
        algorithms: Dict[NodeId, NodeAlgorithm],
        scheduler: Scheduler,
        max_rounds: int,
        exact_rounds: Optional[int],
        record_traffic: bool,
    ):
        from repro.congest.network import ExecutionResult

        metrics = ExecutionMetrics(bandwidth_limit_bits=network.bandwidth_bits)
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
        # ``strict_bandwidth`` are honoured, as in the pre-engine simulator.
        # The topology is re-compiled the same way: ``compile()`` returns
        # the cached CSR view unless the graph was mutated since the last
        # run, in which case transport and scheduler rebind fresh state.
        transport = self.transport
        transport.bandwidth_bits = network.bandwidth_bits
        transport.strict_bandwidth = network.strict_bandwidth
        indexed = network.graph.compile()
        transport.bind_topology(indexed)

        # The fault layer is a per-round branch plus a delivery filter,
        # both keyed on ``plan is not None``; the null model resolves no
        # plan, which keeps it byte-identical to the fault-free simulator.
        plan = None
        has_crashes = has_churn = False
        fault_model = network.fault_model
        if not fault_model.is_null:
            plan = fault_model.resolve(network._seed, indexed, self._fault_runs)
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

        cache_misses_before = transport.cache_misses
        cache_overflows_before = transport.cache_overflows

        scheduler.begin_run(
            algorithms, indexed, None if plan is None else plan.restart_round
        )
        uses_wakes = scheduler.uses_wakes

        finished_state: Dict[NodeId, bool] = {}
        unfinished = 0
        for node, algorithm in algorithms.items():
            finished = algorithm.finished
            finished_state[node] = finished
            if not finished:
                unfinished += 1
            # Wakes requested during construction (e.g. a wave source that
            # knows its start round up-front).
            requests = algorithm.consume_wake_requests()
            if uses_wakes and requests:
                for request in requests:
                    scheduler.request_wake(
                        node, 0 if request is None else max(0, request)
                    )

        for observer in observers:
            observer.on_run_start(network)

        # Hot-loop bindings: the attribute lookups below run O(active)
        # times per round, so they are hoisted out of the loop.  Consumed
        # inbox dicts are recycled through ``inbox_pool`` instead of being
        # reallocated every round; an inbox is therefore only valid for the
        # duration of the ``on_round`` call it is passed to (see
        # :class:`repro.congest.node.NodeAlgorithm`).
        deliver = transport.deliver
        active_nodes = scheduler.active_nodes
        request_wake = scheduler.request_wake
        has_scheduled_wakes = scheduler.has_scheduled_wakes
        inbox_pool: list = []
        peak_memory = 0
        # Full-round fast path: when the scheduler hands back its
        # every-node sequence (identity check), iterate the prezipped
        # (node, algorithm) pairs instead of one dict lookup per node --
        # this removes O(n) hash probes per dense round.
        full_sequence = scheduler.all_nodes()
        algorithm_pairs = list(algorithms.items())

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
                        inbox = inbox_pool.pop() if inbox_pool else {}
                        inboxes[target] = inbox
                    inbox.setdefault(sender, payload)

            if exact_rounds is not None and round_number >= exact_rounds:
                break
            if exact_rounds is None and round_number > 0:
                # In-flight delayed messages keep the run alive in every
                # termination check.
                if not inboxes and not has_scheduled_wakes() and not pending:
                    if unfinished == 0:
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
                items = [(node, algorithms[node]) for node in active]
            if has_churn:
                churned_edge_rounds += len(plan.churned_edges(round_number))

            next_inboxes: Dict[NodeId, Inbox] = {}
            inboxes_get = inboxes.get
            for node, algorithm in items:
                inbox = inboxes_get(node)
                if inbox is None:
                    inbox = inbox_pool.pop() if inbox_pool else {}
                outbox = algorithm.on_round(round_number, inbox)
                # A broadcast is tested by its targets tuple: its own
                # truth test is a Python-level ``__len__`` call.
                if outbox.targets if outbox.__class__ is Broadcast else outbox:
                    deliver(
                        round_number, node, outbox, next_inboxes, inbox_pool,
                        metrics, listeners, plan, pending,
                    )
                # Recycle the consumed inbox (after delivery, in case the
                # algorithm returned its inbox as the outbox).  Contract
                # (see NodeAlgorithm.on_round): the inbox is engine-owned
                # and must not be retained or sent as a payload.
                if inbox:
                    inbox.clear()
                inbox_pool.append(inbox)
                memory = algorithm.memory_bits()
                if memory is not None and memory > peak_memory:
                    peak_memory = memory
                finished = algorithm.finished
                if finished != finished_state[node]:
                    finished_state[node] = finished
                    unfinished += -1 if finished else 1
                # Drain wake requests on every engine so they cannot pile up
                # across the run; only wake-aware schedulers act on them.
                if getattr(algorithm, "_wake_requests", None):
                    requests = algorithm.consume_wake_requests()
                    if uses_wakes:
                        for request in requests:
                            request_wake(
                                node,
                                round_number + 1
                                if request is None
                                else max(request, round_number + 1),
                            )

            round_number += 1
            inboxes = next_inboxes

        metrics.rounds = round_number
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
        # The transport charges each delivered message exactly one
        # measurement (a whole-neighbourhood send measures its payload once
        # and charges the other copies what measuring them would), so the
        # cache hits of this run are the messages that were not misses
        # (clamped: a nested run's misses land in this delta while its
        # messages do not).
        misses = transport.cache_misses - cache_misses_before
        metrics.size_cache_misses = misses
        metrics.size_cache_hits = max(0, metrics.messages - misses)
        metrics.size_cache_overflows = (
            transport.cache_overflows - cache_overflows_before
        )
        for observer in observers:
            observer.on_run_end(metrics)
        results = {node: algorithm.result() for node, algorithm in algorithms.items()}
        return ExecutionResult(
            results=results,
            metrics=metrics,
            traffic=traffic_log.traffic if traffic_log is not None else None,
        )

