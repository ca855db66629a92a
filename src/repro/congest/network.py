"""The round-synchronous CONGEST network simulator.

:class:`Network` wraps a :class:`repro.graphs.graph.Graph` and executes
per-node :class:`repro.congest.node.NodeAlgorithm` state machines in
synchronous rounds, delivering messages with a one-round latency and
accounting for rounds, messages, bits, per-edge bandwidth and per-node
memory (see :mod:`repro.congest.metrics`).

Execution engine.  ``Network`` is a thin facade: the round loop itself
lives in :class:`repro.engine.engine.ExecutionEngine`, which composes a
*scheduler* (which nodes run each round) and a *transport* (message
delivery, bandwidth policy and message accounting, with a payload-size
memo cache), and accounts every run inline; observers attached with
:meth:`Network.add_observer` are opt-in.  Every network runs the
event-driven :class:`repro.engine.SparseScheduler`, which skips idle
nodes entirely -- asymptotically faster for the paper's BFS-wave
algorithms.  ``Network(graph, scheduler=DenseScheduler())`` runs every
node every round instead; it is the reference the differential tests
hold the sparse policy to, with identical results and metrics for
idle-quiescent algorithms (see :mod:`repro.engine.scheduler`).

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

import math
import random
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.congest.metrics import ExecutionMetrics
from repro.congest.node import NodeAlgorithm
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


@dataclass
class ExecutionResult:
    """Outcome of running one distributed algorithm to completion."""

    results: Dict[NodeId, Any]
    metrics: ExecutionMetrics
    traffic: Optional[list] = None

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
        The :class:`repro.engine.Scheduler` instance of this network's
        engine; ``None`` (the production path) is a fresh
        :class:`repro.engine.SparseScheduler`.  Tests and benchmarks pass
        a :class:`repro.engine.DenseScheduler` as the reference.
    fault_model:
        The :class:`repro.faults.FaultModel` injected into every run of
        this network (seeded message loss/delay, node crash/restart and
        edge churn), kept as :attr:`fault_model`.  ``None`` is the null
        model, byte-identical to the fault-free simulator.
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
        # fast path and warms the cached view the engine binds per run.
        if not graph.compile().is_connected():
            raise ValueError("the CONGEST network topology must be connected")
        self.graph = graph
        self.num_nodes = graph.num_nodes
        if bandwidth_bits is None:
            bandwidth_bits = BANDWIDTH_LOG_FACTOR * max(
                1, math.ceil(math.log2(self.num_nodes + 1))
            )
        if bandwidth_bits < 1:
            raise ValueError(f"bandwidth must be >= 1 bit, got {bandwidth_bits}")
        self.bandwidth_bits = bandwidth_bits
        self.strict_bandwidth = strict_bandwidth
        self._seed = seed if seed is not None else 0
        #: :meth:`node_seed` per node; ``_seed`` is fixed here, so a
        #: memoised value never goes stale.
        self._node_seeds: Dict[NodeId, int] = {}

        # Imported lazily: repro.engine depends on the sibling congest
        # modules, so a module-level import here would be circular.
        from repro.engine import ExecutionEngine, Scheduler, SparseScheduler

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
        self._engine = ExecutionEngine(self, scheduler)

    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The underlying :class:`repro.engine.engine.ExecutionEngine`."""
        return self._engine

    def add_observer(self, observer) -> None:
        """Attach a persistent :class:`repro.engine.MetricsObserver`.

        The observer is notified of the start and end of every subsequent
        *top-level* ``run`` of this network, and of every message if it
        overrides ``on_message`` -- e.g. the stitched traffic recorder of
        the Theorem-10 two-party reduction.
        Nested (re-entrant) runs are not reported, so cross-run accounting
        like the stitched transcript stays sequential.
        """
        self._engine.observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Detach an observer previously added with :meth:`add_observer`."""
        self._engine.observers.remove(observer)

    # ------------------------------------------------------------------
    def neighbors(self, node: NodeId):
        """Neighbours of ``node`` as a cached tuple from the compiled view.

        Algorithm factories should use this instead of
        ``network.graph.neighbors(node)``: the tuple is prebound on the
        CSR view (no per-call list copy) and stays valid for the
        network's lifetime -- the topology of a network is static.  It
        is also the tuple the transport recognises, by identity, as the
        targets of a node's :meth:`~repro.congest.node.NodeAlgorithm.broadcast`.
        """
        return self.graph.compile().neighbors(node)

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

        Delegates to the network's execution engine.

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
            ``(round, sender, receiver, bits)`` tuples.  The two-party
            reduction of Theorem 10 uses it to measure how many bits cross
            the cut of a gadget graph in each round.

        Returns
        -------
        ExecutionResult
            Per-node results (``algorithm.result()``) and execution metrics.
        """
        return self._engine.run(
            factory,
            max_rounds=max_rounds,
            exact_rounds=exact_rounds,
            record_traffic=record_traffic,
        )
