"""Theorem 1: quantum exact diameter computation in ``O~(sqrt(n D))`` rounds.

The algorithm (Section 3) instantiates the distributed quantum optimization
framework of Theorem 7 with:

* **Initialization** -- elect a leader, build ``BFS(leader)`` (Figure 1),
  compute ``d = ecc(leader)`` and broadcast it: ``O(D)`` rounds;
* **Setup** -- broadcast the internal register over ``BFS(leader)`` with
  CNOT copies (Proposition 2): ``O(D)`` rounds;
* **Evaluation** -- two variants:

  - the *simple* variant of Section 3.1 evaluates ``f(u0) = ecc(u0)``
    (``P_opt >= 1/n``, total ``O~(sqrt(n) * D)`` rounds);
  - the *final* variant of Section 3.2 evaluates
    ``f(u0) = max_{v in S(u0)} ecc(v)`` with the Figure-2 procedure
    (``P_opt >= d / 2n``, total ``O~(sqrt(n d)) = O~(sqrt(n D))`` rounds).

Both variants are simulated exactly: the amplitude-amplification schedule
(including its failure probability) is reproduced faithfully, the classical
distributed procedures are actually executed on the CONGEST simulator, and
the reported rounds follow Theorem 7's accounting
``T0 + (#Setup + #Evaluation calls) * T``.

Two oracle modes control how branch values ``f(u0)`` are obtained:

* ``"congest"`` runs the Figure-2 Evaluation procedure on the simulator for
  every distinct ``u0`` the schedule touches (slow but end-to-end);
* ``"reference"`` computes the same values from the sequential distance
  oracle (after verifying the window sets with the same Euler tour), and
  measures the per-call cost from one representative CONGEST run.  The two
  modes return identical values; the test-suite checks this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.algorithms.bfs import BFSTreeResult, run_bfs_tree
from repro.algorithms.broadcast import run_tree_aggregate_max, run_tree_broadcast
from repro.algorithms.eccentricity import run_eccentricity
from repro.algorithms.evaluation import run_evaluation_procedure
from repro.algorithms.leader_election import run_leader_election
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.core.coverage import popt_lower_bound, window_set
from repro.graphs.graph import Graph, NodeId
from repro.qcongest.framework import (
    DistributedOptimizationResult,
    DistributedSearchProblem,
    run_distributed_quantum_optimization,
)
from repro.qcongest.setup import run_setup_broadcast
from repro.quantum.cost_model import QuantumResourceCount, leader_memory_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.backend import ScheduleBackend

#: Evaluation variants.
VARIANT_SIMPLE = "simple"
VARIANT_WINDOWED = "windowed"

#: Oracle modes.
ORACLE_CONGEST = "congest"
ORACLE_REFERENCE = "reference"


@dataclass
class QuantumDiameterResult:
    """Outcome of the quantum exact-diameter algorithm."""

    diameter: int
    leader: NodeId
    window_parameter: int
    variant: str
    counts: QuantumResourceCount
    metrics: ExecutionMetrics
    optimization: DistributedOptimizationResult

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds used."""
        return self.metrics.rounds

    @property
    def memory_bits_per_node(self) -> int:
        """Maximum per-node (qu)bit memory observed / modelled."""
        return self.metrics.max_node_memory_bits


class ExactDiameterProblem(DistributedSearchProblem):
    """The Theorem-1 instantiation of the Theorem-7 framework."""

    def __init__(
        self,
        network: Network,
        variant: str = VARIANT_WINDOWED,
        oracle_mode: str = ORACLE_CONGEST,
        leader: Optional[NodeId] = None,
    ) -> None:
        if variant not in (VARIANT_SIMPLE, VARIANT_WINDOWED):
            raise ValueError(f"unknown variant {variant!r}")
        if oracle_mode not in (ORACLE_CONGEST, ORACLE_REFERENCE):
            raise ValueError(f"unknown oracle mode {oracle_mode!r}")
        self.network = network
        self.variant = variant
        self.oracle_mode = oracle_mode
        self._given_leader = leader
        self.leader: Optional[NodeId] = None
        self.tree: Optional[BFSTreeResult] = None
        self.window_parameter: int = 0
        self._reference_eccentricities: Optional[Dict[NodeId, int]] = None
        self._reference_cost: Optional[ExecutionMetrics] = None
        self._setup_cost: Optional[ExecutionMetrics] = None

    # ------------------------------------------------------------------
    def initialization(self) -> ExecutionMetrics:
        """Leader election, ``BFS(leader)``, ``d = ecc(leader)``, broadcast of ``d``."""
        metrics = ExecutionMetrics()
        if self._given_leader is None:
            election = run_leader_election(self.network)
            self.leader = election.leader
            metrics = metrics.merged(election.metrics)
        else:
            self.leader = self._given_leader

        self.tree = run_bfs_tree(self.network, self.leader)
        metrics = metrics.merged(self.tree.metrics)

        eccentricity = run_tree_aggregate_max(
            self.network, self.tree, self.tree.distance
        )
        metrics = metrics.merged(eccentricity.metrics)
        self.window_parameter = max(1, eccentricity.value)

        announce = run_tree_broadcast(
            self.network, self.tree, ("d-is", self.window_parameter)
        )
        metrics = metrics.merged(announce.metrics)
        metrics.record_phase("initialization", metrics.rounds)
        return metrics

    # ------------------------------------------------------------------
    def search_space(self) -> List[NodeId]:
        return list(self.network.graph.nodes())

    def setup_amplitudes(self) -> Dict[NodeId, float]:
        nodes = self.search_space()
        weight = 1.0 / (len(nodes) ** 0.5)
        return {node: weight for node in nodes}

    def setup_cost(self) -> ExecutionMetrics:
        if self._setup_cost is None:
            metrics, _ = run_setup_broadcast(self.network, self.tree, self.tree.root)
            self._setup_cost = metrics
        return self._setup_cost

    # ------------------------------------------------------------------
    def evaluate(self, item: NodeId) -> Tuple[float, ExecutionMetrics]:
        if self.tree is None:
            raise RuntimeError("initialization must run before evaluation")
        if self.variant == VARIANT_SIMPLE:
            return self._evaluate_simple(item)
        return self._evaluate_windowed(item)

    def _evaluate_simple(self, u0: NodeId) -> Tuple[float, ExecutionMetrics]:
        if self.oracle_mode == ORACLE_CONGEST:
            eccentricity = run_eccentricity(self.network, u0)
            metrics = eccentricity.metrics
            # Routing the result back to the leader costs at most the depth
            # of BFS(leader); we charge it by one extra convergecast.
            report = run_tree_aggregate_max(
                self.network, self.tree,
                {
                    node: (eccentricity.eccentricity if node == u0 else 0)
                    for node in self.network.graph.nodes()
                },
            )
            metrics = metrics.merged(report.metrics)
            return float(eccentricity.eccentricity), metrics
        value = float(self._eccentricities()[u0])
        return value, self._representative_cost()

    def _evaluate_windowed(self, u0: NodeId) -> Tuple[float, ExecutionMetrics]:
        if self.oracle_mode == ORACLE_CONGEST:
            evaluation = run_evaluation_procedure(
                self.network, self.tree, self.window_parameter, u0
            )
            return float(evaluation.value), evaluation.metrics
        eccentricities = self._eccentricities()
        window = window_set(self.tree, u0, 2 * self.window_parameter)
        value = float(max(eccentricities[node] for node in window))
        return value, self._representative_cost()

    # ------------------------------------------------------------------
    def optimum_mass_lower_bound(self) -> float:
        n = self.network.num_nodes
        if self.variant == VARIANT_SIMPLE:
            return 1.0 / n
        return popt_lower_bound(n, self.window_parameter)

    def internal_register_bits(self) -> int:
        return leader_memory_bits(
            self.network.num_nodes, self.optimum_mass_lower_bound()
        )

    # ------------------------------------------------------------------
    def _eccentricities(self) -> Dict[NodeId, int]:
        if self._reference_eccentricities is None:
            indexed = self.network.graph.compile()
            self._reference_eccentricities = indexed.all_eccentricities()
        return self._reference_eccentricities

    def _representative_cost(self) -> ExecutionMetrics:
        """One real CONGEST run of the Evaluation procedure, reused as the
        per-call cost in reference-oracle mode (the procedure has a fixed,
        input-independent schedule)."""
        if self._reference_cost is None:
            if self.variant == VARIANT_SIMPLE:
                sample = run_eccentricity(self.network, self.tree.root)
                self._reference_cost = sample.metrics
            else:
                sample = run_evaluation_procedure(
                    self.network, self.tree, self.window_parameter, self.tree.root
                )
                self._reference_cost = sample.metrics
        return self._reference_cost


def quantum_exact_diameter(
    network: Union[Network, Graph],
    variant: str = VARIANT_WINDOWED,
    oracle_mode: str = ORACLE_CONGEST,
    delta: float = 0.1,
    seed: int = 0,
    leader: Optional[NodeId] = None,
    budget_constant: float = 4.0,
    backend: Optional["ScheduleBackend"] = None,
) -> QuantumDiameterResult:
    """Compute the diameter with the quantum algorithm of Theorem 1.

    Parameters
    ----------
    network:
        A :class:`repro.congest.network.Network` or a bare
        :class:`repro.graphs.graph.Graph` (wrapped with default bandwidth).
    variant:
        ``"windowed"`` (the final ``O~(sqrt(n D))`` algorithm of Section
        3.2, default) or ``"simple"`` (the ``O~(sqrt(n) D)`` algorithm of
        Section 3.1).
    oracle_mode:
        ``"congest"`` (end-to-end simulation) or ``"reference"`` (identical
        values from the sequential oracle, for large sweeps).
    delta:
        Target failure probability of the optimization.
    seed:
        Seed of the simulated quantum measurements.
    leader:
        Optionally skip leader election and use this node.
    budget_constant:
        Hidden constant of the amplitude-amplification budget.
    backend:
        Quantum schedule backend (:mod:`repro.quantum.backend`); ``None``
        is the batched backend.  Backends return identical results for a
        fixed seed; only wall-clock differs.

    Returns
    -------
    QuantumDiameterResult
        The computed diameter (correct with probability ``>= 1 - delta`` up
        to schedule constants), total round count and resource counts.
    """
    if isinstance(network, Graph):
        network = Network(network)
    problem = ExactDiameterProblem(
        network, variant=variant, oracle_mode=oracle_mode, leader=leader
    )
    optimization = run_distributed_quantum_optimization(
        problem,
        delta=delta,
        rng=random.Random(seed),
        budget_constant=budget_constant,
        backend=backend,
    )
    return QuantumDiameterResult(
        diameter=int(optimization.best_value),
        leader=problem.leader,
        window_parameter=problem.window_parameter,
        variant=variant,
        counts=optimization.counts,
        metrics=optimization.metrics,
        optimization=optimization,
    )
