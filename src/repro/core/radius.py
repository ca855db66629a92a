"""Quantum exact radius: the Theorem-7 framework pointed at a minimum.

The radius ``r = min_u ecc(u)`` is the mirror image of the diameter, and
the distributed quantum optimization framework (Theorem 7) covers it with
no new machinery: maximising ``f(u0) = -ecc(u0)`` over the uniform Setup
superposition finds a center.  The instantiation follows the *simple*
exact-diameter variant of Section 3.1:

* **Initialization** -- elect a leader, build ``BFS(leader)``, learn
  ``d = ecc(leader)`` and broadcast it: ``O(D)`` rounds;
* **Setup** -- broadcast the internal register over ``BFS(leader)`` with
  CNOT copies (Proposition 2): ``O(D)`` rounds;
* **Evaluation** -- ``f(u0) = -ecc(u0)`` via a BFS from ``u0`` plus a
  convergecast of the (negated) eccentricity back to the leader:
  ``O(D)`` rounds per application.

With ``P_opt >= 1/n`` (at least one center exists) the optimization costs
``O~(sqrt(n))`` Evaluation applications, i.e. ``O~(sqrt(n) * D)`` rounds
total -- the same budget as the simple diameter variant.  (The windowed
``d/2n``-coverage trick of Section 3.2 does *not* transfer: windows
maximise ``max_{v in S(u0)} ecc(v)``, and a maximum over a window is
useless for a minimum.)

Like the diameter problems, two oracle modes exist: ``"congest"`` runs
every branch's BFS end-to-end on the simulator, ``"reference"`` serves
branch values from the sequential CSR eccentricity oracle
(:meth:`repro.graphs.indexed.IndexedGraph.all_eccentricities`) and
measures the per-call cost from one representative run.  Ground truth for
the correctness gate is :meth:`repro.graphs.indexed.IndexedGraph.radius`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.algorithms.bfs import BFSTreeResult, run_bfs_tree
from repro.algorithms.broadcast import run_tree_aggregate_max, run_tree_broadcast
from repro.algorithms.eccentricity import run_eccentricity
from repro.algorithms.leader_election import run_leader_election
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.core.exact_diameter import ORACLE_CONGEST, ORACLE_REFERENCE
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


@dataclass
class QuantumRadiusResult:
    """Outcome of the quantum exact-radius algorithm."""

    radius: int
    center: NodeId
    leader: NodeId
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


class ExactRadiusProblem(DistributedSearchProblem):
    """The exact-radius instantiation of the Theorem-7 framework.

    Maximises ``f(u0) = -ecc(u0)``; the maximiser is a center and the
    maximum is ``-radius``.
    """

    def __init__(
        self,
        network: Network,
        oracle_mode: str = ORACLE_CONGEST,
        leader: Optional[NodeId] = None,
    ) -> None:
        if oracle_mode not in (ORACLE_CONGEST, ORACLE_REFERENCE):
            raise ValueError(f"unknown oracle mode {oracle_mode!r}")
        self.network = network
        self.oracle_mode = oracle_mode
        self._given_leader = leader
        self.leader: Optional[NodeId] = None
        self.tree: Optional[BFSTreeResult] = None
        self._reference_eccentricities: Optional[Dict[NodeId, int]] = None
        self._reference_cost: Optional[ExecutionMetrics] = None
        self._setup_cost: Optional[ExecutionMetrics] = None

    # ------------------------------------------------------------------
    def initialization(self) -> ExecutionMetrics:
        """Leader election, ``BFS(leader)`` and a broadcast of its depth."""
        metrics = ExecutionMetrics()
        if self._given_leader is None:
            election = run_leader_election(self.network)
            self.leader = election.leader
            metrics = metrics.merged(election.metrics)
        else:
            self.leader = self._given_leader

        self.tree = run_bfs_tree(self.network, self.leader)
        metrics = metrics.merged(self.tree.metrics)

        announce = run_tree_broadcast(
            self.network, self.tree, ("d-is", self.tree.depth)
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
    def evaluate(self, u0: NodeId) -> Tuple[float, ExecutionMetrics]:
        if self.tree is None:
            raise RuntimeError("initialization must run before evaluation")
        if self.oracle_mode == ORACLE_CONGEST:
            eccentricity = run_eccentricity(self.network, u0)
            metrics = eccentricity.metrics
            # Route -ecc(u0) back to the leader over BFS(leader): one
            # convergecast, as in the simple diameter variant.
            report = run_tree_aggregate_max(
                self.network, self.tree,
                {
                    node: (-eccentricity.eccentricity if node == u0 else -self.network.num_nodes)
                    for node in self.network.graph.nodes()
                },
            )
            metrics = metrics.merged(report.metrics)
            return float(-eccentricity.eccentricity), metrics
        value = float(-self._eccentricities()[u0])
        return value, self._representative_cost()

    # ------------------------------------------------------------------
    def optimum_mass_lower_bound(self) -> float:
        # At least one center exists, so the maximisers of -ecc carry at
        # least a 1/n fraction of the uniform Setup mass.
        return 1.0 / self.network.num_nodes

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
        per-call cost in reference-oracle mode (the BFS + convergecast
        schedule is input-independent up to depth)."""
        if self._reference_cost is None:
            sample = run_eccentricity(self.network, self.tree.root)
            report = run_tree_aggregate_max(
                self.network, self.tree, {
                    node: 0 for node in self.network.graph.nodes()
                },
            )
            self._reference_cost = sample.metrics.merged(report.metrics)
        return self._reference_cost


def quantum_exact_radius(
    network: Union[Network, Graph],
    oracle_mode: str = ORACLE_CONGEST,
    delta: float = 0.1,
    seed: int = 0,
    leader: Optional[NodeId] = None,
    budget_constant: float = 4.0,
    backend: Optional["ScheduleBackend"] = None,
) -> QuantumRadiusResult:
    """Compute the exact radius with the Theorem-7 framework.

    Parameters mirror :func:`repro.core.exact_diameter.quantum_exact_diameter`
    (minus the variant: radius has no windowed coverage trick, see the
    module docstring).  The result is correct with probability at least
    ``1 - delta`` up to schedule constants; the returned ``center`` is a
    node whose eccentricity equals the reported radius whenever the
    optimization succeeded.
    """
    if isinstance(network, Graph):
        network = Network(network)
    problem = ExactRadiusProblem(network, oracle_mode=oracle_mode, leader=leader)
    optimization = run_distributed_quantum_optimization(
        problem,
        delta=delta,
        rng=random.Random(seed),
        budget_constant=budget_constant,
        backend=backend,
    )
    return QuantumRadiusResult(
        radius=int(round(-optimization.best_value)),
        center=optimization.best_item,
        leader=problem.leader,
        counts=optimization.counts,
        metrics=optimization.metrics,
        optimization=optimization,
    )
