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
(:meth:`repro.graphs.indexed.IndexedGraph.all_eccentricities`) and runs
one BFS, from the evaluated node of largest eccentricity, to charge per
call.  Ground truth for
the correctness gate is :meth:`repro.graphs.indexed.IndexedGraph.radius`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.algorithms.broadcast import run_tree_aggregate_max, run_tree_broadcast
from repro.algorithms.eccentricity import run_eccentricity
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.graphs.graph import Graph, NodeId
from repro.qcongest.framework import (
    ORACLE_CONGEST,
    DistributedSearchProblem,
    QuantumProblemResult,
    run_distributed_quantum_optimization,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.backend import ScheduleBackend


class QuantumRadiusResult(QuantumProblemResult):
    """Outcome of the quantum exact-radius algorithm."""

    __slots__ = ("radius", "center", "leader")


class ExactRadiusProblem(DistributedSearchProblem):
    """The exact-radius instantiation of the Theorem-7 framework.

    Maximises ``f(u0) = -ecc(u0)``; the maximiser is a center and the
    maximum is ``-radius``.  At least one center exists, so the default
    ``P_opt >= 1/n`` holds.
    """

    def __init__(
        self,
        network: Union[Network, Graph],
        oracle_mode: str = ORACLE_CONGEST,
        leader: Optional[NodeId] = None,
    ) -> None:
        super().__init__(network, oracle_mode)
        self._given_leader = leader
        self.leader: Optional[NodeId] = None

    # ------------------------------------------------------------------
    def initialization(self) -> ExecutionMetrics:
        """Leader election, ``BFS(leader)`` and a broadcast of its depth."""
        metrics = self.leader_tree(self._given_leader)
        announce = run_tree_broadcast(
            self.network, self.tree, ("d-is", self.tree.depth)
        )
        metrics = metrics.merged(announce.metrics)
        metrics.record_phase("initialization", metrics.rounds)
        return metrics

    # ------------------------------------------------------------------
    def congest_evaluation(self, u0: NodeId) -> Tuple[float, ExecutionMetrics]:
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

    def reference_value(self, u0: NodeId) -> float:
        return float(-self.all_eccentricities()[u0])

    def evaluation_cost_rank(self, u0: NodeId) -> float:
        """The BFS from ``u0`` runs ``ecc(u0)`` rounds."""
        return self.all_eccentricities()[u0]


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
