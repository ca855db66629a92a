"""Quantum single-source eccentricity: the smallest Theorem-7 workload.

``ecc(s) = max_v dist(s, v)`` for a fixed source ``s`` is classically an
``O(D)`` BFS, which makes it the ideal *calibration* problem for the
distributed quantum optimization framework: the quantum schedule, Setup
broadcast and Evaluation convergecast machinery all run end-to-end while
the classical answer stays one oracle BFS away
(:meth:`repro.graphs.indexed.IndexedGraph.eccentricity`).  The
instantiation of Theorem 7:

* **Initialization** -- build ``BFS(s)``; every node learns
  ``dist(s, v)``: ``O(D)`` rounds;
* **Setup** -- broadcast the internal register over ``BFS(s)``
  (Proposition 2): ``O(D)`` rounds;
* **Evaluation** -- ``f(v) = dist(s, v)`` is already stored at ``v``
  after Initialization, so one convergecast reports it to the source:
  ``O(D)`` rounds per application;
* ``P_opt >= 1/n`` (some node realises the eccentricity), giving the
  generic ``O~(sqrt(n))``-application budget of Corollary 1.

This is deliberately *not* a speed-up over the classical BFS -- the paper
makes the same point for single eccentricities (the gain of Theorems 1
and 4 comes from batching many BFS-like subproblems into one quantum
optimization).  Having the workload registered keeps the framework honest
on a problem whose classical baseline is trivial, and exercises the
sweep/store/CLI plumbing on a second exact guarantee besides diameter.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.broadcast import run_tree_aggregate_max
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


class QuantumSourceEccentricityResult(QuantumProblemResult):
    """Outcome of the quantum single-source eccentricity computation."""

    __slots__ = ("eccentricity", "source", "farthest")


class SourceEccentricityProblem(DistributedSearchProblem):
    """Theorem-7 instantiation of ``f(v) = dist(source, v)``.

    Some node realises ``ecc(source)``, so the default ``P_opt >= 1/n``
    holds.
    """

    def __init__(
        self,
        network: Union[Network, Graph],
        source: Optional[NodeId] = None,
        oracle_mode: str = ORACLE_CONGEST,
    ) -> None:
        super().__init__(network, oracle_mode)
        self.source: NodeId = (
            source if source is not None else self.network.graph.nodes()[0]
        )

    # ------------------------------------------------------------------
    def initialization(self) -> ExecutionMetrics:
        """Build ``BFS(source)``; afterwards node ``v`` holds ``dist(s, v)``."""
        self.tree = run_bfs_tree(self.network, self.source)
        metrics = self.tree.metrics
        metrics.record_phase("initialization", metrics.rounds)
        return metrics

    # ------------------------------------------------------------------
    def congest_evaluation(self, v: NodeId) -> Tuple[float, ExecutionMetrics]:
        # Node v already knows dist(s, v); report it to the source by
        # convergecast over BFS(s) (every other node contributes the
        # neutral 0 <= any distance).
        report = run_tree_aggregate_max(
            self.network, self.tree,
            {
                node: (self.tree.distance[v] if node == v else 0)
                for node in self.network.graph.nodes()
            },
        )
        return float(report.value), report.metrics

    def reference_value(self, v: NodeId) -> float:
        return float(self.tree.distance[v])


def quantum_source_eccentricity(
    network: Union[Network, Graph],
    source: Optional[NodeId] = None,
    oracle_mode: str = ORACLE_CONGEST,
    delta: float = 0.1,
    seed: int = 0,
    budget_constant: float = 4.0,
    backend: Optional["ScheduleBackend"] = None,
) -> QuantumSourceEccentricityResult:
    """Compute ``ecc(source)`` with the Theorem-7 framework.

    ``source`` defaults to the graph's first node (matching the sweep
    registry's ground-truth oracle).  Other parameters mirror
    :func:`repro.core.exact_diameter.quantum_exact_diameter`; the result
    is correct with probability at least ``1 - delta`` up to schedule
    constants.
    """
    problem = SourceEccentricityProblem(
        network, source=source, oracle_mode=oracle_mode
    )
    optimization = run_distributed_quantum_optimization(
        problem,
        delta=delta,
        rng=random.Random(seed),
        budget_constant=budget_constant,
        backend=backend,
    )
    return QuantumSourceEccentricityResult(
        eccentricity=int(round(optimization.best_value)),
        source=problem.source,
        farthest=optimization.best_item,
        counts=optimization.counts,
        metrics=optimization.metrics,
        optimization=optimization,
    )
