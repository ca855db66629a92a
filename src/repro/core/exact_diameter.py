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
  oracle and one walk of the same Euler tour (every ``f(u0)`` at once,
  :func:`repro.core.coverage.window_maxima`), and measures the per-call
  cost from one representative CONGEST run.  The two
  modes return identical values; the test-suite checks this.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.algorithms.broadcast import run_tree_aggregate_max, run_tree_broadcast
from repro.algorithms.eccentricity import run_eccentricity
from repro.algorithms.evaluation import run_evaluation_procedure
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.core.coverage import popt_lower_bound, window_maxima
from repro.graphs.graph import Graph, NodeId
from repro.qcongest.framework import (  # the oracle modes, re-exported
    ORACLE_CONGEST,
    ORACLE_REFERENCE,
    DistributedSearchProblem,
    QuantumProblemResult,
    run_distributed_quantum_optimization,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.backend import ScheduleBackend

#: Evaluation variants.
VARIANT_SIMPLE = "simple"
VARIANT_WINDOWED = "windowed"


class QuantumDiameterResult(QuantumProblemResult):
    """Outcome of the quantum exact-diameter algorithm."""

    __slots__ = ("diameter", "leader", "window_parameter", "variant")


class ExactDiameterProblem(DistributedSearchProblem):
    """The Theorem-1 instantiation of the Theorem-7 framework."""

    def __init__(
        self,
        network: Union[Network, Graph],
        variant: str = VARIANT_WINDOWED,
        oracle_mode: str = ORACLE_CONGEST,
        leader: Optional[NodeId] = None,
    ) -> None:
        if variant not in (VARIANT_SIMPLE, VARIANT_WINDOWED):
            raise ValueError(f"unknown variant {variant!r}")
        super().__init__(network, oracle_mode)
        self.variant = variant
        self._given_leader = leader
        self.leader: Optional[NodeId] = None
        self.window_parameter: int = 0
        self._window_maxima: Optional[Dict[NodeId, int]] = None

    # ------------------------------------------------------------------
    def initialization(self) -> ExecutionMetrics:
        """Leader election, ``BFS(leader)``, ``d = ecc(leader)``, broadcast of ``d``."""
        metrics = self.leader_tree(self._given_leader)
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
    def congest_evaluation(self, u0: NodeId) -> Tuple[float, ExecutionMetrics]:
        if self.variant == VARIANT_SIMPLE:
            eccentricity = run_eccentricity(self.network, u0)
            report = self._report(eccentricity.eccentricity, u0)
            return float(eccentricity.eccentricity), eccentricity.metrics.merged(report)
        evaluation = run_evaluation_procedure(
            self.network, self.tree, self.window_parameter, u0
        )
        return float(evaluation.value), evaluation.metrics

    def reference_value(self, u0: NodeId) -> float:
        eccentricities = self.all_eccentricities()
        if self.variant == VARIANT_SIMPLE:
            return float(eccentricities[u0])
        if self._window_maxima is None:
            self._window_maxima = window_maxima(
                self.tree, 2 * self.window_parameter, eccentricities
            )
        return float(self._window_maxima[u0])

    def representative_evaluation(self) -> ExecutionMetrics:
        """The Evaluation procedure from the tree's root (its schedule is
        fixed and input-independent); the simple variant's includes the
        convergecast its congest path charges."""
        root = self.tree.root
        if self.variant == VARIANT_SIMPLE:
            sample = run_eccentricity(self.network, root)
            return sample.metrics.merged(self._report(0, root))
        return run_evaluation_procedure(
            self.network, self.tree, self.window_parameter, root
        ).metrics

    def _report(self, value: int, u0: NodeId) -> ExecutionMetrics:
        """Route ``value`` from ``u0`` back to the leader: the depth of
        ``BFS(leader)`` bounds it, charged as one convergecast."""
        return run_tree_aggregate_max(
            self.network, self.tree,
            {node: (value if node == u0 else 0) for node in self.network.graph.nodes()},
        ).metrics

    # ------------------------------------------------------------------
    def optimum_mass_lower_bound(self) -> float:
        if self.variant == VARIANT_SIMPLE:
            return super().optimum_mass_lower_bound()
        return popt_lower_bound(self.network.num_nodes, self.window_parameter)


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
