"""Theorem 4: quantum 3/2-approximation in ``O~((n D)^(1/3) + D)`` rounds.

The algorithm (Figure 3) runs the classical preparation of [HPRW14]
(Steps 1-3: sample ``S``, find the node ``w`` farthest from ``S``, select
the ball ``R`` of the ``s`` nodes closest to ``w``) and then replaces the
classical "BFS from every node of R" by a quantum optimization over ``R``:
the same Figure-2 Evaluation machinery, restricted to the subtree of
``BFS(w)`` induced by ``R``, gives ``P_opt >= d / (2 s)`` and therefore an
``O~(sqrt(s D) + D)``-round quantum phase.  Balancing the ``O~(n / s + D)``
preparation against the quantum phase with ``s = Theta(n^{2/3} D^{-1/3})``
yields the ``O~((n D)^{1/3} + D)`` bound of Theorem 4.

The estimate returned is ``max(ecc over S, ecc(w), quantum max ecc over R)``
and satisfies ``floor(2D/3) <= D_hat <= D`` with high probability (the
correctness analysis is inherited from [HPRW14]; only the last phase
changes).
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.algorithms.diameter_approx import (
    HPRWPreparationResult,
    run_hprw_preparation,
)
from repro.algorithms.eccentricity import run_eccentricity
from repro.algorithms.evaluation import run_evaluation_procedure
from repro.algorithms.leader_election import run_leader_election
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.core.coverage import popt_lower_bound, window_maxima
from repro.graphs.graph import Graph, NodeId
from repro.qcongest.framework import (
    ORACLE_CONGEST,
    DistributedSearchProblem,
    QuantumProblemResult,
    as_network,
    run_distributed_quantum_optimization,
)
from repro.runner.batch import task_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quantum.backend import ScheduleBackend


class QuantumApproxDiameterResult(QuantumProblemResult):
    """Outcome of the quantum 3/2-approximation (Theorem 4); its
    ``rounds`` count the preparation and the quantum phase."""

    __slots__ = ("estimate", "ball_size", "s_parameter", "w", "preparation")


class BallEccentricityProblem(DistributedSearchProblem):
    """Quantum optimization of ``max_{v in S_R(u0)} ecc(v)`` over the ball ``R``."""

    def __init__(
        self,
        network: Network,
        preparation: HPRWPreparationResult,
        oracle_mode: str = ORACLE_CONGEST,
    ) -> None:
        super().__init__(network, oracle_mode)
        self.preparation = preparation
        # Setup and the windows run over BFS(w), rooted at w.
        self.tree = preparation.w_tree
        self.window_parameter = max(1, preparation.d_w)
        self._window_maxima: Optional[Dict[NodeId, int]] = None

    # ------------------------------------------------------------------
    def initialization(self) -> ExecutionMetrics:
        # The preparation phase (already executed) is the initialization of
        # this problem; its cost is accounted by the caller, so the quantum
        # optimization itself starts from zero additional initialization.
        return ExecutionMetrics()

    def search_space(self) -> List[NodeId]:
        return sorted(self.preparation.ball, key=repr)

    def setup_amplitudes(self) -> Dict[NodeId, float]:
        # ``math.sqrt``, not the base class's ``** 0.5``: the two differ
        # in the last bit for some ball sizes (the first is 5,579).
        ball = self.search_space()
        weight = 1.0 / math.sqrt(len(ball))
        return {node: weight for node in ball}

    # ------------------------------------------------------------------
    def congest_evaluation(self, u0: NodeId) -> Tuple[float, ExecutionMetrics]:
        evaluation = run_evaluation_procedure(
            self.network, self.tree, self.window_parameter, u0,
            members=self.preparation.ball,
        )
        return float(evaluation.value), evaluation.metrics

    def reference_value(self, u0: NodeId) -> float:
        if self._window_maxima is None:
            self._window_maxima = window_maxima(
                self.tree, 2 * self.window_parameter, self.all_eccentricities(),
                members=self.preparation.ball,
            )
        return float(self._window_maxima[u0])

    def optimum_mass_lower_bound(self) -> float:
        return popt_lower_bound(len(self.preparation.ball), self.window_parameter)


def default_s_parameter(n: int, d: int) -> int:
    """The balancing choice ``s = Theta(n^{2/3} D^{-1/3})`` of Theorem 4.

    ``d`` is any 2-approximation of the diameter (the paper uses
    ``ecc(leader)``).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = max(1, d)
    return max(1, min(n, math.ceil(n ** (2.0 / 3.0) / d ** (1.0 / 3.0))))


def quantum_three_halves_diameter(
    network: Union[Network, Graph],
    s: Optional[int] = None,
    oracle_mode: str = ORACLE_CONGEST,
    delta: float = 0.1,
    seed: int = 0,
    budget_constant: float = 4.0,
    backend: Optional["ScheduleBackend"] = None,
) -> QuantumApproxDiameterResult:
    """Compute a 3/2-approximation of the diameter (Theorem 4 / Figure 3).

    When ``s`` is not given it is set to the balancing value
    ``Theta(n^{2/3} / d^{1/3})`` with ``d = ecc(leader)``.  ``backend``
    is the quantum schedule simulator (see :mod:`repro.quantum.backend`;
    ``None`` is the batched backend, and all backends return identical
    results for a fixed seed).

    The user-facing ``seed`` feeds two *independent* streams: the
    [HPRW14] preparation's sampling randomness and the quantum schedule's
    measurement randomness.  Earlier revisions seeded both with the raw
    value, so the schedule's measurement draws replayed the preparation's
    sampling draws verbatim (the same aliasing the sweep layer fixed for
    its ``--seed`` in the graph-vs-algorithm split).
    """
    network = as_network(network)
    rng = random.Random(task_seed(seed, "theorem4-schedule-stream"))
    preparation_seed = task_seed(seed, "theorem4-preparation-stream")
    n = network.num_nodes
    metrics = ExecutionMetrics()

    # A leader and its eccentricity give the 2-approximation of D needed to
    # pick s; this is part of the preparation cost.
    election = run_leader_election(network)
    metrics = metrics.merged(election.metrics)
    leader_ecc = run_eccentricity(network, election.leader)
    metrics = metrics.merged(leader_ecc.metrics)
    if s is None:
        s = default_s_parameter(n, leader_ecc.eccentricity)

    preparation = run_hprw_preparation(
        network, s=s, seed=preparation_seed, leader=election.leader
    )
    metrics = metrics.merged(preparation.metrics)

    ecc_w = run_eccentricity(network, preparation.w, tree=preparation.w_tree)
    metrics = metrics.merged(ecc_w.metrics)

    problem = BallEccentricityProblem(network, preparation, oracle_mode=oracle_mode)
    optimization = run_distributed_quantum_optimization(
        problem, delta=delta, rng=rng, budget_constant=budget_constant,
        backend=backend,
    )
    metrics = metrics.merged(optimization.metrics)

    estimate = max(
        preparation.max_ecc_over_samples,
        ecc_w.eccentricity,
        int(optimization.best_value),
    )
    counts = optimization.counts
    return QuantumApproxDiameterResult(
        estimate=estimate,
        ball_size=len(preparation.ball),
        s_parameter=s,
        w=preparation.w,
        counts=counts,
        metrics=metrics,
        preparation=preparation,
        optimization=optimization,
    )
