"""Distributed quantum optimization (Theorem 7).

This is the paper's general framework: a leader drives quantum maximum
finding whose Setup and Evaluation unitaries are implemented by distributed
procedures.  The framework

1. runs the problem's **Initialization** once (classically, on the CONGEST
   simulator) and records its round cost ``T0``;
2. measures the round cost of one **Setup** application and of one
   **Evaluation** application by running the corresponding distributed
   procedures;
3. simulates the quantum maximum-finding schedule *exactly* through a
   :class:`repro.quantum.backend.ScheduleBackend` (the batched backend
   unless the caller passes its sampling reference -- both reproduce the
   amplitude-amplification measurement statistics bit for bit), counting
   every Setup and Evaluation application;
4. converts the counts into total CONGEST rounds with the cost model of
   Theorem 7 (``T0 + #calls * T``) and reports per-node memory.

Concrete problems (exact diameter, Theorem 1; 3/2-approximation, Theorem 4)
implement the small :class:`DistributedSearchProblem` interface in
:mod:`repro.core`.  Branch values are evaluated serially, in the order the
schedule queries them; a grid's parallelism is across its cells.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.congest.metrics import ExecutionMetrics
from repro.engine import RunLogObserver
from repro.quantum.backend import ScheduleBackend, resolve_schedule_backend
from repro.quantum.cost_model import QuantumCostModel, QuantumResourceCount
from repro.quantum.maximum_finding import MaximumFindingResult

Item = Hashable


class DistributedSearchProblem:
    """Interface of a problem solvable by distributed quantum optimization.

    Concrete subclasses provide the four ingredients of Section 2.4:
    Initialization, the search space and Setup amplitudes, the Setup cost
    and the Evaluation procedure (value + cost).
    """

    def initialization(self) -> ExecutionMetrics:
        """Run the classical Initialization phase; return its metrics."""
        raise NotImplementedError

    def search_space(self) -> List[Item]:
        """The set ``X`` over which the optimization runs."""
        raise NotImplementedError

    def setup_amplitudes(self) -> Dict[Item, float]:
        """The amplitudes ``alpha_x`` produced by Setup (normalised)."""
        raise NotImplementedError

    def setup_cost(self) -> ExecutionMetrics:
        """Round cost of one application of Setup (or its inverse)."""
        raise NotImplementedError

    def evaluate(self, item: Item) -> Tuple[float, ExecutionMetrics]:
        """Evaluate ``f(item)`` distributively; return the value and cost."""
        raise NotImplementedError

    def optimum_mass_lower_bound(self) -> float:
        """A lower bound on ``P_opt`` (the ``eps`` of Corollary 1)."""
        raise NotImplementedError

    def internal_register_bits(self) -> int:
        """Size of the leader's internal register in (qu)bits."""
        raise NotImplementedError


@dataclass
class DistributedOptimizationResult:
    """Outcome of one distributed quantum optimization run."""

    best_item: Item
    best_value: float
    counts: QuantumResourceCount
    metrics: ExecutionMetrics
    initialization_rounds: int
    setup_rounds_per_call: int
    evaluation_rounds_per_call: int
    distinct_evaluations: int
    #: CONGEST executions actually simulated during the optimization (as
    #: opposed to the *modelled* rounds of ``metrics``), observed via a
    #: run-log observer when the problem exposes its network.
    simulated_runs: int = 0
    simulated_rounds: int = 0

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds (Initialization + all Setup/Evaluation calls)."""
        return self.metrics.rounds


def run_distributed_quantum_optimization(
    problem: DistributedSearchProblem,
    delta: float = 0.1,
    rng: Optional[random.Random] = None,
    budget_constant: float = 4.0,
    backend: Optional[ScheduleBackend] = None,
) -> DistributedOptimizationResult:
    """Run Theorem 7's distributed quantum optimization for ``problem``.

    ``delta`` is the per-run failure probability target; the returned value
    is the maximum of ``f`` with probability at least ``1 - delta`` (up to
    the constants of the amplitude-amplification schedule).

    ``backend`` is the quantum schedule simulator
    (:mod:`repro.quantum.backend`; ``None``: the batched backend).  The
    differential tests pass the sampling reference here; backends are
    proven byte-identical, so the choice affects wall-clock only.
    """
    rng = rng if rng is not None else random.Random(0)
    network = getattr(problem, "network", None)
    schedule_backend = resolve_schedule_backend(backend)

    # When the problem exposes the CONGEST network it simulates on, observe
    # every run it performs during the optimization with a run-log
    # observer (run boundaries only, no per-message cost) -- this reports
    # how much simulation the optimization really executed, separately
    # from the modelled Theorem-7 cost.
    run_log = RunLogObserver()
    observed = network is not None and hasattr(network, "add_observer")
    if observed:
        network.add_observer(run_log)

    try:
        initialization_metrics = problem.initialization()
        amplitudes = problem.setup_amplitudes()
        if not amplitudes:
            raise ValueError("the search space must be non-empty")
        setup_metrics = problem.setup_cost()

        evaluation_cost: Dict[str, ExecutionMetrics] = {}
        value_cache: Dict[Item, float] = {}

        def value_of(item: Item) -> float:
            if item in value_cache:
                return value_cache[item]
            value, metrics = problem.evaluate(item)
            value_cache[item] = value
            current = evaluation_cost.get("max")
            if current is None or metrics.rounds > current.rounds:
                evaluation_cost["max"] = metrics
            return value

        eps = problem.optimum_mass_lower_bound()
        outcome: MaximumFindingResult = schedule_backend.run_maximum_finding(
            amplitudes,
            value_of=value_of,
            eps=eps,
            delta=delta,
            rng=rng,
            budget_constant=budget_constant,
        )
    finally:
        if observed:
            network.remove_observer(run_log)

    per_evaluation = evaluation_cost.get("max", ExecutionMetrics())
    cost_model = QuantumCostModel(
        initialization=initialization_metrics,
        setup=setup_metrics,
        evaluation=per_evaluation,
        internal_register_bits=problem.internal_register_bits(),
    )
    counts = QuantumResourceCount(
        setup_calls=outcome.setup_calls,
        evaluation_calls=outcome.evaluation_calls,
        measurements=outcome.measurements,
    )
    total_metrics = cost_model.total_metrics(counts)

    return DistributedOptimizationResult(
        best_item=outcome.best_item,
        best_value=outcome.best_value,
        counts=counts,
        metrics=total_metrics,
        initialization_rounds=initialization_metrics.rounds,
        setup_rounds_per_call=setup_metrics.rounds,
        evaluation_rounds_per_call=per_evaluation.rounds,
        distinct_evaluations=len(value_cache),
        simulated_runs=run_log.runs,
        simulated_rounds=run_log.rounds,
    )
