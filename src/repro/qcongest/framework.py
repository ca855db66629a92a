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
:mod:`repro.core`.

Parallel branch evaluation.  The quantum schedule queries branch values
``f(x)`` adaptively, but the very first amplitude-amplification round
computes the marked mass over the *entire* search space, so every branch
gets evaluated exactly once regardless -- and the evaluations are
independent CONGEST runs.  When a :class:`repro.runner.batch.BatchRunner`
is supplied (and the problem declares
``supports_parallel_evaluation = True``), the framework pre-computes all
branch evaluations through the pool and then serves the schedule's
``value_of`` queries from the pre-computed table **in query order**, so
every reported quantity -- values, per-call cost, distinct evaluations,
simulated run/round counts -- is identical to the serial execution.
Problems whose evaluation shares hidden state across calls (e.g. the
reference-oracle modes, which amortise one representative run over all
branches) must leave the flag unset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.congest.metrics import ExecutionMetrics
from repro.engine import RunLogObserver
from repro.quantum.backend import ScheduleBackend, resolve_schedule_backend
from repro.quantum.cost_model import QuantumCostModel, QuantumResourceCount
from repro.quantum.maximum_finding import MaximumFindingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.batch import BatchRunner

Item = Hashable


class DistributedSearchProblem:
    """Interface of a problem solvable by distributed quantum optimization.

    Concrete subclasses provide the four ingredients of Section 2.4:
    Initialization, the search space and Setup amplitudes, the Setup cost
    and the Evaluation procedure (value + cost).
    """

    #: Whether :meth:`evaluate` calls are independent -- deterministic given
    #: the post-initialization problem state, with no hidden caching shared
    #: across calls -- so they may be dispatched to pool workers.  Problems
    #: opt in after initialization (see the module docstring).
    supports_parallel_evaluation: bool = False

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


def _evaluate_branch(problem: DistributedSearchProblem, item: Item):
    """Evaluate one branch in a pool worker, counting its simulator runs.

    Returns ``(value, metrics, runs, rounds, messages)`` so the parent can
    replay the run-log accounting for branches the schedule actually
    queries, keeping the parallel result identical to the serial one.
    """
    run_log = RunLogObserver()
    network = getattr(problem, "network", None)
    observed = network is not None and hasattr(network, "add_observer")
    if observed:
        network.add_observer(run_log)
    try:
        value, metrics = problem.evaluate(item)
    finally:
        if observed:
            network.remove_observer(run_log)
    return value, metrics, run_log.runs, run_log.rounds, run_log.messages


def run_distributed_quantum_optimization(
    problem: DistributedSearchProblem,
    delta: float = 0.1,
    rng: Optional[random.Random] = None,
    budget_constant: float = 4.0,
    runner: Optional["BatchRunner"] = None,
    backend: Optional[ScheduleBackend] = None,
) -> DistributedOptimizationResult:
    """Run Theorem 7's distributed quantum optimization for ``problem``.

    ``delta`` is the per-run failure probability target; the returned value
    is the maximum of ``f`` with probability at least ``1 - delta`` (up to
    the constants of the amplitude-amplification schedule).

    ``runner`` optionally parallelises the independent branch evaluations
    over a :class:`repro.runner.batch.BatchRunner` process pool when the
    problem declares ``supports_parallel_evaluation``; the result is
    identical to the serial run (see the module docstring).

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

        # Pre-compute the independent branch evaluations through the pool.
        # The schedule's first amplitude-amplification round touches every
        # branch anyway, so this is the same work, done cores-wide; the
        # accounting below is replayed lazily in query order so that every
        # reported quantity matches the serial execution exactly.
        precomputed: Optional[Dict[Item, tuple]] = None
        if (
            runner is not None
            and runner.jobs > 1
            and len(amplitudes) > 1  # map() falls back in-process for a
            # single task, which would run on the observed parent network
            # and then double-count when the replay below adds the deltas
            and getattr(problem, "supports_parallel_evaluation", False)
        ):
            items = list(amplitudes)
            precomputed = dict(
                zip(items, runner.map(_evaluate_branch, items, context=problem))
            )

        evaluation_cost: Dict[str, ExecutionMetrics] = {}
        value_cache: Dict[Item, float] = {}

        def value_of(item: Item) -> float:
            if item in value_cache:
                return value_cache[item]
            branch = None if precomputed is None else precomputed.get(item)
            if branch is not None:
                value, metrics, runs, rounds, messages = branch
                if observed:
                    run_log.runs += runs
                    run_log.rounds += rounds
                    run_log.messages += messages
            else:
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
