"""Distributed quantum optimization (Theorem 7), written once.

This is the paper's general framework: a leader drives quantum maximum
finding whose Setup and Evaluation unitaries are implemented by distributed
procedures.  :func:`run_distributed_quantum_optimization`

1. runs the problem's **Initialization** once (classically, on the CONGEST
   simulator) and records its round cost ``T0``;
2. measures the round cost of one **Setup** application and of one
   **Evaluation** application by running the corresponding distributed
   procedures;
3. simulates the quantum maximum-finding schedule *exactly* with
   :func:`repro.quantum.maximum_finding.find_maximum`, counting every
   Setup and Evaluation application (``backend=`` picks where its rounds
   get their marked statistics; both sources are bit-identical);
4. converts the counts into total CONGEST rounds with the cost model of
   Theorem 7 (``T0 + #calls * T``) and reports per-node memory.

A problem (exact diameter, Theorem 1; the 3/2-approximation, Theorem 4;
exact radius; single-source eccentricity -- all in :mod:`repro.core`) is a
:class:`DistributedSearchProblem` subclass that supplies only what differs:

* ``initialization()`` -- its Initialization, which sets ``self.tree``
  (the BFS tree Setup broadcasts over);
* ``congest_evaluation(item)`` -- its Evaluation procedure run on the
  simulator, returning ``(f(item), metrics)``;
* ``reference_value(item)`` -- the same value from a sequential oracle;
* ``evaluation_cost_rank(item)`` when an Evaluation's length depends on
  the item: reference mode charges one ``congest_evaluation``, of the
  first evaluated item of maximal rank -- the run congest mode charges;
* ``optimum_mass_lower_bound()`` (and ``search_space()``) when ``P_opt >=
  1/n`` over all nodes does not hold.

The base class provides the rest: the oracle-mode check, the ``evaluate``
template that dispatches on the mode, the memoised Setup cost over
``self.tree``, the memoised eccentricity table, uniform Setup amplitudes,
the leader's register size and the "elect a leader, build its BFS tree"
step.  Every problem's result extends :class:`QuantumProblemResult`.
Branch values are evaluated serially, in the order the schedule queries
them; a grid's parallelism is across its cells.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple, Union

from repro._record import Record
from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.leader_election import run_leader_election
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.engine import RunLogObserver
from repro.graphs.graph import Graph, NodeId
from repro.qcongest.setup import run_setup_broadcast
from repro.quantum.backend import ScheduleBackend, resolve_schedule_backend
from repro.quantum.cost_model import (
    QuantumCostModel,
    QuantumResourceCount,
    leader_memory_bits,
)
from repro.quantum.maximum_finding import find_maximum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.bfs import BFSTreeResult

Item = Hashable

#: Oracle modes: ``"congest"`` runs every Evaluation on the simulator,
#: ``"reference"`` serves branch values from a sequential oracle and
#: runs one Evaluation, the costliest, to charge per call.
ORACLE_CONGEST = "congest"
ORACLE_REFERENCE = "reference"


def as_network(network: Union[Network, Graph]) -> Network:
    """``network`` itself, or a bare graph wrapped with default bandwidth."""
    return Network(network) if isinstance(network, Graph) else network


class DistributedSearchProblem:
    """A problem solvable by distributed quantum optimization.

    The four ingredients of Section 2.4 are Initialization, the search
    space with its Setup amplitudes, the Setup cost and the Evaluation
    procedure; see the module docstring for which of them a subclass
    supplies and which this class provides.
    """

    def __init__(
        self, network: Union[Network, Graph], oracle_mode: str = ORACLE_CONGEST
    ) -> None:
        if oracle_mode not in (ORACLE_CONGEST, ORACLE_REFERENCE):
            raise ValueError(f"unknown oracle mode {oracle_mode!r}")
        self.network = as_network(network)
        self.oracle_mode = oracle_mode
        #: The tree Setup broadcasts over, from its root; set by
        #: Initialization (or by the constructor when it precedes it).
        self.tree: Optional["BFSTreeResult"] = None
        self._setup_cost: Optional[ExecutionMetrics] = None
        self._eccentricities: Optional[Dict[NodeId, int]] = None

    # -- supplied by each problem ---------------------------------------
    def initialization(self) -> ExecutionMetrics:
        """Run the classical Initialization phase; return its metrics."""
        raise NotImplementedError

    def congest_evaluation(self, item: Item) -> Tuple[float, ExecutionMetrics]:
        """Run the Evaluation procedure for ``item`` on the simulator."""
        raise NotImplementedError

    def reference_value(self, item: Item) -> float:
        """``f(item)`` from the sequential oracle (reference mode)."""
        raise NotImplementedError

    def evaluation_cost_rank(self, item: Item) -> float:
        """Orders items by how long their Evaluation runs; reference mode
        charges the first evaluated item of maximal rank.  By default
        every item ranks the same: the Evaluation's schedule is fixed."""
        return 0

    # -- shared ----------------------------------------------------------
    def evaluate(self, item: Item) -> Tuple[float, Optional[ExecutionMetrics]]:
        """``f(item)`` and the cost of its run (``None`` in reference mode)."""
        if self.tree is None:
            raise RuntimeError("initialization must run before evaluation")
        if self.oracle_mode == ORACLE_CONGEST:
            return self.congest_evaluation(item)
        return self.reference_value(item), None

    def search_space(self) -> List[Item]:
        """The set ``X`` over which the optimization runs: every node."""
        return list(self.network.graph.nodes())

    def setup_amplitudes(self) -> Dict[Item, float]:
        """The uniform amplitudes ``alpha_x`` produced by Setup."""
        items = self.search_space()
        weight = 1.0 / (len(items) ** 0.5)
        return {item: weight for item in items}

    def setup_cost(self) -> ExecutionMetrics:
        """Round cost of one Setup broadcast over ``self.tree`` from its root."""
        if self._setup_cost is None:
            self._setup_cost, _ = run_setup_broadcast(
                self.network, self.tree, self.tree.root
            )
        return self._setup_cost

    def optimum_mass_lower_bound(self) -> float:
        """A lower bound on ``P_opt`` (the ``eps`` of Corollary 1): some
        node is a maximiser, so at least ``1/n`` of the uniform mass."""
        return 1.0 / self.network.num_nodes

    def internal_register_bits(self) -> int:
        """Size of the leader's internal register in (qu)bits."""
        return leader_memory_bits(
            self.network.num_nodes, self.optimum_mass_lower_bound()
        )

    def all_eccentricities(self) -> Dict[NodeId, int]:
        """Every node's eccentricity from the sequential CSR oracle."""
        if self._eccentricities is None:
            self._eccentricities = self.network.graph.compile().all_eccentricities()
        return self._eccentricities

    def leader_tree(self, leader: Optional[NodeId]) -> ExecutionMetrics:
        """Elect a leader unless ``leader`` is given, then build
        ``BFS(leader)``; sets ``self.leader`` and ``self.tree``."""
        metrics = ExecutionMetrics()
        if leader is None:
            election = run_leader_election(self.network)
            leader = election.leader
            metrics = metrics.merged(election.metrics)
        self.leader = leader
        self.tree = run_bfs_tree(self.network, leader)
        return metrics.merged(self.tree.metrics)


class DistributedOptimizationResult(Record):
    """Outcome of one distributed quantum optimization run.

    ``simulated_runs`` / ``simulated_rounds`` count the CONGEST
    executions actually simulated during the optimization (as opposed to
    the *modelled* rounds of ``metrics``), observed via a run-log observer
    when the problem exposes its network.
    """

    __slots__ = (
        "best_item",
        "best_value",
        "counts",
        "metrics",
        "initialization_rounds",
        "setup_rounds_per_call",
        "evaluation_rounds_per_call",
        "distinct_evaluations",
        "simulated_runs",
        "simulated_rounds",
    )

    _defaults = {"simulated_runs": 0, "simulated_rounds": 0}

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds (Initialization + all Setup/Evaluation calls)."""
        return self.metrics.rounds


class QuantumProblemResult(Record):
    """What every problem's result holds: resource counts, the total
    metrics and the optimization outcome they came from.

    A subclass adds its answer fields after these three, so results are
    built by keyword.
    """

    __slots__ = ("counts", "metrics", "optimization")

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds used."""
        return self.metrics.rounds

    @property
    def memory_bits_per_node(self) -> int:
        """Maximum per-node (qu)bit memory observed / modelled."""
        return self.metrics.max_node_memory_bits


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

    ``backend`` is the schedule backend of :func:`find_maximum`
    (:mod:`repro.quantum.backend`; ``None``: the batched backend).  The
    differential tests pass the sampling reference here; backends are
    proven byte-identical, so the choice affects wall-clock only.
    """
    rng = rng if rng is not None else random.Random(0)
    network = getattr(problem, "network", None)
    # Reject a bad backend before Initialization runs.
    backend = resolve_schedule_backend(backend)

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

        # find_maximum evaluates each item once; reference mode runs none.
        evaluated: List[Item] = []
        evaluation_costs: List[ExecutionMetrics] = []

        def value_of(item: Item) -> float:
            value, metrics = problem.evaluate(item)
            evaluated.append(item)
            if metrics is not None:
                evaluation_costs.append(metrics)
            return value

        outcome = find_maximum(
            amplitudes,
            value_of=value_of,
            eps=problem.optimum_mass_lower_bound(),
            delta=delta,
            rng=rng,
            budget_constant=budget_constant,
            backend=backend,
        )
        if not evaluation_costs:
            # Charge the run congest mode would: the first item of maximal rank.
            charged = max(evaluated, key=problem.evaluation_cost_rank)
            evaluation_costs.append(problem.congest_evaluation(charged)[1])
    finally:
        if observed:
            network.remove_observer(run_log)

    per_evaluation = max(evaluation_costs, key=lambda metrics: metrics.rounds)
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
        distinct_evaluations=len(evaluated),
        simulated_runs=run_log.runs,
        simulated_rounds=run_log.rounds,
    )
