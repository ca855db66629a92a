"""Picklable sweep algorithms for batched grids, with correctness metadata.

Grid cells are shipped to pool and remote workers, where lambdas and
closures do not travel.  This module hosts the standard Table-1
measurement kernels as module-level functions so that grid tasks can
reference them by **name**; every kernel has the uniform signature
``(graph, seed, fault) -> (rounds, value)``, receives a deterministic
per-task seed from the batch layer and builds its networks under the
grid's :class:`repro.faults.FaultModel`.

Each registry entry is a :class:`SweepAlgorithmInfo` carrying an explicit
correctness contract -- the sweep layer reads that metadata instead of
sniffing algorithm *names* (the seed behaviour keyed correctness checks
off the substring ``"exact"``, which silently skipped any exact algorithm
whose name did not contain it and could never validate approximation
guarantees).  Three contracts exist:

* :data:`EXACT` -- the returned value must equal the true diameter.  Exact
  algorithms force the sequential diameter oracle to run.
* :data:`TWO_APPROX` -- the single-BFS eccentricity bound
  ``ceil(D / 2) <= value <= D``.
* :data:`THREE_HALVES` -- the [HPRW14] / Theorem-4 bound
  ``floor(2 D / 3) <= value <= D`` (this repository's 3/2-approximations
  return *underestimates*; the bound is the one proved for ``D_hat`` in
  :mod:`repro.algorithms.diameter_approx`).

Approximation contracts do **not** force the oracle (sweeps of pure
approximation algorithms stay cheap, see
:mod:`repro.analysis.sweep`); they are validated opportunistically
whenever the oracle is available because some exact algorithm in the same
sweep already paid for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.graphs.graph import Graph

if TYPE_CHECKING:
    from repro.faults import FaultModel

SweepAlgorithm = Callable[..., Tuple[int, float]]

#: Correctness contracts understood by the sweep layer.
EXACT = "exact"
TWO_APPROX = "two_approx"
THREE_HALVES = "three_halves"

GUARANTEES = (EXACT, TWO_APPROX, THREE_HALVES)


@dataclass(frozen=True)
class SweepAlgorithmInfo:
    """A measurement kernel plus its explicit correctness contract.

    ``guarantee`` is one of :data:`GUARANTEES` or ``None`` (no check).
    ``force_oracle`` overrides whether this algorithm *requires* the
    sequential diameter oracle; by default only :data:`EXACT` algorithms
    do, and approximation guarantees are checked opportunistically when
    the oracle is available anyway.

    ``oracle`` optionally replaces the correctness *target*: by default a
    guarantee is validated against the graph's true diameter, but an
    algorithm computing a different quantity (the quantum radius and
    source-eccentricity problems of :mod:`repro.core.problems`) supplies
    its own module-level ground-truth callable ``(graph) -> float`` here.
    Custom-oracle algorithms never force the shared diameter oracle (it
    would be checked against the wrong quantity); their target is
    computed per record on the compiled CSR view.

    Instances are callable and delegate to the kernel, so existing code
    that treats registry values as plain callables keeps working.
    """

    kernel: SweepAlgorithm
    guarantee: Optional[str] = None
    force_oracle: Optional[bool] = None
    oracle: Optional[Callable[[Graph], float]] = None

    def __post_init__(self) -> None:
        if self.guarantee is not None and self.guarantee not in GUARANTEES:
            known = ", ".join(GUARANTEES)
            raise ValueError(
                f"unknown guarantee {self.guarantee!r} (available: {known})"
            )

    @property
    def needs_oracle(self) -> bool:
        """Whether this algorithm forces the *diameter* oracle to run."""
        if self.force_oracle is not None:
            return self.force_oracle
        return self.guarantee == EXACT and self.oracle is None

    def check_target(self, graph: Graph) -> Optional[float]:
        """The ground-truth value this algorithm's guarantee is checked
        against, when it differs from the shared diameter oracle."""
        if self.oracle is None:
            return None
        return float(self.oracle(graph))

    def __call__(self, *args, **kwargs) -> Tuple[int, float]:
        return self.kernel(*args, **kwargs)


def classical_exact(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Classical exact diameter (the PRT12/HW12-style baseline)."""
    from repro.algorithms.diameter_exact import run_classical_exact_diameter
    from repro.congest.network import Network

    network = Network(graph, seed=seed, fault_model=fault)
    result = run_classical_exact_diameter(network)
    return result.rounds, float(result.diameter)


def two_approx(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Classical 2-approximation (BFS from one node)."""
    from repro.algorithms.diameter_approx import run_classical_two_approximation
    from repro.congest.network import Network

    network = Network(graph, seed=seed, fault_model=fault)
    result = run_classical_two_approximation(network)
    return result.rounds, float(result.estimate)


def two_approx_retry(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Fault-tolerant 2-approximation (retrying BFS flood with backoff).

    The robustness counterpart of :func:`two_approx`: on a fault-free
    network both certify the same eccentricity bound, but this variant
    keeps converging under the message loss / churn / crash models of
    :mod:`repro.faults` (``benchmarks/bench_faults.py`` measures the
    success-probability gap).  The network runs under the grid's fault
    model, exactly like every other kernel.
    """
    from repro.algorithms.resilient import run_resilient_two_approximation
    from repro.congest.network import Network

    network = Network(graph, seed=seed, fault_model=fault)
    result = run_resilient_two_approximation(network)
    return result.rounds, float(result.estimate)


def hprw_three_halves(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Classical 3/2-approximation of [HPRW14]."""
    from repro.algorithms.diameter_approx import run_hprw_three_halves_approximation
    from repro.congest.network import Network

    network = Network(graph, seed=seed, fault_model=fault)
    result = run_hprw_three_halves_approximation(network, seed=seed)
    return result.rounds, float(result.estimate)


def quantum_problem_kernel(
    graph: Graph,
    seed: int,
    fault: Optional[FaultModel] = None,
    problem: str = "exact_diameter",
) -> Tuple[int, float]:
    """Run a registered quantum problem (reference oracle mode) as a sweep cell.

    The per-cell ``seed`` feeds two *independent* streams -- the CONGEST
    network's node randomness and the quantum schedule's measurement
    randomness -- derived with :func:`repro.runner.batch.task_seed`.
    Earlier revisions passed the raw seed to both, correlating leader
    election tie-breaks with the schedule's measurement draws (the same
    aliasing fixed for the sweep's graph-vs-algorithm seed split).
    The schedule runs on the batched backend; ``fault`` travels with
    the grid's task context, so parallel sweeps run under the same fault
    model.
    """
    from repro.congest.network import Network
    from repro.core.problems import resolve_quantum_problem
    from repro.runner.batch import task_seed

    info = resolve_quantum_problem(problem)
    network_seed = task_seed(seed, "quantum-network-stream")
    schedule_seed = task_seed(seed, "quantum-schedule-stream")
    run = info.solve(
        Network(graph, seed=network_seed, fault_model=fault),
        oracle_mode="reference",
        seed=schedule_seed,
    )
    return run.rounds, run.value


def quantum_exact(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Quantum exact diameter (Theorem 1), reference oracle mode."""
    return quantum_problem_kernel(graph, seed, fault, problem="exact_diameter")


def quantum_three_halves(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Quantum 3/2-approximation (Theorem 4), reference oracle mode."""
    return quantum_problem_kernel(graph, seed, fault, problem="three_halves")


def quantum_radius(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Quantum exact radius (Theorem-7 instantiation), reference oracle mode."""
    return quantum_problem_kernel(graph, seed, fault, problem="radius")


def quantum_source_ecc(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Quantum single-source eccentricity, reference oracle mode."""
    return quantum_problem_kernel(graph, seed, fault, problem="source_ecc")


def _radius_oracle(graph: Graph) -> float:
    """Ground truth for ``quantum_radius`` (compiled CSR view)."""
    from repro.core.problems import radius_oracle

    return radius_oracle(graph)


def _source_ecc_oracle(graph: Graph) -> float:
    """Ground truth for ``quantum_source_ecc`` (compiled CSR view)."""
    from repro.core.problems import source_eccentricity_oracle

    return source_eccentricity_oracle(graph)


#: The registry the CLI ``sweep`` command and the batched grids draw from.
#: Values carry the correctness metadata the sweep layer keys off.  The
#: ``quantum_*`` entries are shims over the problem registry of
#: :mod:`repro.core.problems` (``repro quantum`` enumerates the same
#: problems directly).
SWEEP_ALGORITHMS: Dict[str, SweepAlgorithmInfo] = {
    "classical_exact": SweepAlgorithmInfo(classical_exact, guarantee=EXACT),
    "two_approx": SweepAlgorithmInfo(two_approx, guarantee=TWO_APPROX),
    "two_approx_retry": SweepAlgorithmInfo(two_approx_retry, guarantee=TWO_APPROX),
    "hprw_three_halves": SweepAlgorithmInfo(
        hprw_three_halves, guarantee=THREE_HALVES
    ),
    "quantum_exact": SweepAlgorithmInfo(quantum_exact, guarantee=EXACT),
    "quantum_three_halves": SweepAlgorithmInfo(
        quantum_three_halves, guarantee=THREE_HALVES
    ),
    "quantum_radius": SweepAlgorithmInfo(
        quantum_radius, guarantee=EXACT, oracle=_radius_oracle
    ),
    "quantum_source_ecc": SweepAlgorithmInfo(
        quantum_source_ecc, guarantee=EXACT, oracle=_source_ecc_oracle
    ),
}

#: Problem-registry name -> sweep-registry name.  ``repro quantum`` uses
#: this to run registered problems through ``run_sweep_grid`` under the
#: same algorithm names as ``repro sweep``, so stores, exports and resume
#: are interoperable between the two commands.
QUANTUM_SWEEP_NAMES: Dict[str, str] = {
    "exact_diameter": "quantum_exact",
    "three_halves": "quantum_three_halves",
    "radius": "quantum_radius",
    "source_ecc": "quantum_source_ecc",
}


def sweep_algorithm_for_problem(problem: str) -> Tuple[str, SweepAlgorithmInfo]:
    """The sweep-registry ``(name, entry)`` for a registered quantum problem.

    The four built-in problems map to their fixed
    :data:`SWEEP_ALGORITHMS` entries (:data:`QUANTUM_SWEEP_NAMES`).
    Problems registered at runtime via
    :func:`repro.core.problems.register_quantum_problem` get an
    on-the-fly entry named ``quantum_<problem>`` whose kernel is a
    picklable :func:`functools.partial` of
    :func:`quantum_problem_kernel`, carrying the problem's own guarantee
    and ground-truth oracle.  A runtime problem whose derived name would
    shadow an existing sweep algorithm is rejected: silently returning
    the unrelated built-in entry would run the wrong kernel and validate
    against the wrong oracle.
    """
    import functools

    from repro.core.problems import resolve_quantum_problem

    problem_info = resolve_quantum_problem(problem)
    canonical = QUANTUM_SWEEP_NAMES.get(problem)
    if canonical is not None:
        return canonical, SWEEP_ALGORITHMS[canonical]
    sweep_name = f"quantum_{problem}"
    if sweep_name in SWEEP_ALGORITHMS:
        raise ValueError(
            f"quantum problem {problem!r} derives sweep name {sweep_name!r}, "
            "which already names a different sweep algorithm; register the "
            "problem under a non-colliding name"
        )
    return sweep_name, SweepAlgorithmInfo(
        functools.partial(quantum_problem_kernel, problem=problem),
        guarantee=problem_info.guarantee,
        oracle=problem_info.oracle,
    )


def resolve_algorithms(names) -> Dict[str, SweepAlgorithmInfo]:
    """Map algorithm names to registry entries, raising on unknown names."""
    table: Dict[str, SweepAlgorithmInfo] = {}
    for name in names:
        info = SWEEP_ALGORITHMS.get(name)
        if info is None:
            known = ", ".join(sorted(SWEEP_ALGORITHMS))
            raise ValueError(f"unknown sweep algorithm {name!r} (available: {known})")
        table[name] = info
    return table
