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

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro._record import FrozenRecord
from repro.graphs.graph import Graph

if TYPE_CHECKING:
    from repro.congest.network import Network
    from repro.faults import FaultModel

SweepAlgorithm = Callable[..., Tuple[int, float]]

#: Correctness contracts understood by the sweep layer.
EXACT = "exact"
TWO_APPROX = "two_approx"
THREE_HALVES = "three_halves"

GUARANTEES = (EXACT, TWO_APPROX, THREE_HALVES)


class SweepAlgorithmInfo(FrozenRecord):
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

    __slots__ = ("kernel", "guarantee", "force_oracle", "oracle")

    def __init__(
        self,
        kernel: SweepAlgorithm,
        guarantee: Optional[str] = None,
        force_oracle: Optional[bool] = None,
        oracle: Optional[Callable[[Graph], float]] = None,
    ) -> None:
        if guarantee is not None and guarantee not in GUARANTEES:
            known = ", ".join(GUARANTEES)
            raise ValueError(f"unknown guarantee {guarantee!r} (available: {known})")
        super().__init__(kernel, guarantee, force_oracle, oracle)

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


def quantum_seeds(seed: int) -> Tuple[int, int]:
    """The independent ``(network, schedule)`` seeds of one quantum run.

    One seed must not feed both the CONGEST network's node randomness and
    the quantum schedule's measurement randomness: with the raw value in
    both, leader election tie-breaks would replay the schedule's
    measurement draws.  Both streams derive from ``seed`` with
    :func:`repro.runner.batch.task_seed`; the sweep kernels below and the
    ``diameter``/``approx`` commands share this split.
    """
    from repro.runner.batch import task_seed

    return (
        task_seed(seed, "quantum-network-stream"),
        task_seed(seed, "quantum-schedule-stream"),
    )


def _quantum_network(
    graph: Graph, seed: int, fault: Optional[FaultModel]
) -> Tuple[Network, int]:
    """The network of one quantum sweep cell, and its schedule seed.

    The network runs under the grid's fault model; the schedule runs on
    the batched backend in reference oracle mode.
    """
    from repro.congest.network import Network

    network_seed, schedule_seed = quantum_seeds(seed)
    return Network(graph, seed=network_seed, fault_model=fault), schedule_seed


def quantum_exact(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Quantum exact diameter (Theorem 1), reference oracle mode."""
    from repro.core.exact_diameter import quantum_exact_diameter

    network, schedule_seed = _quantum_network(graph, seed, fault)
    result = quantum_exact_diameter(
        network, oracle_mode="reference", seed=schedule_seed
    )
    return result.rounds, float(result.diameter)


def quantum_three_halves(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Quantum 3/2-approximation (Theorem 4), reference oracle mode."""
    from repro.core.approx_diameter import quantum_three_halves_diameter

    network, schedule_seed = _quantum_network(graph, seed, fault)
    result = quantum_three_halves_diameter(
        network, oracle_mode="reference", seed=schedule_seed
    )
    return result.rounds, float(result.estimate)


def quantum_radius(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Quantum exact radius (Theorem-7 instantiation), reference oracle mode."""
    from repro.core.radius import quantum_exact_radius

    network, schedule_seed = _quantum_network(graph, seed, fault)
    result = quantum_exact_radius(
        network, oracle_mode="reference", seed=schedule_seed
    )
    return result.rounds, float(result.radius)


def quantum_source_ecc(
    graph: Graph, seed: int, fault: Optional[FaultModel] = None
) -> Tuple[int, float]:
    """Quantum single-source eccentricity, reference oracle mode."""
    from repro.core.source_ecc import quantum_source_eccentricity

    network, schedule_seed = _quantum_network(graph, seed, fault)
    result = quantum_source_eccentricity(
        network, oracle_mode="reference", seed=schedule_seed
    )
    return result.rounds, float(result.eccentricity)


def radius_oracle(graph: Graph) -> float:
    """Ground truth for ``quantum_radius``: the radius (compiled CSR view)."""
    return float(graph.compile().radius())


def source_eccentricity_oracle(graph: Graph) -> float:
    """Ground truth for ``quantum_source_ecc``: ``ecc`` of the graph's
    first node, the default source (compiled CSR view)."""
    return float(graph.compile().eccentricity(graph.nodes()[0]))


#: The registry the CLI ``sweep`` command and the batched grids draw from.
#: Values carry the correctness metadata the sweep layer keys off.  The
#: ``quantum_*`` entries run the Theorem-7 problems of
#: :mod:`repro.core.problems` (``repro quantum`` names them by problem).
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
        quantum_radius, guarantee=EXACT, oracle=radius_oracle
    ),
    "quantum_source_ecc": SweepAlgorithmInfo(
        quantum_source_ecc, guarantee=EXACT, oracle=source_eccentricity_oracle
    ),
}


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
