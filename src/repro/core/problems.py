"""The quantum problem registry: named, picklable Theorem-7 workloads.

Every quantum algorithm in this repository is one instantiation of the
distributed quantum optimization framework (Theorem 7); this module makes
those instantiations **first-class citizens** -- named, discoverable and
picklable -- so the batch runner, ``run_sweep_grid``, the experiment
store and the CLI treat a quantum optimization run exactly like a
classical sweep algorithm (provenance headers, checkpoint/resume,
CSV/JSONL export).

Each :class:`QuantumProblemInfo` bundles:

* ``solve`` -- a module-level (hence picklable) entry point with the
  uniform signature ``solve(network, *, oracle_mode, seed, delta,
  budget_constant, backend, runner) -> QuantumProblemRun``;
* ``oracle`` -- the sequential ground truth, computed on the PR-4
  compiled CSR view (:meth:`repro.graphs.graph.Graph.compile`), used by
  the sweep layer's correctness gate;
* ``guarantee`` -- the contract the gate validates (``"exact"`` against
  the problem's own oracle, or the Theorem-4 ``"three_halves"`` band);
* paper coordinates (``theorem``) and a one-line ``description`` for
  ``repro quantum --list``.

Registered problems (the registry is open: :func:`register_quantum_problem`
accepts new entries, e.g. from tests):

===================  ==========  ==========================================
name                 theorem     optimizes
===================  ==========  ==========================================
``exact_diameter``   Theorem 1   ``max_u0 max_{v in S(u0)} ecc(v)``
``three_halves``     Theorem 4   ``max_{u0 in R} max_{v in S_R(u0)} ecc(v)``
``radius``           Theorem 7   ``max_u0 -ecc(u0)`` (a center)
``source_ecc``       Theorem 7   ``max_v dist(s, v)`` for fixed ``s``
===================  ==========  ==========================================

The sweep kernels in :mod:`repro.runner.algorithms` are thin shims over
this registry (``quantum_<name>`` entries in ``SWEEP_ALGORITHMS``), and
``repro quantum`` enumerates it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:
    # Annotations only: reading the registry (``repro quantum --list``)
    # loads neither the simulator nor the quantum framework.
    from repro.congest.network import Network
    from repro.graphs.graph import Graph
    from repro.qcongest.framework import DistributedOptimizationResult
    from repro.quantum.cost_model import QuantumResourceCount

#: Guarantee names understood by the sweep layer (mirrored from
#: :mod:`repro.runner.algorithms`; duplicated literals to avoid an import
#: cycle -- the runner registry imports this module).
GUARANTEE_EXACT = "exact"
GUARANTEE_THREE_HALVES = "three_halves"


@dataclass
class QuantumProblemRun:
    """Uniform summary of one registered-problem run.

    ``value`` is the problem's headline answer (diameter estimate,
    radius, eccentricity, ...) as a float; ``result`` keeps the
    problem-specific result object for callers that want the details.
    """

    problem: str
    value: float
    rounds: int
    counts: QuantumResourceCount
    optimization: DistributedOptimizationResult
    result: Any


@dataclass(frozen=True)
class QuantumProblemInfo:
    """One registry entry: a named, picklable Theorem-7 workload."""

    name: str
    theorem: str
    description: str
    #: ``solve(network, *, oracle_mode, seed, delta, budget_constant,
    #: backend, runner) -> QuantumProblemRun`` -- module-level, picklable.
    solve: Callable[..., QuantumProblemRun]
    #: Sequential ground truth on the compiled CSR view.
    oracle: Callable[[Graph], float]
    #: Sweep-layer correctness contract against ``oracle``'s value.
    guarantee: str = GUARANTEE_EXACT


# ----------------------------------------------------------------------
# Solve wrappers (module-level so grid tasks can pickle them by name).

def solve_exact_diameter(network: Network, **options: Any) -> QuantumProblemRun:
    """Theorem 1 (windowed variant) through the uniform interface."""
    from repro.core.exact_diameter import quantum_exact_diameter

    result = quantum_exact_diameter(network, **options)
    return QuantumProblemRun(
        problem="exact_diameter",
        value=float(result.diameter),
        rounds=result.rounds,
        counts=result.counts,
        optimization=result.optimization,
        result=result,
    )


def solve_three_halves(network: Network, **options: Any) -> QuantumProblemRun:
    """Theorem 4 through the uniform interface."""
    from repro.core.approx_diameter import quantum_three_halves_diameter

    result = quantum_three_halves_diameter(network, **options)
    return QuantumProblemRun(
        problem="three_halves",
        value=float(result.estimate),
        rounds=result.rounds,
        counts=result.counts,
        optimization=result.optimization,
        result=result,
    )


def solve_radius(network: Network, **options: Any) -> QuantumProblemRun:
    """Exact radius (Theorem-7 instantiation) through the uniform interface."""
    from repro.core.radius import quantum_exact_radius

    result = quantum_exact_radius(network, **options)
    return QuantumProblemRun(
        problem="radius",
        value=float(result.radius),
        rounds=result.rounds,
        counts=result.counts,
        optimization=result.optimization,
        result=result,
    )


def solve_source_eccentricity(network: Network, **options: Any) -> QuantumProblemRun:
    """Single-source eccentricity (Theorem-7) through the uniform interface."""
    from repro.core.source_ecc import quantum_source_eccentricity

    result = quantum_source_eccentricity(network, **options)
    return QuantumProblemRun(
        problem="source_ecc",
        value=float(result.eccentricity),
        rounds=result.rounds,
        counts=result.counts,
        optimization=result.optimization,
        result=result,
    )


# ----------------------------------------------------------------------
# Ground-truth oracles (PR-4 compiled CSR view; module-level, picklable).

def diameter_oracle(graph: Graph) -> float:
    """True diameter from the sequential CSR oracle."""
    return float(graph.compile().diameter())


def radius_oracle(graph: Graph) -> float:
    """True radius from the sequential CSR oracle."""
    return float(graph.compile().radius())


def source_eccentricity_oracle(graph: Graph) -> float:
    """True ``ecc`` of the default source (the graph's first node)."""
    return float(graph.compile().eccentricity(graph.nodes()[0]))


# ----------------------------------------------------------------------

QUANTUM_PROBLEMS: Dict[str, QuantumProblemInfo] = {}


def register_quantum_problem(info: QuantumProblemInfo) -> QuantumProblemInfo:
    """Add ``info`` to the registry (replacing a same-named entry)."""
    QUANTUM_PROBLEMS[info.name] = info
    return info


def resolve_quantum_problem(name: str) -> QuantumProblemInfo:
    """Map a problem name to its registry entry, raising on unknown names."""
    info = QUANTUM_PROBLEMS.get(name)
    if info is None:
        known = ", ".join(sorted(QUANTUM_PROBLEMS))
        raise ValueError(f"unknown quantum problem {name!r} (available: {known})")
    return info


def quantum_problem_names() -> Tuple[str, ...]:
    """Registered problem names in sorted order."""
    return tuple(sorted(QUANTUM_PROBLEMS))


register_quantum_problem(
    QuantumProblemInfo(
        name="exact_diameter",
        theorem="Theorem 1",
        description="exact diameter via windowed eccentricity maximisation",
        solve=solve_exact_diameter,
        oracle=diameter_oracle,
        guarantee=GUARANTEE_EXACT,
    )
)
register_quantum_problem(
    QuantumProblemInfo(
        name="three_halves",
        theorem="Theorem 4",
        description="3/2-approximate diameter (HPRW preparation + quantum ball phase)",
        solve=solve_three_halves,
        oracle=diameter_oracle,
        guarantee=GUARANTEE_THREE_HALVES,
    )
)
register_quantum_problem(
    QuantumProblemInfo(
        name="radius",
        theorem="Theorem 7",
        description="exact radius via eccentricity minimisation",
        solve=solve_radius,
        oracle=radius_oracle,
        guarantee=GUARANTEE_EXACT,
    )
)
register_quantum_problem(
    QuantumProblemInfo(
        name="source_ecc",
        theorem="Theorem 7",
        description="single-source eccentricity of the first node",
        solve=solve_source_eccentricity,
        oracle=source_eccentricity_oracle,
        guarantee=GUARANTEE_EXACT,
    )
)
