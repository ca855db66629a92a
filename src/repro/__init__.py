"""repro: a reproduction of "Sublinear-Time Quantum Computation of the
Diameter in CONGEST Networks" (Le Gall & Magniez, PODC 2018).

The library contains, from the ground up:

* a CONGEST-model network simulator (:mod:`repro.congest`);
* the classical distributed building blocks and baselines
  (:mod:`repro.algorithms`): BFS trees, leader election, Euler-tour
  traversals, the pipelined distance waves of Figure 2, exact diameter in
  ``O(n)`` rounds, and the 3/2-approximation of [LP13, HPRW14];
* centralized quantum primitives (:mod:`repro.quantum`): amplitude
  amplification, Grover search and quantum maximum finding with exact
  measurement statistics and query accounting;
* the distributed quantum optimization framework of Theorem 7
  (:mod:`repro.qcongest`);
* the paper's algorithms (:mod:`repro.core`): Theorem 1 (exact diameter in
  ``O~(sqrt(n D))`` rounds) and Theorem 4 (3/2-approximation in
  ``O~((n D)^(1/3) + D)`` rounds);
* the lower-bound machinery (:mod:`repro.lowerbounds`): gadget reductions,
  the Theorem-10 two-party reduction and the Theorem-11 block-staircase
  simulation;
* analysis helpers (:mod:`repro.analysis`) used by the benchmark harnesses
  to regenerate Table 1 and the figure-level experiments;
* deterministic fault injection (:mod:`repro.faults`): seeded message
  loss/delay, fail-pause node crash/restart and edge churn layered over
  the engine, with retry/backoff counterparts of the building blocks in
  :mod:`repro.algorithms.resilient`.  A grid's
  :class:`repro.faults.FaultModel` is its one run setting, passed as
  itself from the CLI flags down to every network the grid builds.

Quick start::

    from repro.graphs import generators
    from repro.core import quantum_exact_diameter
    from repro.algorithms import run_classical_exact_diameter
    from repro.congest import Network

    graph = generators.clique_chain(num_cliques=4, clique_size=5)
    quantum = quantum_exact_diameter(graph, oracle_mode="reference", seed=1)
    classical = run_classical_exact_diameter(Network(graph))
    print(quantum.diameter, quantum.rounds, classical.diameter, classical.rounds)

Importing :mod:`repro` loads none of the subpackages: import the ones you
use (``import repro.core`` or ``from repro import core``), so each command
pays only for the layers it runs.
"""

__version__ = "1.0.0"

__all__ = [
    "graphs",
    "congest",
    "algorithms",
    "quantum",
    "qcongest",
    "core",
    "faults",
    "lowerbounds",
    "analysis",
    "__version__",
]
