"""The paper's algorithms: quantum exact and approximate diameter computation.

* :mod:`repro.core.exact_diameter` -- Theorem 1: an ``O~(sqrt(n D))``-round
  quantum distributed algorithm computing the exact diameter (plus the
  simpler ``O~(sqrt(n) * D)`` variant of Section 3.1);
* :mod:`repro.core.approx_diameter` -- Theorem 4: an
  ``O~((n D)^(1/3) + D)``-round quantum 3/2-approximation;
* :mod:`repro.core.coverage` -- the window sets ``S(u)`` of Definition 2 and
  the coverage bound of Lemma 1 that drives ``P_opt >= d / 2n``;
* :mod:`repro.core.radius` -- quantum exact radius (Theorem 7 pointed at
  a minimum) and :mod:`repro.core.source_ecc` -- quantum single-source
  eccentricity, the framework's calibration workload;
* :mod:`repro.core.problems` -- the Theorem-7 problems ``repro quantum``
  offers, as plain data (name, sweep name, theorem, guarantee);
* :mod:`repro.core.complexity` -- the round-complexity formulas of every
  entry of Table 1, used by the benchmark harnesses for the
  paper-versus-measured comparison.

The four quantum problem modules each hold one
:class:`repro.qcongest.framework.DistributedSearchProblem` subclass, which
supplies only the problem's Initialization, its Evaluation (run on the
simulator, and as a reference value) and, where ``1/n`` is not it, its
``P_opt`` bound.  The oracle modes, Setup cost, amplitudes, register size
and the shared result fields
(:class:`repro.qcongest.framework.QuantumProblemResult`) live in the
framework, written once.

Every name loads its module on first use: reading the problem table
(:mod:`repro.core.problems`) does not import the quantum algorithms, and a
classical sweep imports none of this package.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "QuantumApproxDiameterResult": "repro.core.approx_diameter",
    "quantum_three_halves_diameter": "repro.core.approx_diameter",
    "Table1Row": "repro.core.complexity",
    "table1_rows": "repro.core.complexity",
    "coverage_probability": "repro.core.coverage",
    "empirical_optimum_mass": "repro.core.coverage",
    "popt_lower_bound": "repro.core.coverage",
    "window_set": "repro.core.coverage",
    "QuantumDiameterResult": "repro.core.exact_diameter",
    "quantum_exact_diameter": "repro.core.exact_diameter",
    "QUANTUM_PROBLEMS": "repro.core.problems",
    "QuantumProblemInfo": "repro.core.problems",
    "quantum_problem_names": "repro.core.problems",
    "resolve_quantum_problem": "repro.core.problems",
    "QuantumRadiusResult": "repro.core.radius",
    "quantum_exact_radius": "repro.core.radius",
    "QuantumSourceEccentricityResult": "repro.core.source_ecc",
    "quantum_source_eccentricity": "repro.core.source_ecc",
})
