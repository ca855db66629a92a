"""The quantum CONGEST layer: distributed quantum optimization (Section 2.4).

The paper's quantum algorithms all follow the same template (Theorem 7):

1. a classical **Initialization** phase elects a leader and precomputes
   shared structure (a BFS tree, its depth ``d``, ...);
2. a **Setup** unitary spreads the leader's internal register over the
   network, creating ``(1/sqrt(|X|)) sum_x |x>_leader (tensor)_v |x>_v``;
3. an **Evaluation** unitary lets the leader learn ``f(x)`` for the value
   ``x`` carried by the data registers;
4. the leader drives amplitude amplification / maximum finding locally,
   paying ``T_setup + T_evaluation`` rounds per iteration.

Because the global state is always of the form
``sum_x alpha_x |x>_I (tensor) |data(x)>`` with *classical* per-branch data,
the whole computation can be simulated exactly by tracking one classical
data assignment per branch
(:class:`repro.qcongest.branch_state.DistributedSuperposition`) and the
amplitude vector over branches.  The framework
(:mod:`repro.qcongest.framework`) measures the CONGEST round cost of the
Initialization / Setup / Evaluation procedures by actually running them on
the simulator, simulates the maximum-finding schedule exactly (including
its failure probability) with :func:`repro.quantum.maximum_finding.find_maximum`,
whose rounds take their marked statistics from the batched schedule
backend (:mod:`repro.quantum.backend`; the sampling backend is its
byte-identical reference), and reports total rounds, messages and
per-node memory.

Concrete instantiations -- exact diameter (Theorem 1), the
3/2-approximation (Theorem 4), exact radius and single-source
eccentricity -- live in :mod:`repro.core` and are listed by name in
:mod:`repro.core.problems`.  Each subclasses
:class:`repro.qcongest.framework.DistributedSearchProblem` and supplies
only its Initialization, its Evaluation (a congest run and a reference
value) and, where ``1/n`` is not it, its ``P_opt`` bound; the base class
provides the oracle modes, the Setup cost and the rest.

Every name loads its module on first use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DistributedSuperposition": "repro.qcongest.branch_state",
    "DistributedOptimizationResult": "repro.qcongest.framework",
    "DistributedSearchProblem": "repro.qcongest.framework",
    "ORACLE_CONGEST": "repro.qcongest.framework",
    "ORACLE_REFERENCE": "repro.qcongest.framework",
    "QuantumProblemResult": "repro.qcongest.framework",
    "run_distributed_quantum_optimization": "repro.qcongest.framework",
    "run_setup_broadcast": "repro.qcongest.setup",
})
