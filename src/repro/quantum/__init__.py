"""Centralized quantum primitives: amplitude amplification and optimization.

The paper's distributed algorithms are built on "quantum generic search"
(Section 2.3) and its optimization variant (Section 2.4).  This subpackage
provides those primitives in the *centralized* setting, with two faces:

* **exact analytics** -- the Grover rotation algebra
  (:mod:`repro.quantum.amplitude_amplification`): success probability after
  ``k`` iterations, optimal iteration counts, and the query budgets of
  Theorem 6 and Corollary 1;
* **exact sampling simulation** -- because the states appearing in the
  paper's algorithms always live in the two-dimensional span of the
  "marked" and "unmarked" components of the initial superposition, the
  measurement statistics after any number of Grover iterations can be
  sampled exactly without building exponential state vectors.  The search
  (:mod:`repro.quantum.grover`) and maximum-finding
  (:mod:`repro.quantum.maximum_finding`) routines use this to reproduce the
  paper's algorithms faithfully, including their failure probabilities,
  while counting every oracle (Setup / Evaluation) application so that the
  distributed layer can convert query counts into CONGEST rounds
  (:mod:`repro.quantum.cost_model`).

The maximum-finding loop (:func:`repro.quantum.maximum_finding.find_maximum`)
and the amplitude-amplification attempt loop each of its rounds runs are
written once.  A **schedule backend** (:mod:`repro.quantum.backend`)
supplies only each round's marked statistics -- the marked mass and a
conditioned draw: every quantum run uses the batched backend, which
serves them from per-threshold tables computed once over the search
space; the sampling backend, the reference the differential tests hold
it to, rescans the search space every round.  The two are proven
byte-identical for a fixed seed.

A small dense state-vector simulator (:mod:`repro.quantum.state`) is also
provided for register-level unit checks such as the CNOT-copy operation of
Section 2 (``|u>|v> -> |u>|u xor v>``), which is how the Setup procedure
broadcasts the search register over the network.  It needs numpy.

Every name loads its module on first use, so the schedule backends do not
import the numpy :class:`StateVector`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AmplificationOutcome": "repro.quantum.amplitude_amplification",
    "amplification_attempts": "repro.quantum.amplitude_amplification",
    "amplitude_amplification_search": "repro.quantum.amplitude_amplification",
    "grover_success_probability": "repro.quantum.amplitude_amplification",
    "optimal_grover_iterations": "repro.quantum.amplitude_amplification",
    "theorem6_query_budget": "repro.quantum.amplitude_amplification",
    "BatchedScheduleBackend": "repro.quantum.backend",
    "SamplingScheduleBackend": "repro.quantum.backend",
    "ScheduleBackend": "repro.quantum.backend",
    "QuantumCostModel": "repro.quantum.cost_model",
    "QuantumResourceCount": "repro.quantum.cost_model",
    "GroverSearchResult": "repro.quantum.grover",
    "grover_search": "repro.quantum.grover",
    "MaximumFindingResult": "repro.quantum.maximum_finding",
    "find_maximum": "repro.quantum.maximum_finding",
    "uniform_amplitudes": "repro.quantum.maximum_finding",
    "StateVector": "repro.quantum.state",
    "cnot_copy_register": "repro.quantum.state",
})
