"""Lower-bound machinery: reductions, two-party simulations and bounds.

The paper's lower bounds (Theorems 2 and 3) follow the classical recipe --
reduce two-party set disjointness to diameter computation over a carefully
constructed network -- with two quantum twists: the bounded-round quantum
communication lower bound for disjointness of [BGK+15] (Theorem 5), and the
register-level simulation argument (Theorem 11) needed to handle quantum
information that cannot be copied.

This subpackage implements the machinery concretely:

* :mod:`repro.lowerbounds.disjointness` -- the ``DISJ_k`` function and
  instance generators;
* :mod:`repro.lowerbounds.reductions` -- the ``(b, k, d1, d2)``-reduction
  framework of Definition 3, with verifiers for the HW12 and ACHK-style
  gadget constructions (Theorems 8 and 9);
* :mod:`repro.lowerbounds.two_party` -- two-party protocols with message /
  communication accounting;
* :mod:`repro.lowerbounds.congest_to_two_party` -- Theorem 10: converting a
  CONGEST diameter algorithm run on a gadget graph into a two-party
  protocol for disjointness, with measured message and qubit counts;
* :mod:`repro.lowerbounds.simulation` -- Theorem 11: the path network
  ``G_d`` and the block-staircase simulation turning an ``r``-round
  distributed protocol into an ``O(r/d)``-message two-party protocol of
  ``O(r (bw + s))`` qubits;
* :mod:`repro.lowerbounds.bounds` -- numeric evaluation of the implied
  round lower bounds.

Every name loads its module on first use, so a command that runs one
reduction does not import the others.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "theorem2_lower_bound": "repro.lowerbounds.bounds",
    "theorem3_lower_bound": "repro.lowerbounds.bounds",
    "theorem5_communication_lower_bound": "repro.lowerbounds.bounds",
    "theorem10_lower_bound": "repro.lowerbounds.bounds",
    "TwoPartyReductionOutcome": "repro.lowerbounds.congest_to_two_party",
    "simulate_congest_algorithm_as_two_party_protocol": (
        "repro.lowerbounds.congest_to_two_party"
    ),
    "disjointness": "repro.lowerbounds.disjointness",
    "random_disjoint_instance": "repro.lowerbounds.disjointness",
    "random_instance": "repro.lowerbounds.disjointness",
    "random_intersecting_instance": "repro.lowerbounds.disjointness",
    "DisjointnessReduction": "repro.lowerbounds.reductions",
    "achk_reduction": "repro.lowerbounds.reductions",
    "hw12_reduction": "repro.lowerbounds.reductions",
    "verify_reduction_on_instance": "repro.lowerbounds.reductions",
    "PathNetworkProtocol": "repro.lowerbounds.simulation",
    "PathSimulationResult": "repro.lowerbounds.simulation",
    "simulate_path_protocol_as_two_party": "repro.lowerbounds.simulation",
    "TwoPartyTranscript": "repro.lowerbounds.two_party",
})
