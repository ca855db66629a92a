"""Classical distributed algorithms on the CONGEST simulator.

This subpackage contains both the *building blocks* used by the paper's
quantum algorithms (leader election, BFS-tree construction, tree
broadcast/convergecast, Euler-tour traversal, the pipelined distance waves
of Figure 2) and the *classical baselines* the paper compares against
(exact diameter in ``O(n)`` rounds in the style of [PRT12, HW12], and the
3/2-approximation in ``O~(sqrt(n) + D)`` rounds in the style of
[LP13, HPRW14]).

Every public ``run_*`` helper takes a :class:`repro.congest.network.Network`
and returns a small result object carrying both the computed values and the
:class:`repro.congest.metrics.ExecutionMetrics` of the execution, so callers
can compose phases and account for total round complexity.

Every name loads its module on first use, so a command that runs one
algorithm does not import the others.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BFSTreeResult": "repro.algorithms.bfs",
    "run_bfs_tree": "repro.algorithms.bfs",
    "run_tree_aggregate_max": "repro.algorithms.broadcast",
    "run_tree_aggregate_sum": "repro.algorithms.broadcast",
    "run_tree_broadcast": "repro.algorithms.broadcast",
    "EulerTourResult": "repro.algorithms.dfs_traversal",
    "run_full_euler_tour": "repro.algorithms.dfs_traversal",
    "run_windowed_euler_tour": "repro.algorithms.dfs_traversal",
    "ApproxDiameterResult": "repro.algorithms.diameter_approx",
    "run_classical_two_approximation": "repro.algorithms.diameter_approx",
    "run_hprw_three_halves_approximation": "repro.algorithms.diameter_approx",
    "ExactDiameterResult": "repro.algorithms.diameter_exact",
    "run_classical_exact_diameter": "repro.algorithms.diameter_exact",
    "run_eccentricity": "repro.algorithms.eccentricity",
    "EvaluationResult": "repro.algorithms.evaluation",
    "run_evaluation_procedure": "repro.algorithms.evaluation",
    "LeaderElectionResult": "repro.algorithms.leader_election",
    "run_leader_election": "repro.algorithms.leader_election",
    "run_multi_source_bfs": "repro.algorithms.multi_source_bfs",
    "ResilientBFSResult": "repro.algorithms.resilient",
    "run_resilient_bfs": "repro.algorithms.resilient",
    "run_resilient_two_approximation": "repro.algorithms.resilient",
    "WaveScheduleEntry": "repro.algorithms.waves",
    "run_distance_waves": "repro.algorithms.waves",
})
