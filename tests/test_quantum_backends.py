"""Differential tests: the batched schedule backend == the sampling one.

Maximum finding is one loop (:func:`find_maximum`); a backend supplies
only each round's marked statistics.  The batched backend's contract is
*byte identity* with the sampling reference for a fixed seed -- same
values, same Setup / Evaluation / measurement counts, same conditioned
samples -- across every Theorem-7 problem, graph family and execution
path (including a parallel sweep grid).  These tests mirror the
dense==sparse scheduler differential suite.  Every quantum run uses the
batched backend; the sampling backend is reachable only as an instance
passed to ``backend=``.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.network import Network
from repro.core import (
    quantum_exact_diameter,
    quantum_exact_radius,
    quantum_source_eccentricity,
    quantum_three_halves_diameter,
)
from repro.core.problems import QUANTUM_PROBLEMS
from repro.graphs import generators
from repro.quantum.backend import (
    BatchedScheduleBackend,
    SamplingScheduleBackend,
    resolve_schedule_backend,
)
from repro.quantum.grover import grover_search
from repro.quantum.maximum_finding import find_maximum, uniform_amplitudes
from repro.runner.batch import BatchRunner

settings.register_profile(
    "repro-backends",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro-backends")

SAMPLING = SamplingScheduleBackend()
BATCHED = BatchedScheduleBackend()

#: The two backends by name, for the paired runs below.
BACKENDS = {"sampling": SAMPLING, "batched": BATCHED}

#: Each problem's :mod:`repro.core` entry point and its answer field.
ENTRY_POINTS = {
    "exact_diameter": (quantum_exact_diameter, "diameter"),
    "three_halves": (quantum_three_halves_diameter, "estimate"),
    "radius": (quantum_exact_radius, "radius"),
    "source_ecc": (quantum_source_eccentricity, "eccentricity"),
}


def _solve(problem, network, **options):
    """Run ``problem`` through its entry point; return ``(answer, result)``."""
    entry, field = ENTRY_POINTS[problem]
    result = entry(network, **options)
    return getattr(result, field), result


#: The graph families the sweep layer exercises, at differential sizes.
FAMILY_GRAPHS = [
    ("cycle", generators.cycle_graph(17)),
    ("path", generators.path_graph(13)),
    ("clique_chain", generators.clique_chain(3, 4)),
    ("random_sparse", generators.family_for_sweep("random_sparse", 30, seed=4)),
    ("random_tree", generators.random_tree(21, seed=8)),
]


class TestBackendRegistry:
    def test_resolution(self):
        assert type(resolve_schedule_backend(None)) is BatchedScheduleBackend
        assert resolve_schedule_backend(SAMPLING) is SAMPLING
        for name in ("batched", "sampling"):
            with pytest.raises(TypeError, match="ScheduleBackend instance"):
                resolve_schedule_backend(name)

    def test_unknown_default_rejected(self):
        """No network parameter selects a backend any more."""
        with pytest.raises(TypeError):
            Network(generators.path_graph(3), backend="sampling")


class TestMaximumFindingDifferential:
    def _assert_identical(self, values, eps, seeds=40, delta=0.1):
        amplitudes = uniform_amplitudes(values)
        for seed in range(seeds):
            sampling = find_maximum(
                amplitudes, values.__getitem__, eps=eps,
                delta=delta, rng=random.Random(seed), backend=SAMPLING,
            )
            batched = find_maximum(
                amplitudes, values.__getitem__, eps=eps,
                delta=delta, rng=random.Random(seed), backend=BATCHED,
            )
            assert sampling == batched, f"seed {seed}: {sampling} != {batched}"

    def test_distinct_values(self):
        self._assert_identical({i: i for i in range(50)}, eps=1 / 50)

    def test_few_distinct_values(self):
        self._assert_identical({i: (i * 7) % 5 for i in range(60)}, eps=5 / 120)

    def test_constant_function(self):
        self._assert_identical({i: 3.0 for i in range(20)}, eps=0.5)

    def test_negative_values(self):
        """The radius problem optimizes -ecc; thresholds are negative."""
        self._assert_identical({i: -((i * 11) % 9) for i in range(40)}, eps=1 / 40)

    def test_single_item(self):
        self._assert_identical({"only": 7.0}, eps=1.0, seeds=10)

    def test_tiny_delta_long_schedule(self):
        self._assert_identical(
            {i: (i * 13) % 23 for i in range(64)}, eps=1 / 128,
            seeds=15, delta=0.01,
        )

    def test_matches_reference_find_maximum(self):
        """The default backend matches the sampling reference."""
        values = {i: (i * 5) % 17 for i in range(32)}
        amplitudes = uniform_amplitudes(values)
        for seed in (0, 7, 23):
            reference = find_maximum(
                amplitudes, values.__getitem__, eps=1 / 32,
                rng=random.Random(seed), backend=SamplingScheduleBackend(),
            )
            batched = find_maximum(
                amplitudes, values.__getitem__, eps=1 / 32,
                rng=random.Random(seed),
            )
            assert batched == reference

    def test_value_of_called_once_per_item_in_reference_order(self):
        """Both backends evaluate every item exactly once, best-item first."""
        values = {i: (i * 3) % 11 for i in range(25)}
        amplitudes = uniform_amplitudes(values)
        for backend in (SAMPLING, BATCHED):
            calls = []

            def value_of(item):
                calls.append(item)
                return values[item]

            find_maximum(
                amplitudes, value_of, eps=1 / 25, rng=random.Random(9),
                backend=backend,
            )
            assert len(calls) == len(values)
            assert sorted(calls) == sorted(values)
            if backend is SAMPLING:
                reference_order = calls
        assert calls == reference_order

    def test_validation_matches_reference(self):
        for backend in (SAMPLING, BATCHED):
            with pytest.raises(ValueError):
                find_maximum({}, lambda x: 0.0, eps=0.5, backend=backend)
            with pytest.raises(ValueError):
                find_maximum(
                    {0: 1.0}, lambda x: 0.0, eps=0.0, backend=backend
                )
            with pytest.raises(ValueError, match="normalised"):
                find_maximum(
                    {0: 1.0, 1: 1.0}, lambda x: 0.0, eps=0.5,
                    rng=random.Random(0), backend=backend,
                )

    @given(
        values=st.lists(
            st.integers(min_value=-50, max_value=50), min_size=1, max_size=60
        ),
        seed=st.integers(min_value=0, max_value=2 ** 31),
        eps_denominator=st.integers(min_value=1, max_value=200),
    )
    def test_property_identical_results(self, values, seed, eps_denominator):
        table = {index: float(value) for index, value in enumerate(values)}
        amplitudes = uniform_amplitudes(table)
        eps = 1.0 / eps_denominator
        sampling = find_maximum(
            table and amplitudes, table.__getitem__, eps=eps,
            rng=random.Random(seed), backend=SAMPLING,
        )
        batched = find_maximum(
            amplitudes, table.__getitem__, eps=eps, rng=random.Random(seed),
            backend=BATCHED,
        )
        assert sampling == batched

    @given(
        weights=st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=30
        ),
        seed=st.integers(min_value=0, max_value=2 ** 31),
    )
    def test_property_nonuniform_amplitudes(self, weights, seed):
        """Identity holds for arbitrary (normalised) Setup amplitudes."""
        norm = math.sqrt(sum(weight ** 2 for weight in weights))
        amplitudes = {
            index: weight / norm for index, weight in enumerate(weights)
        }
        values = {index: float((index * 7) % 5) for index in amplitudes}
        sampling = find_maximum(
            amplitudes, values.__getitem__, eps=0.25, rng=random.Random(seed),
            backend=SAMPLING,
        )
        batched = find_maximum(
            amplitudes, values.__getitem__, eps=0.25, rng=random.Random(seed),
            backend=BATCHED,
        )
        assert sampling == batched


class TestAllMarkedSearch:
    def test_all_marked_search_succeeds_at_the_first_measurement(self):
        """Float noise in the summed mass (e.g. 3 * (1/sqrt(3))**2 > 1.0)
        is clamped, so marking everything finds an item at once."""
        for n in range(1, 60):
            outcome = grover_search(list(range(n)), lambda x: True)
            assert outcome.found is not None, n
            assert outcome.measurements == 1, n


def _optimization_fields(result):
    """The comparable fields of a DistributedOptimizationResult."""
    optimization = result.optimization
    return (
        optimization.best_item,
        optimization.best_value,
        optimization.counts,
        optimization.metrics.rounds,
        optimization.metrics.messages,
        optimization.initialization_rounds,
        optimization.setup_rounds_per_call,
        optimization.evaluation_rounds_per_call,
        optimization.distinct_evaluations,
        optimization.simulated_runs,
        optimization.simulated_rounds,
    )


class TestProblemsDifferential:
    """Batched == sampling across all registered problems and families."""

    @pytest.mark.parametrize("family,graph", FAMILY_GRAPHS, ids=[f for f, _ in FAMILY_GRAPHS])
    @pytest.mark.parametrize("problem", sorted(QUANTUM_PROBLEMS))
    def test_registered_problem_identical(self, problem, family, graph):
        answers, runs = {}, {}
        for name, backend in BACKENDS.items():
            answers[name], runs[name] = _solve(
                problem,
                Network(graph, seed=2),
                oracle_mode="reference",
                seed=5,
                backend=backend,
            )
        sampling, batched = runs["sampling"], runs["batched"]
        assert answers["sampling"] == answers["batched"]
        assert sampling.rounds == batched.rounds
        assert sampling.counts == batched.counts
        assert _optimization_fields(sampling) == _optimization_fields(batched)

    @pytest.mark.parametrize("problem", sorted(QUANTUM_PROBLEMS))
    def test_congest_oracle_identical(self, problem):
        """Identity also holds under end-to-end CONGEST evaluation."""
        graph = generators.clique_chain(3, 3)
        answers, runs = {}, {}
        for name, backend in BACKENDS.items():
            answers[name], runs[name] = _solve(
                problem, Network(graph, seed=1), oracle_mode="congest",
                seed=3, backend=backend,
            )
        assert answers["sampling"] == answers["batched"]
        assert runs["sampling"].rounds == runs["batched"].rounds
        assert runs["sampling"].counts == runs["batched"].counts
        assert (
            _optimization_fields(runs["sampling"])
            == _optimization_fields(runs["batched"])
        )

    def test_parallel_sweep_records_identical_across_backends(
        self, reference_paths
    ):
        """run_sweep_grid over quantum kernels: serial sampling == parallel
        batched, record for record (the strongest cross-layer identity)."""
        from repro.analysis.sweep import run_sweep_grid
        from repro.runner import GraphSpec, resolve_algorithms

        specs = (
            GraphSpec(family="cycle", num_nodes=12, seed=3),
            GraphSpec(family="clique_chain", num_nodes=16, seed=3),
        )
        algorithms = resolve_algorithms(
            ["quantum_exact", "quantum_radius", "quantum_source_ecc"]
        )
        parallel = run_sweep_grid(
            specs, algorithms, runner=BatchRunner(jobs=2), base_seed=7
        )
        reference_paths()
        serial = run_sweep_grid(
            specs, algorithms, runner=BatchRunner(jobs=1), base_seed=7
        )
        assert serial == parallel
