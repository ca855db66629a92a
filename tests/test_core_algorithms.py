"""Tests for the paper's algorithms: Theorem 1 and Theorem 4, plus coverage
(Lemma 1) and the Table-1 complexity formulas."""

from __future__ import annotations

import math

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.congest.network import Network
from repro.core.approx_diameter import (
    default_s_parameter,
    quantum_three_halves_diameter,
)
from repro.core.complexity import (
    classical_approx_upper,
    classical_exact_upper,
    quantum_approx_upper,
    quantum_exact_upper,
    quantum_exact_lower_bounded_memory,
    table1_rows,
)
from repro.core.coverage import (
    coverage_probability,
    empirical_optimum_mass,
    popt_lower_bound,
    window_set,
)
from repro.core.exact_diameter import (
    ExactDiameterProblem,
    quantum_exact_diameter,
)
from repro.graphs import generators


class TestCoverageLemma:
    def test_window_contains_start(self, small_graph, network_factory):
        network = network_factory(small_graph)
        tree = run_bfs_tree(network, small_graph.nodes()[0])
        d = max(1, tree.depth)
        for u0 in list(small_graph.nodes())[:5]:
            assert u0 in window_set(tree, u0, 2 * d)

    def test_window_size_bounded(self, network_factory):
        graph = generators.path_graph(20)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        window = window_set(tree, 10, 6)
        assert len(window) <= 7  # at most window + 1 nodes

    def test_lemma1_coverage_bound(self, small_graph, network_factory):
        """Lemma 1: Pr_{u0}[v in S(u0)] >= d / (2 n) for every v."""
        network = network_factory(small_graph)
        tree = run_bfs_tree(network, small_graph.nodes()[0])
        d = max(1, tree.depth)
        n = small_graph.num_nodes
        for target in small_graph.nodes():
            probability = coverage_probability(tree, target, 2 * d)
            assert probability >= d / (2.0 * n) - 1e-12

    def test_popt_lower_bound_formula(self):
        assert popt_lower_bound(100, 10) == pytest.approx(0.05)
        assert popt_lower_bound(4, 100) == 1.0
        with pytest.raises(ValueError):
            popt_lower_bound(0, 1)
        with pytest.raises(ValueError):
            popt_lower_bound(5, 0)

    def test_empirical_mass_dominates_bound(self, small_graph, network_factory):
        """The true P_opt is at least the Lemma-1 lower bound."""
        network = network_factory(small_graph)
        tree = run_bfs_tree(network, small_graph.nodes()[0])
        d = max(1, tree.depth)
        mass = empirical_optimum_mass(small_graph, tree, 2 * d)
        assert mass >= popt_lower_bound(small_graph.num_nodes, d) - 1e-12


class TestQuantumExactDiameter:
    def test_reference_and_congest_oracles_agree(self, network_factory):
        # The simple variant's reference cost includes the convergecast
        # that its congest Evaluation charges (on a cycle every BFS costs
        # the same, so the per-call rounds must match exactly).
        for variant, graph in (
            ("windowed", generators.clique_chain(3, 4)),
            ("simple", generators.cycle_graph(16)),
        ):
            congest = quantum_exact_diameter(
                network_factory(graph), variant=variant, oracle_mode="congest", seed=9
            )
            reference = quantum_exact_diameter(
                network_factory(graph), variant=variant, oracle_mode="reference", seed=9
            )
            assert congest.diameter == reference.diameter, variant
            assert (
                congest.optimization.evaluation_rounds_per_call
                == reference.optimization.evaluation_rounds_per_call
            ), variant
            assert congest.rounds == reference.rounds, variant
            assert (
                congest.counts.evaluation_calls == reference.counts.evaluation_calls
            ), variant

    def test_correct_on_small_graphs(self, small_graph):
        result = quantum_exact_diameter(small_graph, oracle_mode="reference", seed=2)
        assert result.diameter == small_graph.diameter()

    def test_simple_variant_correct(self, small_graph):
        result = quantum_exact_diameter(
            small_graph, variant="simple", oracle_mode="reference", seed=2
        )
        assert result.diameter == small_graph.diameter()

    def test_success_rate_over_seeds(self):
        graph = generators.random_connected_gnp(24, 0.12, seed=6)
        true_diameter = graph.diameter()
        hits = sum(
            quantum_exact_diameter(graph, oracle_mode="reference", seed=seed).diameter
            == true_diameter
            for seed in range(12)
        )
        assert hits >= 9

    def test_window_parameter_is_leader_eccentricity(self):
        graph = generators.path_graph(15)
        result = quantum_exact_diameter(graph, oracle_mode="reference", seed=1)
        assert result.window_parameter == graph.eccentricity(result.leader)
        assert result.window_parameter <= graph.diameter() <= 2 * result.window_parameter

    def test_round_accounting_matches_theorem7(self):
        graph = generators.cycle_graph(16)
        result = quantum_exact_diameter(graph, oracle_mode="reference", seed=4)
        expected = (
            result.optimization.initialization_rounds
            + result.counts.setup_calls * result.optimization.setup_rounds_per_call
            + result.counts.evaluation_calls
            * result.optimization.evaluation_rounds_per_call
        )
        assert result.rounds == expected

    def test_memory_accounting_polylog(self):
        graph = generators.random_connected_gnp(30, 0.1, seed=3)
        result = quantum_exact_diameter(graph, oracle_mode="reference", seed=0)
        log_n = math.ceil(math.log2(graph.num_nodes + 1))
        assert result.memory_bits_per_node <= 10 * log_n ** 2

    def test_accepts_prebuilt_network_and_leader(self, network_factory):
        graph = generators.cycle_graph(10)
        network = network_factory(graph)
        result = quantum_exact_diameter(
            network, oracle_mode="reference", seed=1, leader=3
        )
        assert result.leader == 3
        assert result.diameter == 5

    def test_invalid_variant_and_mode(self, network_factory):
        network = network_factory(generators.path_graph(4))
        with pytest.raises(ValueError):
            ExactDiameterProblem(network, variant="bogus")
        with pytest.raises(ValueError):
            ExactDiameterProblem(network, oracle_mode="bogus")

    def test_evaluation_calls_scale_with_sqrt_n_over_d(self):
        """More branches (relative to d) means more amplification work."""
        small = quantum_exact_diameter(
            generators.clique_chain(2, 4), oracle_mode="reference", seed=7
        )
        large = quantum_exact_diameter(
            generators.clique_chain(2, 18), oracle_mode="reference", seed=7
        )
        assert large.counts.evaluation_calls >= small.counts.evaluation_calls


class TestQuantumApproxDiameter:
    def test_estimate_within_bounds(self, small_graph):
        result = quantum_three_halves_diameter(
            small_graph, oracle_mode="reference", seed=3
        )
        diameter = small_graph.diameter()
        assert math.floor(2 * diameter / 3) <= result.estimate <= diameter

    def test_congest_and_reference_agree(self, network_factory):
        graph = generators.clique_chain(3, 3)
        congest = quantum_three_halves_diameter(
            network_factory(graph), oracle_mode="congest", seed=5
        )
        reference = quantum_three_halves_diameter(
            network_factory(graph), oracle_mode="reference", seed=5
        )
        assert congest.estimate == reference.estimate

    def test_ball_size_close_to_s(self):
        graph = generators.random_connected_gnp(40, 0.08, seed=2)
        result = quantum_three_halves_diameter(
            graph, s=6, oracle_mode="reference", seed=1
        )
        assert result.ball_size >= 6
        assert result.ball_size <= max(12, 2 * 6)

    def test_default_s_parameter_balances(self):
        assert default_s_parameter(1000, 10) == math.ceil(1000 ** (2 / 3) / 10 ** (1 / 3))
        assert default_s_parameter(8, 1) <= 8
        assert default_s_parameter(5, 100) >= 1
        with pytest.raises(ValueError):
            default_s_parameter(0, 5)

    def test_estimate_bounds_multiple_seeds(self):
        graph = generators.cycle_graph(18)
        diameter = graph.diameter()
        for seed in range(4):
            result = quantum_three_halves_diameter(
                graph, oracle_mode="reference", seed=seed
            )
            assert math.floor(2 * diameter / 3) <= result.estimate <= diameter


class TestComplexityFormulas:
    def test_exact_upper_bounds(self):
        assert classical_exact_upper(100) == 100
        assert quantum_exact_upper(100, 4) == pytest.approx(20.0)
        assert quantum_exact_upper(100, 0) == pytest.approx(10.0)

    def test_quantum_beats_classical_for_small_diameter(self):
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            assert quantum_exact_upper(n, 10) < classical_exact_upper(n)

    def test_quantum_matches_classical_at_linear_diameter(self):
        n = 10 ** 4
        assert quantum_exact_upper(n, n) == pytest.approx(classical_exact_upper(n))

    def test_approx_upper_bounds(self):
        assert classical_approx_upper(10 ** 4, 10) == pytest.approx(110.0)
        assert quantum_approx_upper(10 ** 6, 10) < classical_approx_upper(10 ** 6, 10)

    def test_lower_bound_with_memory(self):
        value = quantum_exact_lower_bounded_memory(10 ** 4, 100, 10)
        assert value == pytest.approx(math.sqrt(10 ** 6) / 10 + 100)
        with pytest.raises(ValueError):
            quantum_exact_lower_bounded_memory(100, 10, 0)

    def test_table1_rows_structure(self):
        rows = table1_rows()
        assert len(rows) == 4
        problems = [row.problem for row in rows]
        assert problems.count("Exact computation") == 2
        evaluated = rows[0].evaluate(10 ** 4, 16)
        assert evaluated["classical"] == 10 ** 4
        assert evaluated["quantum"] == pytest.approx(400.0)

    def test_theorem1_and_theorem3_meet_for_polylog_memory(self):
        """Theorems 1 and 3 together settle the complexity for small memory:
        the upper and lower bounds match up to polylog factors."""
        n, diameter = 10 ** 6, 10 ** 3
        upper = quantum_exact_upper(n, diameter)
        polylog_memory = math.ceil(math.log2(n)) ** 2
        lower = quantum_exact_lower_bounded_memory(n, diameter, polylog_memory)
        ratio = upper / lower
        assert ratio <= polylog_memory * 2
        assert ratio >= 1 / (polylog_memory * 2)
