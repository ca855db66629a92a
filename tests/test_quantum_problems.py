"""Tests for the new Theorem-7 problems, the problem table and their
sweep/store/CLI integration."""

from __future__ import annotations

import math

import pytest

from repro.analysis.sweep import run_sweep_grid
from repro.cli import main
from repro.congest.network import Network
from repro.core import (
    QUANTUM_PROBLEMS,
    quantum_exact_diameter,
    quantum_exact_radius,
    quantum_problem_names,
    quantum_source_eccentricity,
    quantum_three_halves_diameter,
    resolve_quantum_problem,
)
from repro.core.radius import ExactRadiusProblem
from repro.core.source_ecc import SourceEccentricityProblem
from repro.graphs import generators
from repro.runner import (
    EXACT,
    SWEEP_ALGORITHMS,
    GraphSpec,
    SweepAlgorithmInfo,
    resolve_algorithms,
)
from repro.runner.algorithms import radius_oracle, source_eccentricity_oracle
from repro.store import ExperimentStore

#: Each problem's :mod:`repro.core` entry point.
ENTRY_POINTS = {
    "exact_diameter": quantum_exact_diameter,
    "three_halves": quantum_three_halves_diameter,
    "radius": quantum_exact_radius,
    "source_ecc": quantum_source_eccentricity,
}


class TestQuantumRadius:
    def test_correct_on_families(self):
        for graph in (
            generators.cycle_graph(12),
            generators.clique_chain(3, 4),
            generators.random_connected_gnp(20, 0.15, seed=3),
        ):
            truth = graph.compile().radius()
            result = quantum_exact_radius(graph, oracle_mode="reference", seed=2)
            assert result.radius == truth
            assert graph.compile().eccentricity(result.center) == truth

    def test_congest_and_reference_values_agree(self, network_factory):
        graph = generators.clique_chain(3, 3)
        congest = quantum_exact_radius(
            network_factory(graph), oracle_mode="congest", seed=7
        )
        reference = quantum_exact_radius(
            network_factory(graph), oracle_mode="reference", seed=7
        )
        assert congest.radius == reference.radius
        assert congest.counts == reference.counts

    def test_round_accounting_matches_theorem7(self):
        graph = generators.cycle_graph(14)
        result = quantum_exact_radius(graph, oracle_mode="reference", seed=4)
        optimization = result.optimization
        expected = (
            optimization.initialization_rounds
            + result.counts.setup_calls * optimization.setup_rounds_per_call
            + result.counts.evaluation_calls
            * optimization.evaluation_rounds_per_call
        )
        assert result.rounds == expected

    def test_success_rate_over_seeds(self):
        graph = generators.random_connected_gnp(18, 0.2, seed=5)
        truth = graph.compile().radius()
        hits = sum(
            quantum_exact_radius(graph, oracle_mode="reference", seed=seed).radius
            == truth
            for seed in range(12)
        )
        assert hits >= 9

    def test_fixed_leader_and_memory(self):
        graph = generators.path_graph(9)
        result = quantum_exact_radius(
            graph, oracle_mode="reference", seed=1, leader=4
        )
        assert result.leader == 4
        log_n = math.ceil(math.log2(graph.num_nodes + 1))
        assert result.memory_bits_per_node >= 1
        assert result.metrics.max_node_memory_bits <= 10 * log_n ** 2 + 64

    def test_invalid_oracle_mode(self, network_factory):
        with pytest.raises(ValueError):
            ExactRadiusProblem(
                network_factory(generators.path_graph(4)), oracle_mode="bogus"
            )


class TestQuantumSourceEccentricity:
    def test_correct_for_default_and_explicit_sources(self):
        graph = generators.random_connected_gnp(16, 0.2, seed=9)
        view = graph.compile()
        default = quantum_source_eccentricity(graph, oracle_mode="reference", seed=3)
        assert default.source == graph.nodes()[0]
        assert default.eccentricity == view.eccentricity(default.source)
        for source in list(graph.nodes())[:4]:
            result = quantum_source_eccentricity(
                graph, source=source, oracle_mode="reference", seed=3
            )
            assert result.eccentricity == view.eccentricity(source)
            assert result.source == source

    def test_farthest_witness_realises_value(self):
        graph = generators.clique_chain(4, 3)
        result = quantum_source_eccentricity(graph, oracle_mode="reference", seed=1)
        tree_distance = graph.compile().bfs_distances(result.source)
        assert tree_distance[result.farthest] == result.eccentricity

    def test_congest_and_reference_values_agree(self, network_factory):
        graph = generators.cycle_graph(10)
        congest = quantum_source_eccentricity(
            network_factory(graph), oracle_mode="congest", seed=6
        )
        reference = quantum_source_eccentricity(
            network_factory(graph), oracle_mode="reference", seed=6
        )
        assert congest.eccentricity == reference.eccentricity
        assert congest.counts == reference.counts

    def test_invalid_oracle_mode(self, network_factory):
        with pytest.raises(ValueError):
            SourceEccentricityProblem(
                network_factory(generators.path_graph(4)), oracle_mode="bogus"
            )


class TestProblemRegistry:
    def test_four_problems_registered(self):
        assert quantum_problem_names() == (
            "exact_diameter",
            "radius",
            "source_ecc",
            "three_halves",
        )
        for name in quantum_problem_names():
            info = resolve_quantum_problem(name)
            assert info.name == name
            assert info.sweep_name in SWEEP_ALGORITHMS

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown quantum problem"):
            resolve_quantum_problem("bogus")

    def test_oracles_use_compiled_view(self):
        graph = generators.clique_chain(3, 4)
        assert radius_oracle(graph) == float(graph.compile().radius())
        assert source_eccentricity_oracle(graph) == float(
            graph.compile().eccentricity(graph.nodes()[0])
        )

    def test_entry_points_report_rounds_counts_and_optimization(self):
        graph = generators.clique_chain(3, 3)
        for name in quantum_problem_names():
            result = ENTRY_POINTS[name](
                Network(graph, seed=1), oracle_mode="reference", seed=2
            )
            assert result.rounds > 0
            assert result.counts.evaluation_calls >= 1
            assert result.optimization is not None

    def test_sweep_mapping_covers_registry(self):
        """Each problem names its own sweep entry, whose contract is the
        one ``repro quantum --list`` prints."""
        sweep_names = [info.sweep_name for info in QUANTUM_PROBLEMS.values()]
        assert len(set(sweep_names)) == len(sweep_names)
        for info in QUANTUM_PROBLEMS.values():
            assert SWEEP_ALGORITHMS[info.sweep_name].guarantee == info.guarantee


class TestSweepIntegration:
    def test_quantum_problem_records_check_own_oracle(self):
        specs = (GraphSpec(family="clique_chain", num_nodes=16, seed=2),)
        algorithms = resolve_algorithms(["quantum_radius", "quantum_source_ecc"])
        records = run_sweep_grid(specs, algorithms, base_seed=4)
        assert [record.algorithm for record in records] == [
            "quantum_radius",
            "quantum_source_ecc",
        ]
        # No diameter-oracle algorithm in the table: the lazy shared oracle
        # never runs, yet the custom-oracle checks still validate.
        assert all(record.diameter is None for record in records)
        assert all(record.correct is True for record in records)

    def test_custom_oracle_failure_recorded(self):
        def wrong_radius(graph, seed, fault):
            return 1, float(graph.num_nodes + 5)

        table = {
            "wrong_radius": SweepAlgorithmInfo(
                wrong_radius, guarantee=EXACT, oracle=radius_oracle
            )
        }
        graph = generators.cycle_graph(12)
        records = run_sweep_grid([GraphSpec("cycle", 12)], table)
        assert records[0].correct is False
        assert records[0].extra["oracle_diameter"] == radius_oracle(graph)

    def test_custom_oracle_does_not_force_diameter_oracle(self):
        info = SWEEP_ALGORITHMS["quantum_radius"]
        assert info.oracle is not None
        assert info.needs_oracle is False
        assert SWEEP_ALGORITHMS["quantum_exact"].needs_oracle is True

    def test_four_quantum_problems_sweep_with_checkpoint_resume(self, tmp_path):
        """The acceptance grid: all four registered problems through
        run_sweep_grid with store persistence and resume."""
        store_path = tmp_path / "quantum.jsonl"
        specs = (
            GraphSpec(family="cycle", num_nodes=12, seed=5),
            GraphSpec(family="clique_chain", num_nodes=12, seed=5),
        )
        algorithms = resolve_algorithms(
            [
                "quantum_exact",
                "quantum_three_halves",
                "quantum_radius",
                "quantum_source_ecc",
            ]
        )
        store = ExperimentStore(store_path)
        records = run_sweep_grid(
            specs, algorithms, base_seed=6, store=store, resume=False
        )
        assert len(records) == 8
        # Resume over a complete store recomputes nothing and returns the
        # identical record list.
        resumed = run_sweep_grid(
            specs, algorithms, base_seed=6, store=ExperimentStore(store_path),
            resume=True,
        )
        assert resumed == records
        loaded = ExperimentStore(store_path).load_records()
        assert loaded == records


class TestQuantumCLI:
    def test_list_problems(self, capsys):
        assert main(["quantum", "--list"]) == 0
        output = capsys.readouterr().out
        for name in ("exact_diameter", "three_halves", "radius", "source_ecc"):
            assert name in output

    def test_quantum_run_all_problems(self, capsys):
        exit_code = main(
            ["quantum", "--families", "clique_chain", "--sizes", "16",
             "--seed", "1"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        for name in (
            "quantum_exact",
            "quantum_three_halves",
            "quantum_radius",
            "quantum_source_ecc",
        ):
            assert name in output

    def test_quantum_backends_produce_identical_stores(
        self, capsys, tmp_path, reference_paths
    ):
        """A run as shipped (batched) and a run on the sampling reference
        persist byte-identical record sets."""
        from repro.store import render_records

        args = ["quantum", "--families", "cycle", "--sizes", "12",
                "--seed", "2", "--problems", "radius,source_ecc"]
        stores = {}
        for backend in ("batched", "sampling"):
            if backend == "sampling":
                reference_paths()
            path = tmp_path / f"{backend}.jsonl"
            assert main(args + ["--out", str(path)]) == 0
            stores[backend] = render_records(
                ExperimentStore(path).load_records(), "jsonl"
            )
        capsys.readouterr()
        assert stores["sampling"] == stores["batched"]

    def test_quantum_resume_round_trip(self, capsys, tmp_path):
        path = tmp_path / "store.jsonl"
        args = ["quantum", "--families", "cycle", "--sizes", "10",
                "--problems", "radius", "--seed", "3", "--out", str(path)]
        assert main(args) == 0
        assert main(args + ["--resume"]) == 0
        capsys.readouterr()
        records = ExperimentStore(path).load_records()
        assert len(records) == 1
        assert records[0].algorithm == "quantum_radius"
        assert records[0].correct is True

    def test_quantum_rejects_unknown_problem(self, capsys):
        assert main(["quantum", "--problems", "bogus"]) == 2
        assert "unknown quantum problem" in capsys.readouterr().err

    def test_quantum_rejects_unknown_family(self, capsys):
        assert main(["quantum", "--families", "bogus"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_quantum_resume_requires_out(self, capsys):
        assert main(["quantum", "--resume"]) == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_quantum_backend_default_restored(self):
        """A faulty CLI run leaves nothing behind for later in-process
        callers (the tests share one interpreter): a network built
        afterwards runs the null model."""
        assert main(
            ["quantum", "--families", "cycle", "--sizes", "8",
             "--problems", "source_ecc", "--loss", "0.1"]
        ) == 0
        assert Network(generators.path_graph(3)).fault_model.is_null

    def test_sweep_accepts_quantum_problem_algorithms(self, capsys):
        exit_code = main(
            ["sweep", "--families", "cycle", "--sizes", "12",
             "--algorithms", "quantum_radius,quantum_source_ecc",
             "--seed", "4"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "quantum_radius" in output
        assert "quantum_source_ecc" in output
