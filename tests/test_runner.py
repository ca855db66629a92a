"""Tests for the parallel batch-run subsystem (``repro.runner``).

The load-bearing property is determinism: everything that runs through the
:class:`repro.runner.batch.BatchRunner` must produce byte-identical results
serially and in parallel, worker failures must propagate, and the
per-worker caches must never change what is computed.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import SweepRecord, run_sweep_grid, sweep_table
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.runner import (
    BatchRunner,
    BatchTaskError,
    EXACT,
    GraphSpec,
    SWEEP_ALGORITHMS,
    SweepAlgorithmInfo,
    build_graph_cached,
    clear_worker_caches,
    grid,
    resolve_algorithms,
    resolve_jobs,
    task_seed,
)


# Module-level task bodies: pool workers resolve callables by qualified
# name, so everything mapped in parallel must live at module scope.
def _square(task):
    return task * task


def _with_context(context, task):
    return context["offset"] + task


def _fail_on_three(task):
    if task == 3:
        raise ValueError("task three is broken")
    return task


def _oracle_kernel(graph, seed, fault):
    return graph.num_nodes, float(graph.diameter())


#: An exact-checked algorithm whose name does NOT contain "exact": the
#: correctness gate is the metadata flag, not the name.
_oracle = SweepAlgorithmInfo(_oracle_kernel, guarantee=EXACT)


def _estimate(graph, seed, fault):
    return 2, 1.0


class TestBatchRunner:
    def test_serial_map_preserves_order(self):
        runner = BatchRunner(jobs=1)
        assert runner.map(_square, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_parallel_map_matches_serial(self):
        tasks = list(range(17))
        serial = BatchRunner(jobs=1).map(_square, tasks)
        parallel = BatchRunner(jobs=2).map(_square, tasks)
        assert serial == parallel

    def test_context_is_shipped_to_workers(self):
        context = {"offset": 100}
        serial = BatchRunner(jobs=1).map(_with_context, range(5), context=context)
        parallel = BatchRunner(jobs=2).map(_with_context, range(5), context=context)
        assert serial == parallel == [100, 101, 102, 103, 104]

    def test_worker_exception_propagates(self):
        # Pool failures are wrapped so the message pinpoints the failing
        # task: its repr plus the original exception type and text.
        with pytest.raises(BatchTaskError, match="task three is broken"):
            BatchRunner(jobs=2).map(_fail_on_three, range(8))
        with pytest.raises(BatchTaskError, match=r"task 3 failed: ValueError"):
            BatchRunner(jobs=2).map(_fail_on_three, range(8))

    def test_serial_exception_propagates(self):
        # Serial execution deliberately stays unwrapped: the original
        # exception keeps its full traceback.
        with pytest.raises(ValueError, match="task three is broken"):
            BatchRunner(jobs=1).map(_fail_on_three, range(8))

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1

    def test_task_seed_deterministic_and_distinct(self):
        a = task_seed(7, GraphSpec("cycle", 12), "classical_exact")
        b = task_seed(7, GraphSpec("cycle", 12), "classical_exact")
        c = task_seed(7, GraphSpec("cycle", 12), "two_approx")
        d = task_seed(8, GraphSpec("cycle", 12), "classical_exact")
        assert a == b
        assert len({a, c, d}) == 3


class TestGraphSpec:
    def test_build_is_deterministic(self):
        spec = GraphSpec("random_sparse", 30, seed=5)
        first, second = spec.build(), spec.build()
        assert first.nodes() == second.nodes()
        assert sorted(map(repr, first.edges())) == sorted(map(repr, second.edges()))

    def test_controlled_family_requires_diameter(self):
        with pytest.raises(ValueError):
            GraphSpec("controlled", 16).build()
        graph = GraphSpec("controlled", 16, diameter=4, seed=1).build()
        assert graph.diameter() == 4

    def test_worker_cache_returns_same_object(self):
        clear_worker_caches()
        spec = GraphSpec("cycle", 10)
        assert build_graph_cached(spec) is build_graph_cached(spec)
        clear_worker_caches()

    def test_grid_is_spec_major(self):
        specs = grid(["cycle", "path"], [8, 12])
        assert [s.family for s in specs] == ["cycle", "cycle", "path", "path"]
        assert [s.num_nodes for s in specs] == [8, 12, 8, 12]

    def test_labels(self):
        assert GraphSpec("cycle", 24).label == "cycle[24]"
        assert GraphSpec("controlled", 24, diameter=6).label == "controlled[24,D=6]"


class TestRunSweep:
    @pytest.fixture(autouse=True)
    def _fresh_worker_caches(self):
        clear_worker_caches()
        yield
        clear_worker_caches()

    @staticmethod
    def _counting_graph(calls):
        """A graph that counts diameter-oracle computations on both paths:
        the legacy adjacency-map oracle and the compiled CSR view (which
        the sweep's lazy oracle uses; a view computes its eccentricities
        once, so only a call on an empty memo counts)."""

        class CountingView:
            def __init__(self, view):
                self._view = view

            def diameter(self):
                if self._view._ecc_cache is None:
                    calls.append("csr")
                return self._view.diameter()

            def __getattr__(self, name):
                return getattr(self._view, name)

        class CountingGraph(Graph):
            def diameter(self):
                calls.append("legacy")
                return super().diameter()

            def compile(self):
                return CountingView(super().compile())

        return CountingGraph(edges=generators.cycle_graph(8).edges())

    def test_lazy_oracle_skipped_without_exact_algorithms(self, monkeypatch):
        calls = []
        graph = self._counting_graph(calls)
        monkeypatch.setattr(GraphSpec, "build", lambda spec: graph)
        records = run_sweep_grid([GraphSpec("cycle", 8)], {"estimate": _estimate})
        assert not calls
        assert records[0].diameter is None
        assert records[0].correct is None

    def test_oracle_computed_once_per_graph_with_exact_algorithm(self, monkeypatch):
        calls = []
        graph = self._counting_graph(calls)
        monkeypatch.setattr(GraphSpec, "build", lambda spec: graph)
        records = run_sweep_grid(
            [GraphSpec("cycle", 8)],
            {"oracle": _oracle, "estimate": _estimate},
        )
        # Once inside the oracle kernel (which uses the legacy oracle),
        # then once by the sweep's lazy oracle (on the compiled view),
        # whose memo serves the spec's second cell.
        assert calls == ["legacy", "csr"]
        assert all(record.diameter == 4 for record in records)
        exact = [r for r in records if r.algorithm == "oracle"]
        assert all(r.correct for r in exact)

    def test_serial_and_parallel_records_identical(self):
        specs = [GraphSpec("cycle", 10), GraphSpec("path", 8), GraphSpec("star", 9)]
        algorithms = {"oracle": _oracle, "estimate": _estimate}
        serial = run_sweep_grid(specs, algorithms, runner=BatchRunner(jobs=1))
        parallel = run_sweep_grid(specs, algorithms, runner=BatchRunner(jobs=2))
        assert serial == parallel

    def test_sweep_table_renders_missing_diameter_as_dash(self):
        records = [SweepRecord("cycle", "estimate", 10, None, 4, 1.0, None)]
        lines = sweep_table(records).splitlines()
        assert lines[-1].split() == ["cycle", "estimate", "10", "-", "4", "1", "-"]


class TestRunSweepGrid:
    def test_grid_serial_equals_parallel(self):
        specs = grid(["cycle", "path"], [10, 14])
        algorithms = resolve_algorithms(["classical_exact", "two_approx"])
        serial = run_sweep_grid(
            specs, algorithms, runner=BatchRunner(jobs=1), base_seed=3
        )
        parallel = run_sweep_grid(
            specs, algorithms, runner=BatchRunner(jobs=2), base_seed=3
        )
        assert serial == parallel
        assert len(serial) == len(specs) * len(algorithms)
        # Records come back cell-ordered: spec-major, algorithm-minor.
        assert [r.family for r in serial[:2]] == ["cycle[10]", "cycle[10]"]

    def test_grid_leaves_the_callers_runner_reusable(self):
        # The grid's cost prior prices (spec, name) cells; a runner that
        # kept it could not plan chunks for any other task list.
        runner = BatchRunner(jobs=2)
        run_sweep_grid(
            grid(["cycle"], [10, 12]), resolve_algorithms(["two_approx"]),
            runner=runner,
        )
        assert runner.map(_square, range(8)) == [0, 1, 4, 9, 16, 25, 36, 49]

    def test_exact_cells_are_checked_against_oracle(self):
        records = run_sweep_grid(
            grid(["cycle"], [12]), resolve_algorithms(["classical_exact"])
        )
        assert records[0].correct is True
        assert records[0].diameter == 6

    def test_mixed_sweep_stamps_diameter_on_every_cell(self):
        # When any algorithm needs the oracle, all records of the spec
        # carry it ...
        records = run_sweep_grid(
            grid(["cycle"], [12]),
            resolve_algorithms(["classical_exact", "two_approx"]),
        )
        assert [r.diameter for r in records] == [6, 6]
        # ... and a sweep with no exact algorithm skips the oracle.
        records = run_sweep_grid(
            grid(["cycle"], [12]), resolve_algorithms(["two_approx"])
        )
        assert records[0].diameter is None

    def test_registry_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown sweep algorithm"):
            resolve_algorithms(["nope"])
        assert set(resolve_algorithms(SWEEP_ALGORITHMS)) == set(SWEEP_ALGORITHMS)
