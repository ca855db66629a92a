"""Differential tests: the numpy oracle kernel vs the stdlib reference.

The graph oracles run the vectorized kernel (:mod:`repro.graphs.vector`)
when the graph is in its band and numpy is installed, and the stdlib
kernels otherwise.  The choice can never change a result: the vectorized
kernels must return the same values, in the same (dict) order, and raise
the same exceptions as the stdlib oracles -- on every generator family,
on disconnected/singleton/empty inputs, and across ``PYTHONHASHSEED``
values.  The stdlib side is reached through the ``reference_paths``
switch (``tests/conftest.py``).  Everything here is a comparison between
the two kernels; none of the assertions encodes an expected value of its
own beyond the graph oracles' ground truth.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graphs.indexed
from repro.analysis.sweep import run_sweep_grid
from repro.faults import FaultModel
from repro.graphs import generators, vector
from repro.graphs.graph import Graph, GraphError
from repro.graphs.indexed import IndexedGraph
from repro.runner import (
    BatchRunner,
    SweepAlgorithmInfo,
    clear_worker_caches,
    grid,
    resolve_algorithms,
)
from repro.store import ExperimentStore

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

settings.register_profile(
    "repro_vector",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


#: The smallest sweep clique chain whose double-sweep bound (73) is in
#: the vector band.
IN_BAND_NODES = 1376


def _stdlib_ecc_list(graph):
    """Index-ordered stdlib eccentricities (the kernels' reference)."""
    indexed = graph.compile()
    eccs = graph.all_eccentricities()
    return [eccs[label] for label in indexed.labels]


# ----------------------------------------------------------------------
# Kernel selection
# ----------------------------------------------------------------------
class TestKernelSelection:
    def test_band_is_checked_before_numpy_is_looked_up(self, monkeypatch):
        lookups = []

        def lookup():
            lookups.append(True)
            return np

        monkeypatch.setattr(repro.graphs.indexed, "numpy_or_none", lookup)
        for family, n in (("clique_chain", 600), ("random_sparse", 600),
                          ("tree", 600), ("cycle", 96)):
            generators.family_for_sweep(family, n, seed=3).compile().diameter()
        assert lookups == []
        graph = generators.family_for_sweep("clique_chain", IN_BAND_NODES, seed=3)
        graph.compile().diameter()
        assert lookups == [True]


# ----------------------------------------------------------------------
# Kernel differential: every generator family
# ----------------------------------------------------------------------
class TestKernelDifferential:
    @pytest.mark.parametrize("family", sorted(generators.SWEEP_FAMILIES))
    def test_all_eccentricities_matches_stdlib(self, family):
        graph = generators.family_for_sweep(family, 120, seed=5)
        expected = _stdlib_ecc_list(graph)
        got = vector.all_eccentricities_vector(graph.compile())
        assert got == expected
        assert all(isinstance(value, int) for value in got)

    @pytest.mark.parametrize("family", ["clique_chain", "random_sparse", "tree"])
    def test_dispatch_byte_identical_across_tiers(self, family, reference_paths):
        """The public oracle with numpy vs on the stdlib kernels: same
        values, same dict order."""
        graph = generators.family_for_sweep(family, IN_BAND_NODES, seed=3)
        numpy_eccs = graph.compile().all_eccentricities()
        reference_paths()
        reference = generators.family_for_sweep(family, IN_BAND_NODES, seed=3)
        stdlib_eccs = reference.compile().all_eccentricities()
        assert numpy_eccs == stdlib_eccs
        assert list(numpy_eccs) == list(stdlib_eccs)

    def test_vector_path_engages_on_clique_chain(self):
        """Guard against the dispatch silently never using the kernel:
        the n=1376 sweep clique chain is in the vectorized regime."""
        graph = generators.family_for_sweep("clique_chain", IN_BAND_NODES, seed=3)
        indexed = graph.compile()
        bound = indexed._double_sweep()
        assert bound >= IndexedGraph.VECTOR_MIN_BOUND
        assert bound * 8 <= graph.num_nodes
        assert indexed._all_ecc_vector(bound) is not None

    def test_derived_oracles_match_across_tiers(self, reference_paths):
        graph = generators.family_for_sweep("clique_chain", IN_BAND_NODES, seed=7)
        got = (graph.compile().diameter(), graph.compile().radius())
        reference_paths()
        reference = generators.family_for_sweep("clique_chain", IN_BAND_NODES, seed=7)
        assert got == (reference.compile().diameter(), reference.compile().radius())


# ----------------------------------------------------------------------
# Batched multi-source BFS
# ----------------------------------------------------------------------
class TestMsbfsLevels:
    def test_rows_match_stdlib_bfs(self):
        graph = generators.family_for_sweep("clique_chain", 200, seed=2)
        indexed = graph.compile()
        sources = list(range(0, len(indexed.labels), 7))[:20]
        dist = vector.msbfs_levels(indexed, sources)
        assert dist.shape == (len(sources), len(indexed.labels))
        for row, source in enumerate(sources):
            reference = graph.bfs_distances(indexed.labels[source])
            expected = [reference[label] for label in indexed.labels]
            assert dist[row].tolist() == expected

    def test_unreached_nodes_are_minus_one(self):
        graph = Graph(nodes=range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        dist = vector.bfs_levels_single(graph.compile(), 0)
        assert dist.tolist() == [0, 1, -1, -1]

    def test_empty_source_block(self):
        graph = generators.path_graph(5)
        dist = vector.msbfs_levels(graph.compile(), [])
        assert dist.shape == (0, 5)

    def test_source_validation(self):
        indexed = generators.path_graph(80).compile()
        with pytest.raises(ValueError, match="at most 64 sources"):
            vector.msbfs_levels(indexed, list(range(65)))
        with pytest.raises(ValueError, match="distinct"):
            vector.msbfs_levels(indexed, [1, 1])
        with pytest.raises(IndexError):
            vector.msbfs_levels(indexed, [80])
        with pytest.raises(IndexError):
            vector.msbfs_levels(indexed, [-1])

    def test_full_block_of_64(self):
        graph = generators.family_for_sweep("random_sparse", 150, seed=9)
        indexed = graph.compile()
        sources = list(range(64))
        dist = vector.msbfs_levels(indexed, sources)
        for row, source in enumerate(sources):
            reference = graph.bfs_distances(indexed.labels[source])
            assert dist[row].tolist() == [
                reference[label] for label in indexed.labels
            ]


# ----------------------------------------------------------------------
# Edge cases: disconnected, singleton, empty
# ----------------------------------------------------------------------
class TestEdgeCases:
    def _disconnected_graph(self):
        graph = Graph(nodes=range(140))
        for node in range(69):
            graph.add_edge(node, node + 1)
        for node in range(70, 139):
            graph.add_edge(node, node + 1)
        return graph

    def test_disconnected_same_exception_both_tiers(self, reference_paths):
        numpy_graph = self._disconnected_graph()
        with pytest.raises(GraphError) as numpy_error:
            numpy_graph.compile().all_eccentricities()
        reference_paths()
        stdlib_graph = self._disconnected_graph()
        with pytest.raises(GraphError) as stdlib_error:
            stdlib_graph.compile().all_eccentricities()
        assert str(numpy_error.value) == str(stdlib_error.value)

    def test_kernel_raises_on_disconnected(self):
        indexed = self._disconnected_graph().compile()
        with pytest.raises(GraphError, match="disconnected"):
            vector.all_eccentricities_vector(indexed)

    def test_singleton(self):
        graph = Graph(nodes=[42])
        assert graph.compile().all_eccentricities() == {42: 0}
        assert vector.all_eccentricities_vector(graph.compile()) == [0]

    def test_empty(self):
        graph = Graph()
        assert graph.compile().all_eccentricities() == {}
        assert vector.all_eccentricities_vector(graph.compile()) == []

    def test_fallback_invoked_verbatim(self):
        """When the bounds stall, the kernel returns the fallback's result
        untouched (the dispatcher passes the stdlib strategy)."""
        graph = generators.family_for_sweep("ring_of_cliques", 400, seed=1)
        sentinel = list(range(graph.num_nodes))
        calls = []

        def fallback():
            calls.append(True)
            return sentinel

        result = vector.all_eccentricities_vector(
            graph.compile(), fallback=fallback
        )
        if calls:
            assert result is sentinel
        else:
            assert result == _stdlib_ecc_list(graph)


# ----------------------------------------------------------------------
# Property-based comparison
# ----------------------------------------------------------------------
@st.composite
def connected_graphs(draw, min_nodes=2, max_nodes=24):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    graph = Graph(nodes=range(n))
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        graph.add_edge(node, parent)
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    return graph


class TestKernelProperties:
    @settings(settings.get_profile("repro_vector"))
    @given(connected_graphs())
    def test_eccentricities_match_stdlib(self, graph):
        assert vector.all_eccentricities_vector(graph.compile()) == (
            _stdlib_ecc_list(graph)
        )

    @settings(settings.get_profile("repro_vector"))
    @given(connected_graphs(), st.data())
    def test_msbfs_matches_stdlib_bfs(self, graph, data):
        indexed = graph.compile()
        n = len(indexed.labels)
        count = data.draw(st.integers(min_value=1, max_value=min(n, 64)))
        sources = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        dist = vector.msbfs_levels(indexed, sources)
        for row, source in enumerate(sources):
            reference = graph.bfs_distances(indexed.labels[source])
            assert dist[row].tolist() == [
                reference[label] for label in indexed.labels
            ]


# ----------------------------------------------------------------------
# Sweep records and the batch runner
# ----------------------------------------------------------------------
def _record_tuple(record):
    return (
        record.family,
        record.algorithm,
        record.num_nodes,
        record.diameter,
        record.rounds,
        record.value,
        record.correct,
        sorted(record.extra.items()),
    )


def _oracle_only(graph, seed, fault):
    """A zero-round kernel: its records carry only the oracle diameter."""
    return 0, None


class TestTierThreading:
    def test_sweep_records_identical_across_tiers(self, reference_paths):
        specs = grid(["clique_chain", "random_sparse"], [IN_BAND_NODES], seed=9)
        algorithms = {
            "oracle": SweepAlgorithmInfo(_oracle_only, force_oracle=True)
        }
        clear_worker_caches()
        numpy_records = run_sweep_grid(specs, algorithms, base_seed=5)
        clear_worker_caches()
        reference_paths()
        stdlib_records = run_sweep_grid(specs, algorithms, base_seed=5)
        clear_worker_caches()
        assert numpy_records[0].diameter >= IndexedGraph.VECTOR_MIN_BOUND
        assert [_record_tuple(r) for r in stdlib_records] == [
            _record_tuple(r) for r in numpy_records
        ]

    def test_spawned_workers_receive_config_with_context(self, tmp_path):
        """Spawned pool workers inherit no parent state: the grid's fault
        model must arrive in the task context."""
        specs = grid(["clique_chain", "cycle"], [16], seed=9)
        algorithms = resolve_algorithms(
            ["classical_exact", "two_approx_retry", "quantum_radius"]
        )
        fault = FaultModel(loss=0.05, timeout=256, seed=2)
        serial = run_sweep_grid(specs, algorithms, base_seed=5, fault=fault)
        store = ExperimentStore(tmp_path / "spawned.jsonl")
        spawned = run_sweep_grid(
            specs, algorithms, base_seed=5, fault=fault, store=store,
            runner=BatchRunner(jobs=2, start_method="spawn"),
        )
        assert spawned == serial
        # The fault model changes the records, so a worker that fell back
        # to the null default could not have matched.
        fault_free = run_sweep_grid(specs, algorithms, base_seed=5)
        assert fault_free != serial
        assert store.latest_header()["fault_model"] == fault.describe()


# ----------------------------------------------------------------------
# Hash-seed independence of the numpy tier
# ----------------------------------------------------------------------
_HASHSEED_SCRIPT = r"""
import json
import sys

from repro.graphs.graph import Graph

# A tuple-labelled clique chain big enough for the vectorized regime
# (40 cliques of 24 nodes: n=960; distinct entry/exit bridge nodes per
# clique keep the diameter ~2 hops per clique, inside the vector band).
graph = Graph()
cliques = 40
size = 24
for c in range(cliques):
    members = [("clique", c, i) for i in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            graph.add_edge(members[a], members[b])
    if c:
        graph.add_edge(("clique", c - 1, 1), ("clique", c, 0))

indexed = graph.compile()
bound = indexed._double_sweep()
assert bound >= indexed.VECTOR_MIN_BOUND and bound * 8 <= graph.num_nodes, bound
eccs = indexed.all_eccentricities()
assert sys.modules["numpy"] is not None
out = {
    "hash_randomised": sys.flags.hash_randomization,
    "eccentricities": [[repr(node), value] for node, value in eccs.items()],
}
print(json.dumps(out, sort_keys=True))
"""


def _run_with_hash_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    result = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout)


def test_numpy_tier_identical_across_hash_seeds():
    first = _run_with_hash_seed("1")
    second = _run_with_hash_seed("4242")
    assert first["hash_randomised"] == second["hash_randomised"] == 1
    assert first["eccentricities"] == second["eccentricities"]
