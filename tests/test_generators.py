"""Unit tests for the workload graph generators."""

from __future__ import annotations

import random

import pytest

from repro.graphs import generators
from repro.graphs.graph import Graph


class TestBasicFamilies:
    def test_path_graph(self):
        graph = generators.path_graph(5)
        assert graph.num_nodes == 5
        assert graph.num_edges == 4
        assert graph.diameter() == 4

    def test_single_node_path(self):
        graph = generators.path_graph(1)
        assert graph.num_nodes == 1
        assert graph.num_edges == 0

    def test_cycle_graph(self):
        graph = generators.cycle_graph(7)
        assert graph.num_edges == 7
        assert all(graph.degree(node) == 2 for node in graph)

    def test_cycle_too_small_raises(self):
        with pytest.raises(ValueError):
            generators.cycle_graph(2)

    def test_star_graph(self):
        graph = generators.star_graph(9)
        assert graph.degree(0) == 8
        assert graph.diameter() == 2

    def test_complete_graph(self):
        graph = generators.complete_graph(6)
        assert graph.num_edges == 15
        assert graph.diameter() == 1

    def test_grid_graph(self):
        graph = generators.grid_graph(4, 5)
        assert graph.num_nodes == 20
        assert graph.diameter() == 7

    def test_balanced_tree(self):
        graph = generators.balanced_tree(2, 3)
        assert graph.num_nodes == 15
        assert graph.diameter() == 6

    def test_balanced_tree_depth_zero(self):
        graph = generators.balanced_tree(3, 0)
        assert graph.num_nodes == 1

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            generators.path_graph(0)
        with pytest.raises(ValueError):
            generators.balanced_tree(0, 2)
        with pytest.raises(ValueError):
            generators.balanced_tree(2, -1)


class TestCompositeFamilies:
    def test_clique_chain_size_and_diameter(self):
        graph = generators.clique_chain(4, 5)
        assert graph.num_nodes == 20
        assert graph.is_connected()
        assert graph.diameter() == 2 * 4 - 1

    def test_clique_chain_single_block(self):
        graph = generators.clique_chain(1, 4)
        assert graph.diameter() == 1

    def test_lollipop(self):
        graph = generators.lollipop_graph(5, 4)
        assert graph.num_nodes == 9
        assert graph.diameter() == 5

    def test_lollipop_no_tail(self):
        graph = generators.lollipop_graph(4, 0)
        assert graph.diameter() == 1

    def test_barbell(self):
        graph = generators.barbell_graph(4, 3)
        assert graph.num_nodes == 11
        assert graph.diameter() == 6

    def test_diameter_controlled_graph(self):
        for target in (1, 2, 5, 9):
            graph = generators.diameter_controlled_graph(20, target, seed=1)
            assert graph.num_nodes == 20
            assert graph.is_connected()
            assert graph.diameter() == target

    def test_diameter_controlled_infeasible(self):
        with pytest.raises(ValueError):
            generators.diameter_controlled_graph(5, 10)
        with pytest.raises(ValueError):
            generators.diameter_controlled_graph(1, 3)

    def test_diameter_controlled_single_node(self):
        graph = generators.diameter_controlled_graph(1, 0)
        assert graph.num_nodes == 1


class TestRingOfCliques:
    def test_size_and_diameter_track_block_count(self):
        for num_cliques in (3, 4, 6, 8):
            graph = generators.ring_of_cliques(num_cliques, 4)
            assert graph.num_nodes == num_cliques * 4
            assert graph.is_connected()
            # Documented: 2 * floor(k / 2) + 1 with a single bridge ...
            assert graph.diameter() == 2 * (num_cliques // 2) + 1
            # ... and exactly k once a second bridge exists.
            wide = generators.ring_of_cliques(num_cliques, 4, bridges=2)
            assert wide.diameter() == num_cliques

    def test_extra_bridges_do_not_change_diameter(self):
        baseline = generators.ring_of_cliques(5, 6, bridges=2)
        wide = generators.ring_of_cliques(5, 6, bridges=3)
        assert baseline.diameter() == wide.diameter() == 5
        # ... but they do widen the inter-block cut.
        assert wide.num_edges == baseline.num_edges + 5

    def test_bridges_are_node_disjoint(self):
        graph = generators.ring_of_cliques(4, 6, bridges=3)
        assert graph.num_edges == 4 * 15 + 4 * 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generators.ring_of_cliques(2, 4)
        with pytest.raises(ValueError):
            generators.ring_of_cliques(3, 4, bridges=0)
        with pytest.raises(ValueError):
            generators.ring_of_cliques(3, 4, bridges=3)  # > clique_size // 2


class TestRandomRegular:
    def test_regular_connected_and_deterministic(self):
        for seed in range(4):
            graph = generators.random_regular_graph(20, 3, seed=seed)
            assert graph.num_nodes == 20
            assert graph.is_connected()
            assert all(graph.degree(node) == 3 for node in graph)
        a = generators.random_regular_graph(20, 3, seed=1)
        b = generators.random_regular_graph(20, 3, seed=1)
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))

    def test_expander_diameter_is_logarithmic(self):
        # Degree-3 random regular graphs are expanders w.h.p.: diameter
        # stays tiny while n quadruples (contrast cycle: n // 2).
        small = generators.random_regular_graph(32, 3, seed=2).diameter()
        large = generators.random_regular_graph(128, 3, seed=2).diameter()
        assert large <= 2 * small
        assert large <= 12  # ~log2(128) + slack, nowhere near 128 / 2

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 5, 8, 9, 64, 65, 383, 1536])
    def test_inlined_shuffle_matches_random_shuffle(self, length):
        # Same permutation and same generator state afterwards, so every
        # later draw of a build (the next rejection attempt) matches too.
        for seed in range(60):
            expected, actual = list(range(length)), list(range(length))
            reference, inlined = random.Random(seed), random.Random(seed)
            for _ in range(3):
                reference.shuffle(expected)
                generators._shuffle(actual, inlined)
                assert actual == expected
            assert inlined.getstate() == reference.getstate()

    @pytest.mark.parametrize(
        "n, degree", [(12, 3), (20, 3), (48, 4), (96, 4), (192, 4), (31, 4)]
    )
    def test_graphs_match_the_random_shuffle_generator(self, n, degree):
        for seed in (0, 1, 2, 7, 123, 2**40):
            built = generators.random_regular_graph(n, degree, seed=seed)
            reference = _random_shuffle_regular_graph(n, degree, seed)
            assert list(built.nodes()) == list(reference.nodes())
            assert list(built.edges()) == list(reference.edges())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generators.random_regular_graph(9, 3)  # odd n * degree
        with pytest.raises(ValueError):
            generators.random_regular_graph(4, 4)  # degree >= n
        with pytest.raises(ValueError):
            generators.random_regular_graph(4, 0)


def _random_shuffle_regular_graph(n, degree, seed):
    """The configuration-model sampler drawn with ``random.Random.shuffle``:
    the reference the inlined shuffle must reproduce edge for edge."""
    rng = random.Random(seed)
    stubs = [node for node in range(n) for _ in range(degree)]
    for _ in range(1000):
        rng.shuffle(stubs)
        edges = set()
        simple = True
        for index in range(0, len(stubs), 2):
            u, v = stubs[index], stubs[index + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                simple = False
                break
            edges.add((min(u, v), max(u, v)))
        if not simple:
            continue
        graph = Graph(nodes=range(n))
        graph.add_edges_from(edges)
        if graph.is_connected():
            return graph
    raise AssertionError("reference sampler gave up")


class TestPreferentialAttachment:
    def test_connected_with_powerlaw_hubs(self):
        graph = generators.preferential_attachment(100, attach=2, seed=3)
        assert graph.num_nodes == 100
        assert graph.is_connected()
        # Seed clique edges plus `attach` per later node.
        assert graph.num_edges == 3 + 97 * 2
        # Heavy tail: some hub collects far more than the attachment rate.
        assert graph.max_degree() >= 10

    def test_small_world_diameter(self):
        graph = generators.preferential_attachment(200, attach=2, seed=3)
        assert graph.diameter() <= 8

    def test_deterministic_per_seed(self):
        a = generators.preferential_attachment(40, attach=2, seed=9)
        b = generators.preferential_attachment(40, attach=2, seed=9)
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generators.preferential_attachment(2, attach=2)  # n < attach + 1
        with pytest.raises(ValueError):
            generators.preferential_attachment(5, attach=0)


class TestRandomFamilies:
    def test_random_connected_gnp_is_connected(self):
        for seed in range(5):
            graph = generators.random_connected_gnp(25, 0.05, seed=seed)
            assert graph.num_nodes == 25
            assert graph.is_connected()

    def test_random_connected_gnp_deterministic_per_seed(self):
        a = generators.random_connected_gnp(15, 0.2, seed=42)
        b = generators.random_connected_gnp(15, 0.2, seed=42)
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))

    def test_random_connected_gnp_invalid_p(self):
        with pytest.raises(ValueError):
            generators.random_connected_gnp(10, 1.5)

    def test_random_tree_is_tree(self):
        graph = generators.random_tree(30, seed=2)
        assert graph.num_edges == 29
        assert graph.is_connected()

    def test_family_dispatch_all_kinds(self):
        for kind in generators.SWEEP_FAMILIES:
            graph = generators.family_for_sweep(kind, 16, seed=1)
            assert graph.is_connected()
            assert graph.num_nodes >= 4

    def test_family_dispatch_unknown(self):
        with pytest.raises(ValueError):
            generators.family_for_sweep("nonexistent", 10)
