"""Shared fixtures: small graphs with known diameters, and networks."""

from __future__ import annotations

import pytest

from repro.congest.network import Network
from repro.graphs import generators
from repro.graphs.graph import Graph


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: wall-clock-heavy end-to-end scenarios (subprocess kills)"
    )


@pytest.fixture
def path10() -> Graph:
    """A path on 10 nodes (diameter 9)."""
    return generators.path_graph(10)


@pytest.fixture
def cycle9() -> Graph:
    """A cycle on 9 nodes (diameter 4)."""
    return generators.cycle_graph(9)


@pytest.fixture
def star8() -> Graph:
    """A star on 8 nodes (diameter 2)."""
    return generators.star_graph(8)


@pytest.fixture
def clique_chain_12() -> Graph:
    """Three 4-cliques in a chain (12 nodes, diameter 5)."""
    return generators.clique_chain(3, 4)


@pytest.fixture
def random_graph_20() -> Graph:
    """A connected sparse random graph on 20 nodes."""
    return generators.random_connected_gnp(20, p=0.15, seed=7)


@pytest.fixture
def tree15() -> Graph:
    """A random tree on 15 nodes."""
    return generators.random_tree(15, seed=3)


SMALL_GRAPH_BUILDERS = {
    "path7": lambda: generators.path_graph(7),
    "cycle8": lambda: generators.cycle_graph(8),
    "star6": lambda: generators.star_graph(6),
    "complete5": lambda: generators.complete_graph(5),
    "grid3x4": lambda: generators.grid_graph(3, 4),
    "tree_b2_d3": lambda: generators.balanced_tree(2, 3),
    "clique_chain": lambda: generators.clique_chain(3, 3),
    "lollipop": lambda: generators.lollipop_graph(4, 4),
    "barbell": lambda: generators.barbell_graph(3, 2),
    "random_sparse": lambda: generators.random_connected_gnp(14, 0.15, seed=11),
    "random_tree": lambda: generators.random_tree(12, seed=5),
}


@pytest.fixture(params=sorted(SMALL_GRAPH_BUILDERS))
def small_graph(request) -> Graph:
    """Parametrised fixture running a test over a zoo of small graphs."""
    return SMALL_GRAPH_BUILDERS[request.param]()


@pytest.fixture
def reference_paths(monkeypatch):
    """A switch to the reference paths for the rest of the test.

    Calling the returned function makes every network built afterwards
    run the dense scheduler, every quantum schedule the sampling backend
    and every graph oracle computed afterwards its stdlib kernels (as if
    numpy were not installed): the references the production sparse
    scheduler, batched backend and vector kernel are held to.
    """
    import repro.congest.network as network
    import repro.graphs.indexed as indexed
    import repro.quantum.backend as backend
    from repro.engine import DenseScheduler

    def install() -> None:
        monkeypatch.setattr(network, "SparseScheduler", DenseScheduler)
        monkeypatch.setattr(
            backend, "BatchedScheduleBackend", backend.SamplingScheduleBackend
        )
        monkeypatch.setattr(indexed, "numpy_or_none", lambda: None)

    return install


@pytest.fixture
def network_factory():
    """Factory building a CONGEST network with a deterministic seed."""

    def build(graph: Graph, **kwargs) -> Network:
        kwargs.setdefault("seed", 0)
        return Network(graph, **kwargs)

    return build
