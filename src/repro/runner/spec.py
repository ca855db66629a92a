"""Task descriptions for batched runs: graph specs and per-worker caches.

A batch task must be cheap to ship to a worker process, so instead of
pickling built graphs the batch APIs describe them with a
:class:`GraphSpec` -- ``(family, n, D, seed)`` -- and let each worker
construct the graph itself.  Construction is memoised **per worker** in
:func:`build_graph_cached`: a Table-1 grid runs several algorithms per
``(family, n, D)`` point, and consecutive tasks of a chunk share the spec,
so each worker builds every graph it touches once rather than once per
algorithm.  The sequential diameter oracle (the most expensive part of a
sweep record's provenance) needs no cache of its own: it runs on the
graph's compiled CSR view, which is cached on the graph instance and
memoises its eccentricities, so every oracle call and
approximation-bound check a worker performs against one spec shares a
single compilation and a single eccentricity computation.

Construction is deterministic given the spec, so per-worker caching cannot
change results -- it only removes repeated work.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.graphs import generators
from repro.graphs.graph import Graph

#: Per-process construction cache, keyed by spec.  Bounded so that a
#: long-lived process sweeping many grids cannot grow without limit; the
#: bound is generous relative to any single grid, so within one batch the
#: cache behaves as a plain memo.
_GRAPH_CACHE: Dict["GraphSpec", Graph] = {}
_CACHE_LIMIT = 128


class GraphSpec(NamedTuple):
    """A deterministic recipe for one benchmark graph.

    ``family`` is one of :data:`repro.graphs.generators.SWEEP_FAMILIES` or
    ``"controlled"`` (which honours ``diameter`` via
    :func:`repro.graphs.generators.diameter_controlled_graph`, like the
    CLI's ``--family controlled``).  Its ``repr`` is part of every cell's
    seed (:func:`repro.runner.batch.task_seed`), so the field names and
    their order are fixed.
    """

    family: str
    num_nodes: int
    diameter: Optional[int] = None
    seed: int = 0

    @property
    def label(self) -> str:
        """Human-readable family label used in sweep records and tables."""
        if self.family == "controlled":
            return f"controlled[{self.num_nodes},D={self.diameter}]"
        return f"{self.family}[{self.num_nodes}]"

    def build(self) -> Graph:
        """Construct the graph (deterministic; no caching)."""
        if self.family == "controlled":
            if self.diameter is None:
                raise ValueError("family 'controlled' requires a target diameter")
            return generators.diameter_controlled_graph(
                self.num_nodes, self.diameter, seed=self.seed
            )
        return generators.family_for_sweep(
            self.family, self.num_nodes, seed=self.seed
        )


def build_graph_cached(spec: GraphSpec) -> Graph:
    """The graph for ``spec``, memoised in this process."""
    graph = _GRAPH_CACHE.get(spec)
    if graph is None:
        if len(_GRAPH_CACHE) >= _CACHE_LIMIT:
            _GRAPH_CACHE.clear()
        graph = _GRAPH_CACHE[spec] = spec.build()
    return graph


def clear_worker_caches() -> None:
    """Drop the per-process construction cache (used by tests)."""
    _GRAPH_CACHE.clear()


def grid(
    families, sizes, diameter: Optional[int] = None, seed: int = 0
) -> Tuple[GraphSpec, ...]:
    """The cross product ``families x sizes`` as a tuple of specs.

    The Table-1 harnesses sweep exactly such grids; keeping the product
    spec-major (all sizes of one family, then the next) lines up with the
    chunked dispatch of :class:`repro.runner.batch.BatchRunner`, so chunk
    neighbours share a worker-side graph cache entry.
    """
    return tuple(
        GraphSpec(family=family, num_nodes=n, diameter=diameter, seed=seed)
        for family in families
        for n in sizes
    )
