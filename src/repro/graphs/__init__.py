"""Graph substrate: data structure, generators and lower-bound gadget graphs.

This subpackage provides everything the rest of the library needs to talk
about *static network topologies*:

* :class:`repro.graphs.graph.Graph` -- a small, dependency-free undirected
  graph with exact BFS-based distance / eccentricity / diameter oracles.
  These oracles are the ground truth against which every distributed
  algorithm in the library is validated.
* :class:`repro.graphs.indexed.IndexedGraph` -- the frozen CSR view
  produced by :meth:`Graph.compile`: integer-indexed neighbourhoods and
  fast-path implementations of the same oracles, used by every hot
  consumer (engine transport, sweeps, benchmark harnesses).
* :mod:`repro.graphs.generators` -- workload generators (paths, cycles,
  trees, grids, random graphs, and families with controlled diameter) used
  by the benchmark harnesses.
* :mod:`repro.graphs.gadgets_hw12`, :mod:`repro.graphs.gadgets_achk`,
  :mod:`repro.graphs.gadgets_path` -- the graph constructions used by the
  paper's lower bounds (Theorems 8 and 9, and Section 6.2).

Every name loads its module on first use, so building a family graph
does not import the lower-bound gadgets.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Graph": "repro.graphs.graph",
    "GraphError": "repro.graphs.graph",
    "IndexedGraph": "repro.graphs.indexed",
    "generators": "repro.graphs.generators",
    "HW12Gadget": "repro.graphs.gadgets_hw12",
    "ACHKGadget": "repro.graphs.gadgets_achk",
    "PathSubdividedGadget": "repro.graphs.gadgets_path",
})
