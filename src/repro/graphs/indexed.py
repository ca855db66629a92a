"""Frozen, integer-indexed CSR view of a :class:`~repro.graphs.graph.Graph`.

:class:`IndexedGraph` is the hot-path representation of a topology: node
labels are mapped to dense integers ``0..n-1`` (in insertion order) and the
neighbourhoods are stored in compressed sparse rows -- one ``offsets``
array of length ``n + 1`` and one ``targets`` array of length ``2m``, both
stdlib :mod:`array` instances, plus a ``degrees`` array.  The BFS-based
oracles below run on plain integer lists instead of label-keyed dicts and
hash probes, which makes the all-pairs oracles (``all_eccentricities``,
``diameter``, ``radius``) several times faster than the adjacency-map
reference implementations while returning **identical** values in
identical iteration order (CSR rows preserve the adjacency insertion
order, so BFS discovery order is unchanged; see the differential tests in
``tests/test_indexed_graph.py``).

Views are *frozen*: they describe the graph at the moment
:meth:`repro.graphs.graph.Graph.compile` was called, recorded in
:attr:`IndexedGraph.version`.  ``compile()`` re-checks that version, so
mutating the source graph transparently yields a fresh view on the next
call -- holders of an old view keep a consistent (if outdated) snapshot.

Derived bindings (per-node neighbour tuples for algorithm factories,
per-node neighbour frozensets for the transport's CONGEST check) are built
lazily and cached on the view, so rebinding an unchanged topology across
engine runs is free.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro._numpy import numpy_or_none
from repro.graphs.graph import Graph, GraphError, NodeId


class IndexedGraph:
    """Immutable CSR snapshot of a graph, with fast integer-index oracles.

    Build via :meth:`repro.graphs.graph.Graph.compile`, which caches the
    view and invalidates it on mutation; direct construction via
    :meth:`from_graph` bypasses that cache.

    Attributes
    ----------
    labels:
        Tuple mapping index -> original node label (insertion order).
    index_of:
        Dict mapping label -> index (inverse of ``labels``).
    offsets / targets:
        CSR arrays: the neighbours of index ``i`` are
        ``targets[offsets[i]:offsets[i + 1]]``, in edge insertion order.
    degrees:
        ``degrees[i] == offsets[i + 1] - offsets[i]``.
    version:
        The source graph's mutation counter at compile time.
    """

    __slots__ = (
        "labels",
        "index_of",
        "offsets",
        "targets",
        "degrees",
        "version",
        "_slices",
        "_label_neighbors",
        "_neighbor_sets",
        "_ecc_cache",
    )

    def __init__(
        self,
        labels: Tuple[NodeId, ...],
        index_of: Dict[NodeId, int],
        offsets: array,
        targets: array,
        degrees: array,
        version: int,
    ) -> None:
        self.labels = labels
        self.index_of = index_of
        self.offsets = offsets
        self.targets = targets
        self.degrees = degrees
        self.version = version
        # Lazy derived bindings (see module docstring).
        self._slices: Optional[List[Tuple[int, ...]]] = None
        self._label_neighbors: Optional[Dict[NodeId, Tuple[NodeId, ...]]] = None
        self._neighbor_sets: Optional[Dict[NodeId, FrozenSet[NodeId]]] = None
        #: Index-ordered eccentricity list, filled by all_eccentricities().
        #: Safe to cache because the view is frozen.
        self._ecc_cache: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "IndexedGraph":
        """Compile ``graph`` into a fresh CSR view (no caching)."""
        adjacency = graph.adjacency()
        labels = tuple(adjacency)
        index_of = {label: index for index, label in enumerate(labels)}
        n = len(labels)
        offsets = array("q", bytes(8 * (n + 1)))
        degrees = array("q", bytes(8 * n))
        total = 0
        for index, neighbours in enumerate(adjacency.values()):
            degree = len(neighbours)
            degrees[index] = degree
            total += degree
            offsets[index + 1] = total
        targets = array("q", bytes(8 * total))
        cursor = 0
        for neighbours in adjacency.values():
            for neighbour in neighbours:
                targets[cursor] = index_of[neighbour]
                cursor += 1
        return cls(labels, index_of, offsets, targets, degrees, graph.version)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.targets) // 2

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: NodeId) -> bool:
        return label in self.index_of

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexedGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"version={self.version})"
        )

    def degree(self, label: NodeId) -> int:
        """Degree of the node with this ``label``."""
        return self.degrees[self.index_of[label]]

    # ------------------------------------------------------------------
    # Prebound neighbour views
    # ------------------------------------------------------------------
    def neighbor_slices(self) -> List[Tuple[int, ...]]:
        """Per-index neighbour tuples (CSR row slices), cached.

        ``neighbor_slices()[i]`` is the tuple of neighbour *indices* of
        index ``i``.  This is the innermost data structure of every oracle
        below: tuple iteration over pre-boxed ints beats re-slicing the
        ``targets`` array on each BFS visit.
        """
        slices = self._slices
        if slices is None:
            targets = self.targets.tolist()
            offsets = self.offsets
            slices = [
                tuple(targets[offsets[i] : offsets[i + 1]])
                for i in range(len(self.labels))
            ]
            self._slices = slices
        return slices

    def neighbors(self, label: NodeId) -> Tuple[NodeId, ...]:
        """Neighbour *labels* of ``label`` as a cached tuple (no copy).

        The engine's algorithm factories use this instead of
        :meth:`Graph.neighbors`, which builds a fresh list per call.
        """
        return self.neighbor_tuples()[label]

    def neighbor_tuples(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """Per-label neighbour-label tuples, cached: the very tuples
        :meth:`neighbors` returns.

        The transport binds this table to recognise a node's
        :class:`repro.congest.node.Broadcast` by the identity of its
        targets.
        """
        table = self._label_neighbors
        if table is None:
            labels = self.labels
            table = {
                label: tuple(labels[j] for j in row)
                for label, row in zip(labels, self.neighbor_slices())
            }
            self._label_neighbors = table
        return table

    def neighbor_sets(self) -> Dict[NodeId, FrozenSet[NodeId]]:
        """Per-label neighbour frozensets, cached.

        The transport binds this once per topology for its CONGEST
        neighbour check (one frozenset membership test per message).
        """
        sets = self._neighbor_sets
        if sets is None:
            labels = self.labels
            sets = {
                label: frozenset(labels[j] for j in row)
                for label, row in zip(labels, self.neighbor_slices())
            }
            self._neighbor_sets = sets
        return sets

    # ------------------------------------------------------------------
    # Index-level BFS primitives
    # ------------------------------------------------------------------
    def _eccentricity_indexed(
        self,
        source: int,
        seen: List[int],
        stamp: int,
        neighbors: List[Tuple[int, ...]],
    ) -> Tuple[int, int]:
        """``(eccentricity, reached)`` from ``source``.

        ``seen`` is a reusable stamp array: ``seen[v] == stamp`` marks ``v``
        visited in *this* BFS, so no O(n) reset is needed between the n
        source sweeps of ``all_eccentricities`` (stamps are unique per
        source).
        """
        seen[source] = stamp
        frontier = [source]
        ecc = 0
        reached = 1
        while frontier:
            nxt: List[int] = []
            append = nxt.append
            for u in frontier:
                for v in neighbors[u]:
                    if seen[v] != stamp:
                        seen[v] = stamp
                        append(v)
            if not nxt:
                break
            ecc += 1
            reached += len(nxt)
            frontier = nxt
        return ecc, reached

    # ------------------------------------------------------------------
    # Distance oracles (CSR fast paths; values identical to Graph's)
    # ------------------------------------------------------------------
    def bfs_distances(self, source: NodeId) -> Dict[NodeId, int]:
        """Label-keyed BFS distances, identical (incl. dict order) to
        :meth:`Graph.bfs_distances`.

        Unreachable nodes are absent from the result (same sentinel
        contract as the reference oracle).
        """
        index = self.index_of.get(source)
        if index is None:
            raise KeyError(f"node {source!r} not in graph")
        labels = self.labels
        neighbors = self.neighbor_slices()
        dist_by_label: Dict[NodeId, int] = {source: 0}
        dist = [-1] * len(labels)
        dist[index] = 0
        frontier = [index]
        depth = 0
        while frontier:
            depth += 1
            nxt: List[int] = []
            append = nxt.append
            for u in frontier:
                for v in neighbors[u]:
                    if dist[v] < 0:
                        dist[v] = depth
                        dist_by_label[labels[v]] = depth
                        append(v)
            frontier = nxt
        return dist_by_label

    def distance(self, u: NodeId, v: NodeId) -> int:
        """Exact distance between ``u`` and ``v``.

        Raises :class:`~repro.graphs.graph.GraphError` if unreachable.
        """
        dist = self.bfs_distances(u)
        if v not in dist:
            raise GraphError(f"node {v!r} is not reachable from {u!r}")
        return dist[v]

    def eccentricity(self, node: NodeId) -> int:
        """Eccentricity of ``node``; :class:`~repro.graphs.graph.GraphError`
        on a disconnected graph."""
        index = self.index_of.get(node)
        if index is None:
            raise KeyError(f"node {node!r} not in graph")
        seen = [-1] * len(self.labels)
        ecc, reached = self._eccentricity_indexed(
            index, seen, 0, self.neighbor_slices()
        )
        if reached != len(self.labels):
            raise GraphError(
                "eccentricity is undefined on a disconnected graph"
            )
        return ecc

    # -- all-pairs eccentricity engine ---------------------------------
    #
    # Three exact strategies, dispatched on a double-sweep diameter
    # estimate (every strategy returns byte-identical values; the
    # differential tests in tests/test_indexed_graph.py exercise all
    # three through the public oracle):
    #
    # * ``_all_ecc_plain``   -- one stamped BFS per node.  Baseline and
    #   bailout target; already ~2-3x the adjacency-map oracle.
    # * ``_all_ecc_bitparallel`` -- level-synchronous BFS from *all*
    #   sources at once over big-int bitsets: ``reach[v]`` is the bitset
    #   of nodes within distance ``t`` of ``v``; one level costs one
    #   ``|=`` per directed edge on n-bit ints (n/64 machine words), so
    #   the whole oracle is O(D * m * n/64) word-ops.  Dominant on
    #   small-diameter graphs (the 100x+ regime of BENCH_graphcore).
    # * ``_all_ecc_pruned``  -- Takes-Kosters bound pruning: BFS from an
    #   alternating max-upper-bound / min-lower-bound candidate, tighten
    #   ``max(d, ecc_u - d) <= ecc_v <= ecc_u + d`` for every unresolved
    #   node, and stop BFS-ing nodes whose bounds meet.  Excellent on
    #   high-diameter structured graphs (a path resolves in ~4 sweeps);
    #   bails out to the plain loop when bounds stop resolving (e.g. the
    #   even cycle, where every eccentricity ties).
    # ------------------------------------------------------------------

    #: Above this size the bit-parallel bitsets (n^2 bits) are no longer
    #: comfortably cache/memory-resident; larger graphs use pruning.
    _BITPARALLEL_MAX_NODES = 32768

    #: Below this double-sweep diameter bound the stdlib big-int bitset is
    #: already near memory bandwidth (its cost is ``O(D * m * n/64)`` word
    #: ops and tiny diameters mean few levels), so the oracle keeps it;
    #: from this bound upward the batched Takes-Kosters kernel of
    #: :mod:`repro.graphs.vector` wins even when the call also pays the
    #: first ``import numpy`` of a fresh interpreter.  Measured on clique
    #: chains, oracle plus import, medians on a 2-core Xeon with CPython
    #: 3.11 and numpy 2.4: n=1152 (bound 65) 175 ms with numpy vs 121 ms
    #: without, n=1376 (bound 73) 172 vs 229 ms, n=2048 (bound 89) 215 vs
    #: 542 ms.
    VECTOR_MIN_BOUND = 72

    def _double_sweep(self) -> int:
        """A diameter lower bound from two stamped BFS sweeps.

        BFS from the maximum-degree node, then BFS from the farthest node
        found; the second eccentricity is the classical double-sweep
        bound.  Deterministic: ties break on the lowest index.
        """
        n = len(self.labels)
        neighbors = self.neighbor_slices()
        seen = [-1] * n
        degrees = self.degrees
        start = max(range(n), key=lambda i: (degrees[i], -i))
        _, reached, far = self._bfs_far(start, seen, 0, neighbors)
        if reached != n:
            raise GraphError(
                "eccentricity is undefined on a disconnected graph"
            )
        ecc_far, _, _ = self._bfs_far(far, seen, 1, neighbors)
        return ecc_far

    def _bfs_far(
        self,
        source: int,
        seen: List[int],
        stamp: int,
        neighbors: List[Tuple[int, ...]],
    ) -> Tuple[int, int, int]:
        """``(eccentricity, reached, farthest_node)`` from ``source``."""
        seen[source] = stamp
        frontier = [source]
        ecc = 0
        reached = 1
        far = source
        while frontier:
            nxt: List[int] = []
            append = nxt.append
            for u in frontier:
                for v in neighbors[u]:
                    if seen[v] != stamp:
                        seen[v] = stamp
                        append(v)
            if not nxt:
                break
            ecc += 1
            reached += len(nxt)
            far = nxt[0]
            frontier = nxt
        return ecc, reached, far

    def _all_ecc_plain(self) -> List[int]:
        n = len(self.labels)
        neighbors = self.neighbor_slices()
        seen = [-1] * n
        ecc_of = self._eccentricity_indexed
        result = [0] * n
        for index in range(n):
            ecc, reached = ecc_of(index, seen, index, neighbors)
            if reached != n:
                raise GraphError(
                    "eccentricity is undefined on a disconnected graph"
                )
            result[index] = ecc
        return result

    def _all_ecc_bitparallel(self) -> List[int]:
        n = len(self.labels)
        neighbors = self.neighbor_slices()
        full = (1 << n) - 1
        reach = [1 << i for i in range(n)]
        ecc = [0] * n
        active = [i for i in range(n) if reach[i] != full]
        level = 0
        while active:
            level += 1
            if level > n:  # pragma: no cover - connectivity is pre-checked
                raise GraphError(
                    "eccentricity is undefined on a disconnected graph"
                )
            prev = reach[:]
            still: List[int] = []
            append = still.append
            for v in active:
                acc = prev[v]
                for u in neighbors[v]:
                    acc |= prev[u]
                if acc == full:
                    ecc[v] = level
                    reach[v] = full
                else:
                    reach[v] = acc
                    append(v)
            active = still
        return ecc

    #: Pruning gives up when, after this many sweeps, fewer than
    #: ``_PRUNE_MIN_RATE`` nodes per sweep have been resolved.
    _PRUNE_PATIENCE = 32
    _PRUNE_MIN_RATE = 2

    def _all_ecc_pruned(self) -> List[int]:
        labels = self.labels
        n = len(labels)
        neighbors = self.neighbor_slices()
        degrees = self.degrees
        ecc = [-1] * n
        lower = [0] * n
        upper = [n] * n
        seen = [-1] * n
        dist = [0] * n
        candidates = list(range(n))
        pick_max_upper = True
        sweeps = 0
        resolved = 0
        while candidates:
            if (
                sweeps >= self._PRUNE_PATIENCE
                and resolved < self._PRUNE_MIN_RATE * sweeps
            ):
                # Bounds are not converging (e.g. an even cycle, where
                # every eccentricity ties): finish with plain BFS.
                ecc_of = self._eccentricity_indexed
                for v in candidates:
                    sweeps += 1
                    value, reached = ecc_of(v, seen, sweeps, neighbors)
                    if reached != n:
                        raise GraphError(
                            "eccentricity is undefined on a disconnected graph"
                        )
                    ecc[v] = value
                break
            if pick_max_upper:
                u = max(candidates, key=lambda v: (upper[v], degrees[v], -v))
            else:
                u = min(candidates, key=lambda v: (lower[v], -degrees[v], v))
            pick_max_upper = not pick_max_upper
            stamp = sweeps
            sweeps += 1
            # BFS from u, recording distances for the bound update.
            seen[u] = stamp
            dist[u] = 0
            frontier = [u]
            depth = 0
            reached = 1
            while frontier:
                depth += 1
                nxt: List[int] = []
                append = nxt.append
                for x in frontier:
                    for y in neighbors[x]:
                        if seen[y] != stamp:
                            seen[y] = stamp
                            dist[y] = depth
                            append(y)
                if not nxt:
                    depth -= 1
                    break
                reached += len(nxt)
                frontier = nxt
            if reached != n:
                raise GraphError(
                    "eccentricity is undefined on a disconnected graph"
                )
            ecc_u = depth
            ecc[u] = ecc_u
            resolved += 1
            remaining: List[int] = []
            keep = remaining.append
            for v in candidates:
                if v == u:
                    continue
                d = dist[v]
                low = lower[v]
                high = upper[v]
                bound = ecc_u - d
                if d > bound:
                    bound = d
                if bound > low:
                    low = bound
                bound = ecc_u + d
                if bound < high:
                    high = bound
                if low == high:
                    ecc[v] = low
                    resolved += 1
                else:
                    lower[v] = low
                    upper[v] = high
                    keep(v)
            candidates = remaining
        return ecc

    def _eccentricities_indexed(self) -> List[int]:
        """Index-ordered eccentricities, computed once and cached.

        The strategy follows the graph: the double-sweep bound and ``n``
        pick among the stdlib strategies, and the vector band (see
        :meth:`_all_ecc_vector`) runs the numpy kernel when numpy is
        installed.  Every strategy is exact, so the choice never changes
        the result -- only how fast it is computed.
        """
        cached = self._ecc_cache
        if cached is not None:
            return cached
        n = len(self.labels)
        if n == 0:
            result: List[int] = []
        elif n <= 64:
            result = self._all_ecc_plain()
        else:
            diameter_bound = self._double_sweep()
            result = self._all_ecc_vector(diameter_bound)
            if result is None:
                if (
                    n <= self._BITPARALLEL_MAX_NODES
                    and diameter_bound * 8 <= n
                ):
                    result = self._all_ecc_bitparallel()
                else:
                    result = self._all_ecc_pruned()
        self._ecc_cache = result
        return result

    def _all_ecc_vector(self, diameter_bound: int) -> Optional[List[int]]:
        """The numpy kernel's answer in its band; ``None`` defers to stdlib.

        The vector kernel (batched 64-source Takes-Kosters over the CSR
        arrays, :mod:`repro.graphs.vector`) takes over exactly where the
        stdlib choices degrade:

        * the *moderate-diameter* band of the bitset regime
          (``VECTOR_MIN_BOUND <= bound`` and ``bound * 8 <= n``), where
          the big-int bitset pays one full edge pass per level and the
          diameter makes that expensive -- the kernel keeps the stdlib
          bitset as its stall fallback, so tie-heavy topologies where
          the batched bounds cannot converge cost at most two probe
          blocks extra;
        * small-diameter graphs *above* ``_BITPARALLEL_MAX_NODES``,
          where the n^2-bit bitset no longer fits and stdlib falls back
          to pruning (which degrades to n BFS sweeps on unstructured
          graphs); brute-force 64-wide BFS blocks are the memory-frugal
          equivalent of the bitset and need no fallback.

        Tiny diameters stay on the big-int bitset (already near memory
        bandwidth) and the high-diameter regime stays on Takes-Kosters
        pruning.  The band is checked first, so a graph outside it never
        imports numpy (nor :mod:`repro.graphs.vector`); inside it, a
        missing numpy also defers to stdlib.
        """
        n = len(self.labels)
        small = n <= self._BITPARALLEL_MAX_NODES
        if diameter_bound * 8 > n or (
            small and diameter_bound < self.VECTOR_MIN_BOUND
        ):
            return None
        np = numpy_or_none()
        if np is None:
            return None
        from repro.graphs import vector

        if small:
            return vector.all_eccentricities_vector(
                self, np, fallback=self._all_ecc_bitparallel
            )
        return vector.all_eccentricities_vector(self, np)

    def all_eccentricities(self) -> Dict[NodeId, int]:
        """Eccentricity of every node (insertion order), CSR fast path.

        Raises :class:`~repro.graphs.graph.GraphError` on a disconnected
        graph.  Values and iteration order are identical to
        :meth:`Graph.all_eccentricities`; this is the headline oracle of
        ``BENCH_graphcore.json``.  The result is computed once per view
        (the view is frozen, so caching is safe) and returned as a fresh
        dict per call.
        """
        eccentricities = self._eccentricities_indexed()
        labels = self.labels
        return {labels[i]: eccentricities[i] for i in range(len(labels))}

    def diameter(self) -> int:
        """Exact diameter; :class:`~repro.graphs.graph.GraphError` on the
        empty graph and on disconnected graphs."""
        if not self.labels:
            raise GraphError("diameter is undefined on the empty graph")
        return max(self._eccentricities_indexed())

    def radius(self) -> int:
        """Exact radius; :class:`~repro.graphs.graph.GraphError` on the
        empty graph and on disconnected graphs."""
        if not self.labels:
            raise GraphError("radius is undefined on the empty graph")
        return min(self._eccentricities_indexed())

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph is connected)."""
        n = len(self.labels)
        if n == 0:
            return True
        seen = [-1] * n
        _, reached = self._eccentricity_indexed(
            0, seen, 0, self.neighbor_slices()
        )
        return reached == n

    def connected_components(self) -> List[Set[NodeId]]:
        """Connected components (insertion order of their first node)."""
        labels = self.labels
        n = len(labels)
        neighbors = self.neighbor_slices()
        assigned = [False] * n
        components: List[Set[NodeId]] = []
        for source in range(n):
            if assigned[source]:
                continue
            assigned[source] = True
            component = {labels[source]}
            frontier = [source]
            while frontier:
                nxt: List[int] = []
                for u in frontier:
                    for v in neighbors[u]:
                        if not assigned[v]:
                            assigned[v] = True
                            component.add(labels[v])
                            nxt.append(v)
                frontier = nxt
            components.append(component)
        return components

    def max_cross_distance(
        self, left: Sequence[NodeId], right: Sequence[NodeId]
    ) -> int:
        """Maximum distance between a ``left`` node and a ``right`` node.

        Identical semantics to :meth:`Graph.max_cross_distance`, including
        the :class:`~repro.graphs.graph.GraphError` on unreachable pairs.
        """
        index_of = self.index_of
        neighbors = self.neighbor_slices()
        n = len(self.labels)
        right_unique = dict.fromkeys(right)
        right_indexed = [(index_of.get(v), v) for v in right_unique]
        seen = [-1] * n
        dist = [0] * n
        best = 0
        for stamp, u in enumerate(left):
            source = index_of[u]
            seen[source] = stamp
            dist[source] = 0
            frontier = [source]
            depth = 0
            while frontier:
                depth += 1
                nxt: List[int] = []
                append = nxt.append
                for x in frontier:
                    for y in neighbors[x]:
                        if seen[y] != stamp:
                            seen[y] = stamp
                            dist[y] = depth
                            append(y)
                frontier = nxt
            for target, v_label in right_indexed:
                if target is None or seen[target] != stamp:
                    raise GraphError(f"node {v_label!r} unreachable from {u!r}")
                d = dist[target]
                if d > best:
                    best = d
        return best
