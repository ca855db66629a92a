"""Vectorized (numpy) graph kernels over the CSR arrays.

This module is the numpy implementation of the all-pairs BFS oracles,
which :meth:`repro.graphs.indexed.IndexedGraph.all_eccentricities` runs
in its vector band when numpy is installed: batched multi-source BFS and
all-eccentricities kernels that operate directly on the ``offsets`` /
``targets`` CSR arrays of :class:`repro.graphs.indexed.IndexedGraph`,
64 sources at a time, with one uint64 *reach word* per node -- bit ``j``
of ``reach[v]`` means "``v`` has been reached from source ``j`` of the
current block".  One BFS level over all 64 sources costs either a single
edge gather plus ``bitwise_or.reduceat`` over the whole target array
(wide frontiers) or a sorted scatter of only the *changed* reach words
along the frontier's out-edges (narrow frontiers), amortising the
per-edge Python interpreter cost the stdlib kernels pay.

Why not a straight translation of ``_all_ecc_bitparallel``?  CPython
big-int ``|=`` already runs near memory bandwidth, so a numpy rewrite of
the same n-wide bitset algorithm is *slower* (the gather materialises an
``m x n/64``-word intermediate per level).  The vector kernel instead runs
**batched Takes-Kosters**: exact 64-source BFS blocks (cheap in numpy)
drive the classical eccentricity bound updates
``max(d, ecc_u - d) <= ecc_v <= ecc_u + d`` for *all* nodes at once, so
structured moderate-diameter graphs -- exactly the regime where the
big-int bitset degrades (its cost is linear in the diameter) -- resolve
in a handful of blocks.  Block sources are diversified by their distance
to every previously swept source, which keeps a batch of 64 stale-bound
picks from clustering in one region of the graph.

Like the stdlib ``_all_ecc_pruned``, the batched pruning loop watches
its own convergence: every block resolves its 64 sources exactly, so
termination is guaranteed, but when the *bound* updates stop resolving
bystander nodes (tie-heavy topologies such as rings of cliques) the
kernel bails out to a caller-supplied fallback -- the dispatching oracle
passes the stdlib strategy it would otherwise have run -- rather than
degenerate into a brute-force block sweep.

All kernels are exact and raise
:class:`repro.graphs.graph.GraphError` on disconnected inputs, so the
dispatching oracle (:meth:`IndexedGraph._eccentricities_indexed`)
returns byte-identical values, dict orders and exceptions with and
without numpy; ``tests/test_vector_tier.py`` proves this differentially
across the generator families.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro._numpy import require_numpy
from repro.graphs.graph import GraphError

#: Sources per multi-source BFS block: one bit of a uint64 reach word each.
BLOCK_SOURCES = 64

#: After this many post-landmark blocks the pruning loop checks its
#: resolution rate (like ``IndexedGraph._PRUNE_PATIENCE``): if bound
#: updates are resolving fewer than :data:`PRUNE_MIN_RESOLVED_PER_BLOCK`
#: bystanders per block on average, the bounds are not converging and
#: the kernel invokes its fallback.
PRUNE_PATIENCE_BLOCKS = 2
PRUNE_MIN_RESOLVED_PER_BLOCK = 3 * BLOCK_SOURCES

_DISCONNECTED = "eccentricity is undefined on a disconnected graph"


def _csr_arrays(indexed, np):
    """Zero-copy int64 views of the CSR ``offsets`` / ``targets`` arrays."""
    offsets = np.frombuffer(indexed.offsets, dtype=np.int64)
    targets = np.frombuffer(indexed.targets, dtype=np.int64)
    return offsets, targets


def msbfs_levels(indexed, sources: Sequence[int], np=None):
    """Batched multi-source BFS levels from up to 64 distinct sources.

    Returns an ``(len(sources), n)`` int64 matrix of BFS distances
    (``-1`` for unreached nodes).  Row ``j`` is exactly the distance
    vector a stdlib BFS from ``sources[j]`` would produce; the batching
    is a pure execution strategy.

    ``sources`` are node *indices* (``0..n-1``), must be distinct, and
    at most :data:`BLOCK_SOURCES` of them fit one block (one uint64 bit
    each).

    Each level is advanced one of two ways, picked by frontier width:

    * **full pass** -- gather every edge's reach word and
      ``bitwise_or.reduceat`` per CSR row (bandwidth-bound, best when
      most nodes changed last level);
    * **delta scatter** -- expand only the frontier's out-edges, sort by
      head node and ``reduceat`` the segments (best when few nodes
      changed; the total scatter work over a whole run is proportional
      to the number of (node, reach-change) events, not ``D * m``).

    Both compute the same fixpoint step, so the switch is invisible.
    """
    if np is None:
        np = require_numpy("the batched multi-source BFS kernel")
    n = len(indexed.labels)
    src = np.asarray(sources, dtype=np.int64)
    count = int(src.size)
    if count == 0:
        return np.empty((0, n), dtype=np.int64)
    if count > BLOCK_SOURCES:
        raise ValueError(
            f"at most {BLOCK_SOURCES} sources per block, got {count}"
        )
    if int(np.unique(src).size) != count:
        raise ValueError("multi-source BFS sources must be distinct")
    if int(src.min()) < 0 or int(src.max()) >= n:
        raise IndexError("source index out of range")

    offsets, targets = _csr_arrays(indexed, np)
    starts = offsets[:-1]
    degrees = np.frombuffer(indexed.degrees, dtype=np.int64)
    # ``reduceat`` guards for the full pass: an empty row would otherwise
    # reduce a stray single element, and the clamp keeps every index in
    # bounds when trailing rows are empty.
    empty_rows = np.nonzero(degrees == 0)[0]
    safe_starts = np.minimum(starts, max(int(targets.size) - 1, 0))
    num_edges = int(targets.size)

    reach = np.zeros(n, dtype=np.uint64)
    bits = np.uint64(1) << np.arange(count, dtype=np.uint64)
    reach[src] = bits  # distinct sources: plain fancy assignment is safe
    dist = np.full((count, n), -1, dtype=np.int64)
    dist[np.arange(count), src] = 0

    frontier = src
    frontier_words = bits
    level = 0
    while num_edges and frontier.size:
        level += 1
        if level > n:  # pragma: no cover - the frontier always empties
            break
        frontier_edges = int(degrees[frontier].sum())
        if 4 * frontier_edges >= num_edges:
            # Wide frontier: one bandwidth-bound pass over every edge.
            acc = np.bitwise_or.reduceat(reach[targets], safe_starts)
            if empty_rows.size:
                acc[empty_rows] = 0
            new = reach | acc
            delta = new ^ reach
            frontier = np.nonzero(delta)[0]
            frontier_words = delta[frontier]
            reach = new
        else:
            # Narrow frontier: push only the changed words along the
            # frontier's out-edges, then OR per head node via a sorted
            # segmented reduction.
            row_starts = starts[frontier]
            cum = np.cumsum(degrees[frontier])
            positions = np.arange(frontier_edges) + np.repeat(
                row_starts - (cum - degrees[frontier]), degrees[frontier]
            )
            heads = targets[positions]
            words = np.repeat(frontier_words, degrees[frontier])
            order = np.argsort(heads)
            heads = heads[order]
            words = words[order]
            seg = np.concatenate(
                ([0], np.nonzero(np.diff(heads))[0] + 1)
            )
            unique_heads = heads[seg]
            old_words = reach[unique_heads]
            merged = old_words | np.bitwise_or.reduceat(words, seg)
            changed = merged != old_words
            frontier = unique_heads[changed]
            frontier_words = merged[changed] ^ old_words[changed]
            reach[frontier] = merged[changed]
        if not frontier.size:
            break
        # Expand the newly-set bits into (source, node) level stamps.
        # ``astype('<u8')`` pins little-endian byte order so the uint8
        # view enumerates bits 0..63 regardless of platform.
        bitmat = np.unpackbits(
            frontier_words.astype("<u8").view(np.uint8).reshape(
                frontier.size, 8
            ),
            axis=1,
            bitorder="little",
        )
        rows, cols = np.nonzero(bitmat[:, :count])
        dist[cols, frontier[rows]] = level
    return dist


def _pick_block(np, candidates, lower, upper, mindist, degrees):
    """Select the next BFS block: half max-upper, half min-lower sources.

    The classical Takes-Kosters alternation, batched: sources with the
    largest upper bounds pin down the diameter-side eccentricities,
    sources with the smallest lower bounds the radius side; running 32
    of each per block tightens both ends of every node's interval at
    once.  Because all 64 picks share the *same* stale bounds, ties are
    broken by distance to every previously swept source (``mindist``,
    descending) and then degree -- without that, tie-heavy graphs make a
    batch cluster in one region and the 64 BFS trees carry redundant
    information.  The choice only affects speed, never values: every
    strategy here is exact.
    """
    if candidates.size <= BLOCK_SOURCES:
        return candidates
    half = BLOCK_SOURCES // 2
    upper_rank = np.lexsort(
        (candidates, -degrees[candidates], -mindist[candidates],
         -upper[candidates])
    )
    by_upper = candidates[upper_rank[:half]]
    rest = np.setdiff1d(candidates, by_upper, assume_unique=True)
    lower_rank = np.lexsort(
        (rest, -degrees[rest], -mindist[rest], lower[rest])
    )
    by_lower = rest[lower_rank[: BLOCK_SOURCES - half]]
    return np.concatenate([by_upper, by_lower])


def all_eccentricities_vector(
    indexed,
    np=None,
    fallback: Optional[Callable[[], List[int]]] = None,
) -> List[int]:
    """Exact all-eccentricities via batched Takes-Kosters (numpy).

    Returns the index-ordered eccentricity list -- plain Python ints,
    value-identical to ``_all_ecc_plain`` / ``_all_ecc_bitparallel`` /
    ``_all_ecc_pruned`` -- and raises
    :class:`~repro.graphs.graph.GraphError` on disconnected graphs.

    ``fallback`` is invoked (and its result returned verbatim) when the
    bound updates stop resolving nodes; the dispatching oracle passes the
    stdlib strategy it would otherwise have run.  Without a fallback the
    block loop simply runs to completion -- every block resolves its own
    sources, so the worst case is a brute-force 64-wide BFS sweep.
    """
    if np is None:
        np = require_numpy("the vectorized all-eccentricities kernel")
    n = len(indexed.labels)
    if n == 0:
        return []
    degrees = np.frombuffer(indexed.degrees, dtype=np.int64)
    eccs = np.full(n, -1, dtype=np.int64)
    lower = np.zeros(n, dtype=np.int64)
    upper = np.full(n, n, dtype=np.int64)
    mindist = np.full(n, n, dtype=np.int64)
    blocks_done = 0
    while True:
        candidates = np.nonzero(eccs < 0)[0]
        if not candidates.size:
            break
        if blocks_done == 0:
            # Landmark block: sources spread evenly across the index
            # range seed the bounds with globally-distributed BFS trees
            # (indices correlate with generator geometry for the sweep
            # families, e.g. chain position in clique chains).
            k = min(BLOCK_SOURCES, int(candidates.size))
            picks = np.unique(
                np.linspace(0, candidates.size - 1, num=k).astype(np.int64)
            )
            block = candidates[picks]
        else:
            block = _pick_block(np, candidates, lower, upper, mindist, degrees)
        dist = msbfs_levels(indexed, block, np)
        if bool((dist < 0).any()):
            raise GraphError(_DISCONNECTED)
        block_ecc = dist.max(axis=1)
        eccs[block] = block_ecc
        # Vectorized Takes-Kosters interval updates from all block
        # sources at once: for source u at distance d,
        # max(d, ecc_u - d) <= ecc_v <= ecc_u + d.
        lower = np.maximum(
            lower, np.maximum(dist, block_ecc[:, None] - dist).max(axis=0)
        )
        upper = np.minimum(upper, (block_ecc[:, None] + dist).min(axis=0))
        mindist = np.minimum(mindist, dist.min(axis=0))
        met = (eccs < 0) & (lower == upper)
        eccs[met] = lower[met]
        blocks_done += 1
        if fallback is not None and blocks_done >= PRUNE_PATIENCE_BLOCKS:
            swept = blocks_done * BLOCK_SOURCES
            resolved = n - int((eccs < 0).sum())
            if resolved - swept < PRUNE_MIN_RESOLVED_PER_BLOCK * blocks_done:
                # Bounds are not converging (e.g. tie-heavy rings of
                # cliques): hand the whole problem to the stdlib
                # strategy rather than brute-force n/64 blocks.
                return fallback()
    return eccs.tolist()


def bfs_levels_single(indexed, source: int, np=None):
    """Distance vector from one source (``-1`` unreached), as int64 array.

    A convenience wrapper over :func:`msbfs_levels` used by tests and
    ad-hoc tooling; the production oracles batch their sources.
    """
    return msbfs_levels(indexed, [source], np)[0]
