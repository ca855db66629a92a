"""Workload generators: graph families with controllable size and diameter.

The benchmark harnesses (``benchmarks/``) sweep the number of nodes ``n`` and
the diameter ``D`` independently, because the paper's round complexities
(Table 1) depend on both: the quantum exact algorithm runs in
``O~(sqrt(n * D))`` rounds, the classical baseline in ``O(n)`` rounds, the
quantum 3/2-approximation in ``O~((n * D)**(1/3) + D)`` rounds, and so on.
The families below make it possible to hold one parameter fixed while
sweeping the other.

All generators take a ``seed`` (or none when deterministic) and return a
:class:`repro.graphs.graph.Graph` with integer node labels ``0..n-1``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

from repro.graphs.graph import Graph
from repro.names import SWEEP_FAMILIES


def path_graph(n: int) -> Graph:
    """Path on ``n`` nodes; diameter ``n - 1``."""
    _require_positive(n)
    graph = Graph(nodes=range(n))
    graph.add_edges_from((i, i + 1) for i in range(n - 1))
    return graph


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` nodes; diameter ``floor(n / 2)``."""
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 nodes, got {n}")
    graph = Graph(nodes=range(n))
    graph.add_edges_from((i, (i + 1) % n) for i in range(n))
    return graph


def star_graph(n: int) -> Graph:
    """Star with one hub and ``n - 1`` leaves; diameter 2 (for ``n >= 3``)."""
    _require_positive(n)
    graph = Graph(nodes=range(n))
    graph.add_edges_from((0, i) for i in range(1, n))
    return graph


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` nodes; diameter 1 (for ``n >= 2``)."""
    _require_positive(n)
    graph = Graph(nodes=range(n))
    graph.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n))
    return graph


def grid_graph(rows: int, cols: int) -> Graph:
    """``rows x cols`` grid; diameter ``rows + cols - 2``."""
    _require_positive(rows)
    _require_positive(cols)
    graph = Graph(nodes=range(rows * cols))

    def node(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                graph.add_edge(node(r, c), node(r, c + 1))
            if r + 1 < rows:
                graph.add_edge(node(r, c), node(r + 1, c))
    return graph


def balanced_tree(branching: int, depth: int) -> Graph:
    """Complete ``branching``-ary tree of the given ``depth``.

    Diameter is ``2 * depth`` and the number of nodes is
    ``(branching**(depth+1) - 1) / (branching - 1)`` for ``branching > 1``.
    """
    if branching < 1:
        raise ValueError(f"branching factor must be >= 1, got {branching}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    graph = Graph(nodes=[0])
    frontier = [0]
    next_label = 1
    for _ in range(depth):
        new_frontier: List[int] = []
        for parent in frontier:
            for _ in range(branching):
                graph.add_edge(parent, next_label)
                new_frontier.append(next_label)
                next_label += 1
        frontier = new_frontier
    return graph


def random_connected_gnp(n: int, p: float, seed: Optional[int] = None) -> Graph:
    """Erdos-Renyi ``G(n, p)`` conditioned on connectivity.

    Connectivity is guaranteed by first laying down a uniformly random
    spanning tree (random-permutation attachment) and then adding each of the
    remaining pairs independently with probability ``p``.  The resulting
    distribution is not exactly ``G(n, p) | connected`` but is a standard,
    well-behaved stand-in with the same density regime; it is used purely as
    a benchmark workload.
    """
    _require_positive(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    graph = Graph(nodes=range(n))
    for index in range(1, n):
        attach_to = order[rng.randrange(index)]
        graph.add_edge(order[index], attach_to)
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v) and rng.random() < p:
                graph.add_edge(u, v)
    return graph


def clique_chain(num_cliques: int, clique_size: int) -> Graph:
    """A chain of cliques: ``num_cliques`` cliques of ``clique_size`` nodes.

    Consecutive cliques are joined by a single bridge edge.  This family has
    ``n = num_cliques * clique_size`` nodes and diameter
    ``2 * num_cliques - 1`` (for ``clique_size >= 2``), which makes it ideal
    for sweeping ``n`` while keeping ``D`` proportional to a chosen value --
    exactly the regime where the quantum algorithm's ``sqrt(n * D)`` round
    count separates from the classical ``n``.
    """
    _require_positive(num_cliques)
    _require_positive(clique_size)
    graph = Graph(nodes=range(num_cliques * clique_size))
    for block in range(num_cliques):
        base = block * clique_size
        members = range(base, base + clique_size)
        for i in members:
            for j in members:
                if i < j:
                    graph.add_edge(i, j)
        if block + 1 < num_cliques:
            graph.add_edge(base + clique_size - 1, base + clique_size)
    return graph


def lollipop_graph(clique_size: int, path_length: int) -> Graph:
    """A clique of ``clique_size`` nodes with a path of ``path_length`` nodes
    attached; diameter ``path_length + 1``.
    """
    _require_positive(clique_size)
    if path_length < 0:
        raise ValueError(f"path_length must be >= 0, got {path_length}")
    graph = complete_graph(clique_size)
    previous = 0
    for i in range(path_length):
        new_node = clique_size + i
        graph.add_edge(previous, new_node)
        previous = new_node
    return graph


def barbell_graph(clique_size: int, path_length: int) -> Graph:
    """Two cliques of ``clique_size`` nodes joined by a path of
    ``path_length`` intermediate nodes; diameter ``path_length + 3`` for
    ``clique_size >= 2``.
    """
    _require_positive(clique_size)
    if path_length < 0:
        raise ValueError(f"path_length must be >= 0, got {path_length}")
    graph = complete_graph(clique_size)
    offset = clique_size + path_length
    for i in range(clique_size):
        for j in range(i + 1, clique_size):
            graph.add_edge(offset + i, offset + j)
    previous = 0
    for i in range(path_length):
        new_node = clique_size + i
        graph.add_edge(previous, new_node)
        previous = new_node
    graph.add_edge(previous, offset)
    return graph


def diameter_controlled_graph(
    n: int, target_diameter: int, seed: Optional[int] = None
) -> Graph:
    """A connected graph on ``n`` nodes with diameter exactly
    ``target_diameter`` (when feasible).

    Construction: a backbone path of ``target_diameter + 1`` nodes fixes a
    lower bound on the diameter; the remaining nodes are attached to backbone
    node 0 (forming a dense cluster around it) so that no eccentricity
    exceeds the backbone's.  Extra random chords are added inside the cluster
    to keep it from being a trivial star.

    Raises ``ValueError`` when ``target_diameter`` is infeasible for ``n``
    (needs ``2 <= target_diameter + 1 <= n``, or ``n == 1`` and diameter 0).
    """
    _require_positive(n)
    if n == 1:
        if target_diameter != 0:
            raise ValueError("a single-node graph has diameter 0")
        return Graph(nodes=[0])
    if target_diameter < 1 or target_diameter + 1 > n:
        raise ValueError(
            f"cannot build an n={n} graph with diameter {target_diameter}"
        )
    if target_diameter == 1:
        return complete_graph(n)
    rng = random.Random(seed)
    graph = path_graph(target_diameter + 1)
    cluster = list(range(target_diameter + 1, n))
    for node in cluster:
        graph.add_node(node)
        graph.add_edge(node, 0)
        # Also connect to backbone node 1 (if any) so cluster nodes do not
        # increase eccentricities beyond the backbone endpoints.
        if target_diameter >= 1:
            graph.add_edge(node, 1)
    for _ in range(len(cluster)):
        if len(cluster) >= 2:
            u, v = rng.sample(cluster, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return graph


def ring_of_cliques(
    num_cliques: int, clique_size: int, bridges: int = 1
) -> Graph:
    """``num_cliques`` cliques arranged in a ring, with ``bridges`` parallel
    bridge edges between consecutive cliques.

    Diameter behaviour: the ring closes the chain, so the farthest cliques
    are ``floor(num_cliques / 2)`` blocks apart and each block crossing
    costs one bridge hop plus at most one intra-clique hop.  With a single
    bridge the diameter is exactly ``2 * floor(num_cliques / 2) + 1`` for
    ``clique_size >= 4`` (equal to ``num_cliques`` when it is odd); a
    second bridge gives even rings a parallel route and shortens them to
    exactly ``num_cliques``.  Either way the diameter is
    ``Theta(num_cliques)`` -- about *half* the ``2 * num_cliques - 1`` of
    :func:`clique_chain` at the same block count.  Bridges beyond the
    second never change the diameter; they widen the inter-block cut,
    which lowers the congestion that bandwidth-limited algorithms pay per
    block crossing -- useful for sweeping bandwidth sensitivity at a
    fixed ``(n, D)``.

    Needs ``num_cliques >= 3`` (a ring) and
    ``1 <= bridges <= clique_size // 2`` so that every bridge uses distinct
    endpoints on both sides.
    """
    if num_cliques < 3:
        raise ValueError(f"a ring needs at least 3 cliques, got {num_cliques}")
    _require_positive(clique_size)
    if not 1 <= bridges <= max(1, clique_size // 2):
        raise ValueError(
            f"bridges must lie in [1, clique_size // 2] = "
            f"[1, {max(1, clique_size // 2)}], got {bridges}"
        )
    graph = Graph(nodes=range(num_cliques * clique_size))
    for block in range(num_cliques):
        base = block * clique_size
        members = range(base, base + clique_size)
        for i in members:
            for j in members:
                if i < j:
                    graph.add_edge(i, j)
        next_base = ((block + 1) % num_cliques) * clique_size
        # Left endpoints come from the top of this block, right endpoints
        # from the bottom of the next, so all bridges are node-disjoint.
        for bridge in range(bridges):
            graph.add_edge(base + clique_size - 1 - bridge, next_base + bridge)
    return graph


def random_regular_graph(n: int, degree: int, seed: Optional[int] = None) -> Graph:
    """A uniformly sampled connected ``degree``-regular graph on ``n`` nodes.

    Uses the configuration (pairing) model with rejection: each node gets
    ``degree`` stubs, a random perfect matching of the stubs proposes the
    edge set, and the sample is retried until it is simple (no self-loops
    or parallel edges) and connected.  For ``degree >= 3`` random regular
    graphs are expanders with high probability, so the diameter is
    ``Theta(log n / log (degree - 1))`` -- the low-diameter, constant-degree
    regime that complements the polynomial-diameter families above.

    ``n * degree`` must be even and ``degree < n``.
    """
    _require_positive(n)
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if degree >= n:
        raise ValueError(f"degree {degree} needs more than {n} nodes")
    if (n * degree) % 2 != 0:
        raise ValueError(f"n * degree must be even, got {n} * {degree}")
    rng = random.Random(seed)
    stubs = [node for node in range(n) for _ in range(degree)]
    # Rejection sampling terminates fast for the sparse degrees the sweep
    # families use (the simplicity probability tends to a positive constant
    # as n grows); the attempt cap turns pathological parameters into a
    # clear error instead of a hang.
    for _ in range(1000):
        _shuffle(stubs, rng)
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
    raise RuntimeError(
        f"could not sample a simple connected {degree}-regular graph "
        f"on {n} nodes after 1000 attempts"
    )


def preferential_attachment(
    n: int, attach: int = 2, seed: Optional[int] = None
) -> Graph:
    """Barabasi-Albert preferential attachment: power-law degree workload.

    Starts from a clique on ``attach + 1`` nodes; every new node connects
    to ``attach`` distinct existing nodes chosen proportionally to their
    current degree (via the repeated-endpoint trick).  Connected by
    construction, heavy-tailed degrees (a few hubs, many leaves), and
    diameter ``Theta(log n / log log n)`` with high probability for
    ``attach >= 2`` -- the small-world regime where ``D`` barely moves as
    ``n`` is swept.

    Needs ``n >= attach + 1`` and ``attach >= 1``.
    """
    if attach < 1:
        raise ValueError(f"attach must be >= 1, got {attach}")
    if n < attach + 1:
        raise ValueError(
            f"preferential attachment needs n >= attach + 1 = {attach + 1}, got {n}"
        )
    rng = random.Random(seed)
    graph = complete_graph(attach + 1)
    # One entry per edge endpoint: sampling uniformly from this list is
    # sampling nodes proportionally to degree.
    endpoints: List[int] = [
        node for edge in graph.edges() for node in edge
    ]
    for node in range(attach + 1, n):
        targets: Set[int] = set()
        while len(targets) < attach:
            targets.add(endpoints[rng.randrange(len(endpoints))])
        graph.add_node(node)
        for target in targets:
            graph.add_edge(node, target)
            endpoints.append(node)
            endpoints.append(target)
    return graph


def random_tree(n: int, seed: Optional[int] = None) -> Graph:
    """Uniform-attachment random tree on ``n`` nodes."""
    _require_positive(n)
    rng = random.Random(seed)
    graph = Graph(nodes=range(n))
    for node in range(1, n):
        graph.add_edge(node, rng.randrange(node))
    return graph


def family_for_sweep(
    kind: str, n: int, seed: Optional[int] = None
) -> Graph:
    """Dispatch helper used by the benchmark harnesses.

    ``kind`` is one of :data:`SWEEP_FAMILIES`: ``"path"``, ``"cycle"``,
    ``"star"``, ``"clique_chain"``, ``"ring_of_cliques"``, ``"lollipop"``,
    ``"random_sparse"``, ``"random_dense"``, ``"random_regular"``,
    ``"preferential"``, ``"tree"``.
    """
    if kind == "path":
        return path_graph(n)
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "star":
        return star_graph(n)
    if kind == "clique_chain":
        clique_size = max(2, int(round(n ** 0.5)))
        num_cliques = max(1, n // clique_size)
        return clique_chain(num_cliques, clique_size)
    if kind == "lollipop":
        clique_size = max(2, n // 2)
        return lollipop_graph(clique_size, n - clique_size)
    if kind == "ring_of_cliques":
        clique_size = max(4, int(round(n ** 0.5)))
        num_cliques = max(3, n // clique_size)
        return ring_of_cliques(num_cliques, clique_size, bridges=2)
    if kind == "random_sparse":
        return random_connected_gnp(n, p=2.0 / max(n, 2), seed=seed)
    if kind == "random_dense":
        return random_connected_gnp(n, p=0.3, seed=seed)
    if kind == "random_regular":
        # Degree 4 for every size: n * degree stays even regardless of the
        # parity of n, so one sweep never mixes degree regimes.
        return random_regular_graph(n, degree=4, seed=seed)
    if kind == "preferential":
        return preferential_attachment(n, attach=2, seed=seed)
    if kind == "tree":
        return random_tree(n, seed=seed)
    raise ValueError(f"unknown graph family {kind!r}")


def _shuffle(items: list, rng: random.Random) -> None:
    """``rng.shuffle(items)`` inlined: the same permutation and RNG state.

    ``random.Random.shuffle`` is a Fisher-Yates pass that draws each swap
    index through ``_randbelow``: ``n.bit_length()`` random bits, redrawn
    while ``>= n``.  Drawing those bits here directly consumes exactly the
    same ``getrandbits`` stream without the per-index method call, which
    halves the cost of the rejection loop in :func:`random_regular_graph`.
    """
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        n = i + 1
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


def _require_positive(value: int) -> None:
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
