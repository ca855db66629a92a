"""Window sets ``S(u)`` (Definition 2) and the coverage bound of Lemma 1.

The final algorithm of Section 3.2 does not optimize ``ecc`` directly but
the function ``f(u) = max_{v in S(u)} ecc(v)``, where ``S(u)`` is the set of
nodes whose DFS-traversal number falls within a window of length ``2 d``
starting at ``u``.  Lemma 1 shows that a uniformly random ``u0`` covers any
fixed node with probability at least ``d / (2 n)``; since some node has
eccentricity ``D``, the mass ``P_opt`` of maximisers of ``f`` is at least
``d / (2 n)``, which is what buys the ``sqrt(n / d)``-iteration (hence
``sqrt(n d)``-round) bound of Theorem 1.

This module computes the window sets exactly (via the same sequential Euler
tour the distributed traversal follows), every ``f(u)`` at once from one
walk of that tour (:func:`window_maxima`, the reference oracle of the
windowed quantum problems), and the empirical counterparts of the Lemma-1
bound used by the tests and the ablation benchmark.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.algorithms.bfs import BFSTreeResult
from repro.algorithms.dfs_traversal import sequential_euler_tour, subtree_membership
from repro.graphs.graph import Graph, NodeId


def window_set(
    tree: BFSTreeResult,
    u0: NodeId,
    window: int,
    members: Optional[Set[NodeId]] = None,
) -> Set[NodeId]:
    """The set ``S(u0)`` of Definition 2: the window of the DFS traversal.

    ``window`` is the number of traversal steps (``2 d`` in the paper).
    One step-by-step walk per call: this is the oracle that
    :func:`window_maxima` is tested against, and what the coverage
    helpers below enumerate.
    """
    return set(sequential_euler_tour(tree, u0, window=window, members=members))


def window_maxima(
    tree: BFSTreeResult,
    window: int,
    values: Mapping[NodeId, Any],
    members: Optional[Set[NodeId]] = None,
) -> Dict[NodeId, Any]:
    """``max(values[v] for v in window_set(tree, u, window, members))`` for
    every member ``u``, from one walk of the Euler tour.

    The tour is cyclic and memoryless, so the walk of ``window`` steps from
    ``u`` continues the full tour from the step that first enters ``u``:
    ``S(u)`` is every member entered within ``min(window, 2 (m - 1))``
    steps after ``u`` (the root is entered at step 0, and again when the
    tour wraps from its last child).  A monotone-deque sliding maximum over
    the entry sequence, doubled for the wrap, gives all ``m`` values in
    ``O(m)``.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    member = subtree_membership(tree, members)
    children = tree.children
    order: List[NodeId] = [tree.root]
    entered: List[int] = [0]
    step = 0
    pending = [iter(children[tree.root])]
    while pending:
        child = next(pending[-1], None)
        if child is None:
            pending.pop()
            step += 1  # back up to the parent (one step too many at the root)
        elif member(child):
            step += 1
            order.append(child)
            entered.append(step)
            pending.append(iter(children[child]))
    length = step - 1  # 2 (m - 1) steps for m members
    reach = min(window, length)
    # The entry sequence twice over: the second lap enters every member
    # ``length`` steps later.
    lap_times = entered + [time + length for time in entered]
    lap_values = [values[node] for node in order] * 2
    # Indices into the doubled sequence whose values are non-increasing:
    # the front is the maximum of the current window.
    best: deque = deque()
    maxima: Dict[NodeId, Any] = {}
    end = 0
    for index, node in enumerate(order):
        last = entered[index] + reach
        while end < len(lap_times) and lap_times[end] <= last:
            while best and lap_values[best[-1]] <= lap_values[end]:
                best.pop()
            best.append(end)
            end += 1
        while best[0] < index:
            best.popleft()
        maxima[node] = lap_values[best[0]]
    return maxima


def coverage_probability(
    tree: BFSTreeResult,
    target: NodeId,
    window: int,
    members: Optional[Set[NodeId]] = None,
) -> float:
    """``Pr_{u0 uniform}[target in S(u0)]`` computed exactly.

    Lemma 1 guarantees this is at least ``d / (2 n)`` when
    ``window = 2 d``.
    """
    candidates = list(members) if members is not None else list(tree.parent)
    hits = sum(
        1
        for u0 in candidates
        if target in window_set(tree, u0, window, members=members)
    )
    return hits / len(candidates)


def popt_lower_bound(num_candidates: int, d: int) -> float:
    """The Lemma-1 lower bound ``d / (2 n)`` on ``P_opt`` (capped at 1)."""
    if num_candidates < 1:
        raise ValueError(f"need at least one candidate, got {num_candidates}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return min(1.0, d / (2.0 * num_candidates))


def empirical_optimum_mass(
    graph: Graph,
    tree: BFSTreeResult,
    window: int,
    members: Optional[Set[NodeId]] = None,
) -> float:
    """The true ``P_opt``: the fraction of ``u0`` whose window reaches a
    maximum-eccentricity node.

    The benchmark harness compares this against the Lemma-1 lower bound to
    show how much slack the bound leaves on concrete graph families.
    """
    eccentricities = graph.compile().all_eccentricities()
    if members is not None:
        relevant = {node: eccentricities[node] for node in members}
    else:
        relevant = eccentricities
    target_value = max(relevant.values())
    best_nodes = {node for node, value in relevant.items() if value == target_value}
    candidates = list(members) if members is not None else list(tree.parent)
    hits = sum(
        1
        for u0 in candidates
        if window_set(tree, u0, window, members=members) & best_nodes
    )
    return hits / len(candidates)
