"""The sequential Euler tour walks the BFS tree's own child table.

``sequential_euler_tour`` (behind every Lemma-1 window set) used to rebuild
a filtered ``{node: children}`` table over all ``n`` nodes on each call.
With ``members=None`` that table is exactly ``tree.children``, which the
walk now reads directly.  These tests hold its visit times equal to the
rebuilding version for every start node and window, and check that the
tree's table is left untouched.  ``window_maxima`` (every ``f(u)`` from one
walk of the tour) is held equal to the maximum over each ``window_set``.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.dfs_traversal import sequential_euler_tour
from repro.congest.network import Network
from repro.core.coverage import window_maxima, window_set
from repro.graphs import generators


def _rebuilding_euler_tour(tree, start, window=None) -> Dict:
    """The tour as it was written before it read ``tree.children`` directly:
    every call rebuilds the member-filtered child table (all nodes are
    members when no subtree is given)."""
    member = lambda node: True  # noqa: E731
    children = {
        node: tuple(child for child in tree.children_of(node) if member(child))
        for node in tree.parent
        if member(node)
    }
    member_count = len(children)
    budget = 2 * (member_count - 1) if member_count > 1 else 0
    if window is not None:
        budget = min(window, budget)

    def up_target(parent, child_list) -> Optional[object]:
        if parent is not None:
            return parent
        return child_list[0] if child_list else None

    visit_time = {start: 0}
    current, came_from = start, None
    for step in range(budget):
        child_list = children[current]
        parent = tree.parent[current]
        if came_from is None or came_from == parent:
            target = child_list[0] if child_list else up_target(parent, child_list)
        else:
            index = child_list.index(came_from)
            if index + 1 < len(child_list):
                target = child_list[index + 1]
            else:
                target = up_target(parent, child_list)
        if target is None:
            break
        arrived_top_down = (
            tree.parent[target] is not None and tree.parent[target] == current
        )
        wrapped_to_root = (
            tree.parent[target] is None
            and children[target]
            and current == children[target][-1]
        )
        came_from, current = current, target
        if (arrived_top_down or wrapped_to_root) and current not in visit_time:
            visit_time[current] = step + 1
    return visit_time


GRAPHS = {
    "clique_chain": lambda: generators.clique_chain(4, 4),
    "cycle": lambda: generators.cycle_graph(13),
    "random_regular": lambda: generators.random_regular_graph(14, 3, seed=2),
    "balanced_tree": lambda: generators.balanced_tree(2, 3),
}


@pytest.fixture(params=sorted(GRAPHS))
def tree(request):
    graph = GRAPHS[request.param]()
    nodes = sorted(graph.nodes(), key=repr)
    return run_bfs_tree(Network(graph, seed=1), nodes[len(nodes) // 2])


def test_every_start_and_window_matches_rebuilding_tour(tree):
    children = tree.children
    snapshot = dict(children)
    n = len(tree.parent)
    for start in tree.parent:
        for window in list(range(2 * (n - 1) + 2)) + [None]:
            assert sequential_euler_tour(tree, start, window) == (
                _rebuilding_euler_tour(tree, start, window)
            ), (start, window)
    assert tree.children is children
    assert tree.children == snapshot
    assert all(children[node] is snapshot[node] for node in snapshot)


def test_window_set_is_the_visited_set(tree):
    n = len(tree.parent)
    for start in tree.parent:
        assert window_set(tree, start, n) == set(
            _rebuilding_euler_tour(tree, start, n)
        )



# -- every window maximum from one walk -----------------------------------

MAXIMA_GRAPHS = {
    "single_node": lambda: generators.path_graph(1),
    "path": lambda: generators.path_graph(9),
    "star": lambda: generators.star_graph(8),
    "balanced_tree": lambda: generators.balanced_tree(2, 3),
    "clique_chain": lambda: generators.clique_chain(3, 4),
    "cycle": lambda: generators.cycle_graph(11),
    "random_regular": lambda: generators.random_regular_graph(14, 3, seed=2),
}


def _subtrees(tree):
    """``None`` (the whole tree) and parent-closed member sets: the root
    alone, the BFS balls of every radius, and a seeded random subtree."""
    yield None
    depth = max(tree.distance.values())
    for radius in range(depth + 1):
        yield {node for node, distance in tree.distance.items() if distance <= radius}
    rng = random.Random(len(tree.parent))
    members = {tree.root}
    for node in sorted(tree.parent, key=lambda node: (tree.distance[node], repr(node))):
        if tree.parent[node] in members and rng.random() < 0.6:
            members.add(node)
    yield members


def _value_tables(nodes):
    """Distinct shuffled values, equal values, and one indicator per node
    (whose window maximum is 1 exactly when that node is in the window)."""
    shuffled = list(range(len(nodes)))
    random.Random(7).shuffle(shuffled)
    yield dict(zip(nodes, shuffled))
    yield {node: 3 for node in nodes}
    for marked in nodes:
        yield {node: int(node == marked) for node in nodes}


@pytest.mark.parametrize("name", sorted(MAXIMA_GRAPHS))
def test_window_maxima_match_every_window_set(name):
    graph = MAXIMA_GRAPHS[name]()
    nodes = sorted(graph.nodes(), key=repr)
    tree = run_bfs_tree(Network(graph, seed=1), nodes[len(nodes) // 2])
    for members in _subtrees(tree):
        starts = sorted(tree.parent if members is None else members, key=repr)
        m = len(starts)
        windows = sorted({0, 1, 2, 3, 2 * m - 3, 2 * m - 2, 2 * m - 1, 2 * m, 5 * m} - {-1})
        for window in windows:
            sets = {u: window_set(tree, u, window, members=members) for u in starts}
            for values in _value_tables(nodes):
                maxima = window_maxima(tree, window, values, members=members)
                assert maxima == {
                    u: max(values[v] for v in sets[u]) for u in starts
                }, (name, sorted(members or ()), window)


def test_window_maxima_refuse_bad_input():
    tree = run_bfs_tree(Network(generators.path_graph(5), seed=1), 0)
    values = {node: node for node in tree.parent}
    with pytest.raises(ValueError, match="window"):
        window_maxima(tree, -1, values)
    with pytest.raises(ValueError, match="root"):
        window_maxima(tree, 2, values, members={1, 2})
    with pytest.raises(ValueError, match="closed under taking parents"):
        window_maxima(tree, 2, values, members={0, 2})
