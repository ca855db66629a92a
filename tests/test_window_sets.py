"""The sequential Euler tour walks the BFS tree's own child table.

``sequential_euler_tour`` (behind every Lemma-1 window set) used to rebuild
a filtered ``{node: children}`` table over all ``n`` nodes on each call.
With ``members=None`` that table is exactly ``tree.children``, which the
walk now reads directly.  These tests hold its visit times equal to the
rebuilding version for every start node and window, and check that the
tree's table is left untouched.
"""

from __future__ import annotations

from typing import Dict, Optional

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.dfs_traversal import sequential_euler_tour
from repro.congest.network import Network
from repro.core.coverage import window_set
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

