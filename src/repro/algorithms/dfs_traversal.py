"""Token-based Euler-tour (DFS) traversals of a spanning tree.

The paper's algorithms schedule work along a Depth-First-Search traversal of
``BFS(leader)``:

* Definition 1 numbers every node by ``tau(v)``, the step at which the DFS
  traversal of the BFS tree first reaches ``v`` (``tau(leader) = 0``);
* Step 1 of the Figure-2 Evaluation procedure performs only ``2d`` steps of
  that traversal, starting at the node ``u0`` received in the quantum data
  register, wrapping around to the leader when it reaches the end, and
  assigns the *relative* numbers ``tau'(v) = tau(v) - tau(u0) (mod L)`` to
  the nodes it reaches.

Both are implemented by passing a single ``O(log n)``-bit token along tree
edges.  The crucial observation (which keeps the per-node memory at
``O(log n)`` bits, as the paper requires) is that the Euler tour of a tree
is *memoryless*: the next edge only depends on the current node and on the
edge the token arrived through -- when the token arrives from the parent the
tour descends into the first child, and when it arrives from child ``c`` it
descends into the child after ``c`` (or returns to the parent after the last
child).  Children are ordered deterministically (the order fixed by the BFS
construction), so every node can apply the rule locally.

The traversal can optionally be restricted to a *subtree* of member nodes
that is closed under taking parents (e.g. the ball ``R`` of the closest
``s`` nodes to ``w`` used by the approximation algorithm): non-member
children are simply skipped by the local rule.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro._record import Record
from repro.algorithms.bfs import BFSTreeResult
from repro.congest.message import log_n_bits
from repro.congest.network import Network
from repro.congest.node import Inbox, NodeAlgorithm, Outbox
from repro.graphs.graph import NodeId


class EulerTourResult(Record):
    """Outcome of a (possibly windowed) Euler-tour traversal.

    ``visit_time`` maps each node reached by a *top-down* move (plus the
    start node, at time 0) to the traversal step at which it was first
    reached.  For the full tour this is exactly the DFS numbering ``tau`` of
    Definition 1; for a windowed tour started at ``u0`` it is the relative
    numbering ``tau'`` of the Figure-2 Evaluation procedure, and the set of
    keys is the set ``S(u0)`` of Definition 2.
    """

    __slots__ = ("start", "steps", "visit_time", "metrics")

    @property
    def visited(self) -> Set[NodeId]:
        """The set of nodes reached by the traversal (the set ``S``)."""
        return set(self.visit_time)


class _EulerTourNode(NodeAlgorithm):
    """Per-node state machine passing the Euler-tour token.

    The token payload is ``("tk", step, budget)`` where ``step`` is the
    number of tree-edge traversals performed so far and ``budget`` is the
    total number of steps to perform (``2 * (n_members - 1)`` for a full
    tour).  A second payload form ``("visit", step)`` is not needed: a node
    learns its visit time from the step counter of the token that enters it
    top-down.
    """

    def __init__(
        self, node_id, neighbors, num_nodes, rng,
        tree: BFSTreeResult, start: NodeId, budget: int,
        member: Callable[[NodeId], bool],
    ) -> None:
        super().__init__(node_id, neighbors, num_nodes, rng)
        self._log_n = log_n_bits(num_nodes)
        self.tree = tree
        self.start = start
        self.budget = budget
        self.is_member = member(node_id)
        self.parent = tree.parent[node_id]
        self.children: Tuple[NodeId, ...] = tuple(
            child for child in tree.children_of(node_id) if member(child)
        )
        self.visit_time: Optional[int] = None
        # Reactive node: the execution ends when the token budget runs out.
        self.finished = True

    # -- local Euler-tour rule -----------------------------------------
    def _next_hop(self, came_from: Optional[NodeId]) -> Optional[NodeId]:
        """Where the tour goes next, given where the token arrived from.

        ``came_from is None`` or ``came_from == parent`` means a top-down
        arrival: descend into the first child, or bounce back to the parent
        if there is none.  Arrival from child ``c``: descend into the child
        following ``c``, or go up to the parent after the last child.  The
        tree root wraps around (restarts its child list) instead of going to
        its (non-existent) parent -- this implements the cyclic continuation
        "if it reaches the end of the DFS, it starts again from leader".
        """
        if came_from is None or came_from == self.parent:
            if self.children:
                return self.children[0]
            return self._up()
        index = self.children.index(came_from)
        if index + 1 < len(self.children):
            return self.children[index + 1]
        return self._up()

    def _up(self) -> Optional[NodeId]:
        if self.parent is not None:
            return self.parent
        # Root: wrap around and restart the tour from the first child.
        if self.children:
            return self.children[0]
        return None

    def _record_visit(self, step: int, came_from: Optional[NodeId]) -> None:
        if self.visit_time is not None:
            return
        arrived_top_down = came_from is None or (
            self.parent is not None and came_from == self.parent
        )
        # The tree root is never entered top-down; its (wrapped) visit time
        # is the moment the closed tour returns to it from its last child,
        # which matches tau(root) = 0 modulo the tour length.
        wrapped_to_root = (
            self.parent is None
            and came_from is not None
            and self.children
            and came_from == self.children[-1]
        )
        if arrived_top_down or wrapped_to_root:
            self.visit_time = step

    def on_round(self, round_number: int, inbox: Inbox) -> Optional[Outbox]:
        if round_number == 0:
            if self.node_id != self.start:
                return {}
            # The start node behaves as if the token had just entered it
            # top-down at step 0.
            self._record_visit(0, None)
            return self._forward(step=0, came_from=None)

        for sender, payload in inbox.items():
            if not (isinstance(payload, tuple) and payload and payload[0] == "tk"):
                continue
            step = payload[1]
            self._record_visit(step, sender)
            return self._forward(step=step, came_from=sender)
        return {}

    def _forward(self, step: int, came_from: Optional[NodeId]) -> Outbox:
        if step >= self.budget:
            return {}
        target = self._next_hop(came_from)
        if target is None:
            return {}
        return {target: ("tk", step + 1, self.budget)}

    def result(self):
        return self.visit_time

    def memory_bits(self) -> Optional[int]:
        # Visit time, parent pointer, child cursor: O(log n) bits.
        return 4 * self._log_n


def _run_tour(
    network: Network,
    tree: BFSTreeResult,
    start: NodeId,
    budget: int,
    member: Callable[[NodeId], bool],
) -> EulerTourResult:
    execution = network.run(
        lambda node, net: _EulerTourNode(
            node, net.neighbors(node), net.num_nodes, net.node_seed(node),
            tree, start, budget, member,
        ),
        max_rounds=budget + 4,
    )
    visit_time = {
        node: time for node, time in execution.results.items() if time is not None
    }
    execution.metrics.record_phase("euler_tour", execution.metrics.rounds)
    return EulerTourResult(
        start=start, steps=budget, visit_time=visit_time, metrics=execution.metrics
    )


def run_full_euler_tour(
    network: Network,
    tree: BFSTreeResult,
    members: Optional[Set[NodeId]] = None,
) -> EulerTourResult:
    """Full DFS traversal of ``tree`` from its root: the numbering ``tau``.

    When ``members`` is given, the traversal is restricted to the subtree
    induced by the member nodes (which must contain the root and be closed
    under taking parents); only member nodes receive a number.  The tour
    takes ``2 * (m - 1)`` token steps for ``m`` member nodes, hence
    ``O(m)`` rounds.
    """
    member = subtree_membership(tree, members)
    count = sum(1 for node in network.graph.nodes() if member(node))
    budget = max(0, 2 * (count - 1))
    return _run_tour(network, tree, tree.root, budget, member)


def run_windowed_euler_tour(
    network: Network,
    tree: BFSTreeResult,
    start: NodeId,
    window: int,
    members: Optional[Set[NodeId]] = None,
) -> EulerTourResult:
    """``window`` steps of the DFS traversal starting at ``start``.

    This is Step 1 of the Figure-2 Evaluation procedure (with ``window =
    2d``): the visited set is ``S(start)`` and the visit times are the
    relative numbers ``tau'``.  Takes ``window + O(1)`` rounds.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    member = subtree_membership(tree, members)
    if not member(start):
        raise ValueError(f"start node {start!r} is not a member of the subtree")
    count = sum(1 for node in network.graph.nodes() if member(node))
    # The window never needs to exceed one full tour: beyond that every
    # member node has already been visited.
    budget = min(window, max(0, 2 * (count - 1)) if count > 1 else 0)
    return _run_tour(network, tree, start, budget, member)


def sequential_euler_tour(
    tree: BFSTreeResult,
    start: NodeId,
    window: Optional[int] = None,
    members: Optional[Set[NodeId]] = None,
) -> Dict[NodeId, int]:
    """Sequential (non-distributed) reference of the Euler-tour visit times.

    Reproduces exactly the numbering that the distributed token traversal
    computes -- same child ordering, same wrap-around rule -- but without
    running the CONGEST simulation.  This step-by-step walk is the oracle:
    the test-suite holds the distributed traversal and
    :func:`repro.core.coverage.window_maxima` (which serves the quantum
    framework's "reference" evaluation mode) equal to it.

    ``window=None`` performs the full tour (``2 (m - 1)`` steps over the
    ``m`` member nodes); otherwise only ``window`` steps are performed.

    With ``members=None`` the walk reads ``tree.children`` itself (never
    mutating it), so a short window costs its ``window`` steps rather than
    a rebuild of the whole child table; only a member-restricted tour
    builds its own filtered table.
    """
    children: Dict[NodeId, Tuple[NodeId, ...]]
    if members is None:
        children = tree.children
        member_count = len(tree.parent)
    else:
        member = subtree_membership(tree, members)
        if not member(start):
            raise ValueError(f"start node {start!r} is not a member of the subtree")
        children = {
            node: tuple(child for child in tree.children_of(node) if member(child))
            for node in tree.parent
            if member(node)
        }
        member_count = len(children)
    budget = 2 * (member_count - 1) if member_count > 1 else 0
    if window is not None:
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        budget = min(window, budget)

    visit_time: Dict[NodeId, int] = {start: 0}
    current = start
    came_from: Optional[NodeId] = None
    for step in range(budget):
        child_list = children[current]
        parent = tree.parent[current]
        if came_from is None or came_from == parent:
            target = child_list[0] if child_list else _up_target(parent, child_list)
        else:
            index = child_list.index(came_from)
            if index + 1 < len(child_list):
                target = child_list[index + 1]
            else:
                target = _up_target(parent, child_list)
        if target is None:
            break
        arrived_top_down = tree.parent[target] is not None and tree.parent[target] == current
        wrapped_to_root = (
            tree.parent[target] is None
            and children[target]
            and current == children[target][-1]
        )
        came_from, current = current, target
        if (arrived_top_down or wrapped_to_root) and current not in visit_time:
            visit_time[current] = step + 1
    return visit_time


def _up_target(
    parent: Optional[NodeId], child_list: Tuple[NodeId, ...]
) -> Optional[NodeId]:
    if parent is not None:
        return parent
    if child_list:
        return child_list[0]
    return None


def subtree_membership(
    tree: BFSTreeResult, members: Optional[Set[NodeId]]
) -> Callable[[NodeId], bool]:
    """The membership test of the subtree ``members`` (every node when
    ``None``); raises ``ValueError`` unless ``members`` contains the root
    and is closed under taking parents."""
    if members is None:
        return lambda node: True
    member_set = set(members)
    if tree.root not in member_set:
        raise ValueError("the subtree members must contain the tree root")
    for node in member_set:
        parent = tree.parent[node]
        if parent is not None and parent not in member_set:
            raise ValueError(
                "the subtree members must be closed under taking parents "
                f"(node {node!r} is a member but its parent {parent!r} is not)"
            )
    return lambda node: node in member_set
