"""Independent reference answers for the records a ``repro`` store holds.

The benchmark rebuilds each graph of a grid from the store's run header
with the program's own generator (the graph *is* the input), then computes
every eccentricity with a plain breadth-first search written here, so a
wrong diameter or radius in the program cannot also corrupt the check.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Tuple

#: What each algorithm a workload runs promises about its value, against
#: the reference diameter ``D`` or radius ``R``.
GUARANTEES = {
    "classical_exact": "exact_diameter",
    "quantum_exact": "exact_diameter",
    "quantum_radius": "exact_radius",
    "two_approx": "two_approx",
    "two_approx_retry": "two_approx",
    "hprw_three_halves": "three_halves",
    "quantum_three_halves": "three_halves",
}


def read_store(path: str) -> Tuple[dict, List[dict]]:
    """The run header and the record payloads of a JSONL experiment store."""
    header, records = None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            if entry.get("kind") == "run":
                header = entry
            elif entry.get("kind") == "record":
                records.append(entry["record"])
    if header is None:
        raise ValueError(f"store {path} has no run header")
    return header, records


def eccentricities(graph) -> List[int]:
    """Every node's eccentricity, by one BFS per node over ``graph.edges()``."""
    index = {node: position for position, node in enumerate(graph.nodes())}
    adjacency: List[List[int]] = [[] for _ in index]
    for u, v in graph.edges():
        adjacency[index[u]].append(index[v])
        adjacency[index[v]].append(index[u])
    result = []
    for source in range(len(adjacency)):
        distance = [-1] * len(adjacency)
        distance[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            step = distance[node] + 1
            for neighbor in adjacency[node]:
                if distance[neighbor] < 0:
                    distance[neighbor] = step
                    queue.append(neighbor)
        if min(distance) < 0:
            raise ValueError("reference graph is disconnected")
        result.append(max(distance))
    return result


class Reference:
    """Diameter and radius of sweep graphs, memoised by edge set.

    Most families are deterministic in ``n``, so a run that cycles through
    several seeds computes their references once.
    """

    def __init__(self, generators) -> None:
        self._generators = generators
        self._memo: Dict[frozenset, Tuple[int, int, int]] = {}

    def of_spec(self, spec: dict) -> Tuple[int, int, int]:
        """``(nodes, diameter, radius)`` of the graph a header spec describes."""
        graph = self._generators.family_for_sweep(
            spec["family"], spec["num_nodes"], seed=spec["seed"]
        )
        key = frozenset(frozenset(edge) for edge in graph.edges())
        if key not in self._memo:
            ecc = eccentricities(graph)
            self._memo[key] = (graph.num_nodes, max(ecc), min(ecc))
        return self._memo[key]

    def check_store(self, path: str, faulty: bool) -> List[str]:
        """Every way the store's records break their guarantees (empty if none).

        ``faulty`` runs carry no oracle fields, so only the values and the
        ``success`` flags are checked against the reference.
        """
        header, records = read_store(path)
        specs = {
            f"{spec['family']}[{spec['num_nodes']}]": spec for spec in header["specs"]
        }
        expected = len(header["specs"]) * len(header["algorithms"])
        problems = []
        if len(records) != expected:
            problems.append(f"{len(records)} records, expected {expected}")
        for record in records:
            where = f"{record['family']} {record['algorithm']}"
            nodes, diameter, radius = self.of_spec(specs[record["family"]])
            value = record["value"]
            guarantee = GUARANTEES.get(record["algorithm"])
            if guarantee == "exact_diameter":
                ok = value == diameter
            elif guarantee == "exact_radius":
                ok = value == radius
            elif guarantee == "two_approx":
                ok = diameter <= 2 * value and value <= diameter
            elif guarantee == "three_halves":
                ok = (2 * diameter) // 3 <= value <= diameter
            else:
                problems.append(f"{where}: no reference guarantee")
                continue
            if not ok:
                problems.append(f"{where}: value {value}, D={diameter} R={radius}")
            if not record["success"] or record["num_nodes"] != nodes:
                problems.append(f"{where}: success/num_nodes wrong in {record}")
            if not faulty and (record["correct"] is not True or record["diameter"] != diameter):
                problems.append(f"{where}: oracle fields wrong in {record}")
        return problems
