"""Shared workload builders and reporting helpers for the benchmarks.

Every benchmark regenerates one experiment of the paper (a Table-1 row, a
figure, or an ablation of one of its design choices, ``bench_ablation_*``).
Measured quantities -- round counts, fitted exponents, ratios, crossovers --
are attached to the pytest-benchmark ``extra_info`` so they appear in the
benchmark report (``pytest benchmarks/ --benchmark-only``).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro.congest.network import Network
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.runner import BatchRunner


def clique_chain_family(
    block_counts: Iterable[int], clique_size: int = 4
) -> List[Tuple[str, Graph]]:
    """Graphs with n growing and D growing slowly (D = 2 * blocks - 1)."""
    return [
        (
            f"clique_chain[{blocks}x{clique_size}]",
            generators.clique_chain(blocks, clique_size),
        )
        for blocks in block_counts
    ]


def fixed_diameter_family(
    sizes: Iterable[int], diameter: int, seed: int = 1
) -> List[Tuple[str, Graph]]:
    """Graphs with n growing and the diameter held fixed."""
    return [
        (
            f"fixedD[{n},D={diameter}]",
            generators.diameter_controlled_graph(n, diameter, seed=seed),
        )
        for n in sizes
    ]


def cycle_family(sizes: Iterable[int]) -> List[Tuple[str, Graph]]:
    """Graphs where the diameter grows linearly with n."""
    return [(f"cycle[{n}]", generators.cycle_graph(n)) for n in sizes]


def network_for(graph: Graph, seed: int = 0) -> Network:
    """A CONGEST network with the default O(log n) bandwidth."""
    return Network(graph, seed=seed)


def measure_grid(
    graphs: List[Tuple[str, Graph]],
    row: Callable[[Tuple[str, Graph]], dict],
    jobs: int = 1,
    store=None,
    label: Optional[str] = None,
) -> List[dict]:
    """Submit one ``row`` task per grid point through the batch runner.

    ``row`` must be a module-level (picklable) callable taking one
    ``(name, graph)`` pair and returning that point's measurement dict.
    Results are ordered by grid position, so ``--jobs N`` changes only the
    wall-clock, never the report.

    ``store`` (see the ``--store`` benchmark option) persists every
    measured row to the experiment store, keyed by ``label`` and the grid
    point's name, so harness output survives the process.
    """
    rows = BatchRunner(jobs=jobs).map(row, graphs)
    if store is not None:
        label = label or getattr(row, "__name__", "measure_grid")
        persist_rows(store, label, [name for name, _ in graphs], rows)
    return rows


def persist_rows(store, label: str, keys: List[str], rows: List[dict]) -> None:
    """Append measured benchmark rows to an experiment store (if any)."""
    if store is None:
        return
    for key, row in zip(keys, rows):
        store.append_row(f"{label}|{key}", row)


def record(benchmark, **info) -> None:
    """Attach measured values to the benchmark report and print them."""
    for key, value in info.items():
        benchmark.extra_info[key] = value
    summary = ", ".join(f"{key}={value}" for key, value in info.items())
    print(f"\n[{benchmark.name}] {summary}")
