"""Paired A/B of the end-to-end benchmark between two checkouts.

Usage (from the repository root)::

    python3 benchmarks/perfbench_pairs.py PARENT_DIR --workload classical --pairs 6

``PARENT_DIR`` is another checkout of this repository (say, a ``git
archive`` of the parent commit).  Each pair runs ``perfbench/run.py`` once
in each tree -- every tree its own, unmodified copy, in its own directory
-- and the tree that runs first alternates from pair to pair, so a drift
of the host's speed does not favour one side.  The host is shared, so a
single run says little; what is printed is, per metric, the median of
each side, the median and quartiles of the per-pair ratio change/parent,
and the number of pairs the change won (by the metric's ``better``
direction in ``BENCHMARK.json``).  The last line of standard output is
the same summary as JSON.  Every run is ``--seed 1 --seconds 8 --trace 0``:
the untraced end-to-end metrics, which are the ones compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One pair: the parent's and the change's metric values, by name.
Pair = Tuple[Mapping[str, float], Mapping[str, float]]

#: The ``perfbench/run.py`` options of every run, after ``--workload``.
RUN_OPTIONS = ("--seed", "1", "--seconds", "8", "--trace", "0")


def directions(root: str = ROOT) -> Dict[str, str]:
    """Each end-to-end metric's ``better`` direction (``lower``/``higher``)
    as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {metric["name"]: metric["better"] for metric in declared["end_to_end"]}


def summarize(pairs: Sequence[Pair], better: Mapping[str, str]) -> Dict[str, dict]:
    """Per metric present on both sides of every pair: ``parent_median``,
    ``change_median``, the per-pair ``ratio`` (change / parent) median
    and quartiles, and ``won``, the pairs in which the change is better
    (lower unless ``better`` says ``higher``; a tie is not a win).
    Pairs whose parent value is 0 have no ratio."""
    names = [
        name for name in pairs[0][0]
        if all(name in parent and name in change for parent, change in pairs)
    ] if pairs else []
    summary = {}
    for name in names:
        parents = [parent[name] for parent, _ in pairs]
        changes = [change[name] for _, change in pairs]
        ratios = [c / p for p, c in zip(parents, changes) if p]
        higher = better.get(name, "lower") == "higher"
        won = sum(1 for p, c in zip(parents, changes) if (c > p if higher else c < p))
        if len(ratios) >= 2:
            q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        elif ratios:
            q1 = median = q3 = ratios[0]
        else:
            q1 = median = q3 = None
        summary[name] = {
            "parent_median": statistics.median(parents),
            "change_median": statistics.median(changes),
            "ratio_median": median,
            "ratio_q1": q1,
            "ratio_q3": q3,
            "won": won,
            "pairs": len(pairs),
        }
    return summary


def run_tree(tree: str, workload: str) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its JSON result."""
    argv = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"),
        "--workload", workload, *RUN_OPTIONS,
    ]
    result = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench failed: {result.stderr.strip()[-2000:]}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def values(result: dict) -> Dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the other checkout (the parent commit)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)
    parent = os.path.abspath(args.parent)
    pairs: List[Pair] = []
    failed = {"parent": 0, "change": 0}
    for index in range(args.pairs):
        order = [("parent", parent), ("change", ROOT)]
        if index % 2:
            order.reverse()
        results = {side: run_tree(tree, args.workload) for side, tree in order}
        for side, result in results.items():
            failed[side] += result["failed"]
        pairs.append((values(results["parent"]), values(results["change"])))
        print(f"pair {index + 1}: " + ", ".join(
            f"{name} {pairs[-1][0][name]:.4g} -> {pairs[-1][1][name]:.4g}"
            for name in pairs[-1][0] if name in pairs[-1][1]
        ), flush=True)
    summary = summarize(pairs, directions())
    print(f"{'metric':<24} {'parent':>10} {'change':>10} {'ratio':>7} "
          f"{'q1':>7} {'q3':>7} {'won':>5}")
    for name, row in summary.items():
        ratio = ("{:7.3f} {:7.3f} {:7.3f}".format(
            row["ratio_median"], row["ratio_q1"], row["ratio_q3"])
            if row["ratio_median"] is not None else f"{'-':>7} {'-':>7} {'-':>7}")
        print(f"{name:<24} {row['parent_median']:>10.4g} {row['change_median']:>10.4g} "
              f"{ratio} {row['won']:>2}/{row['pairs']}")
    print(json.dumps({"workload": args.workload, "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
