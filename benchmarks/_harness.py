"""The one entry of the speed harnesses: run, write the report, hold the floor.

Each speed harness (``bench_dispatch``, ``bench_engine_overhead``,
``bench_faults``, ``bench_graphcore``, ``bench_quantum``,
``bench_runner_scaling``, ``bench_vector``) exposes
``run_benchmark(smoke=...) -> dict``, whose report carries ``smoke`` and
a ``headline_speedup``, and declares one :class:`Harness` with its
report path and the headline's floor in each mode.  Run as a script::

    PYTHONPATH=src python benchmarks/bench_X.py [--smoke] [--out PATH]

it writes the report to ``--out`` and exits 1 when a check of the
harness fails or the headline is below the floor of the mode that ran.
Its pytest function applies the same gate through :meth:`Harness.gate`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, Optional, Sequence

#: The repository root, where the ``BENCH_*.json`` reports land.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report_path(name: str) -> str:
    """The default location of report ``name`` (the repository root)."""
    return os.path.join(REPO_ROOT, name)


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


class Harness:
    """A harness's run, report path and gate.

    ``smoke_floor`` / ``full_floor`` bound ``headline_speedup`` in each
    mode (``None``: no floor).  ``check(report)``, when given, returns
    the descriptions of the harness's other gates that fail (identity,
    core-count-dependent bars); it runs in both modes.
    """

    def __init__(
        self,
        run_benchmark: Callable[..., dict],
        out_path: str,
        smoke_floor: Optional[float],
        full_floor: Optional[float],
        check: Optional[Callable[[dict], List[str]]] = None,
        description: Optional[str] = None,
    ) -> None:
        self.run_benchmark = run_benchmark
        self.out_path = out_path
        self.smoke_floor = smoke_floor
        self.full_floor = full_floor
        self.check = check
        self.description = description

    def failures(self, report: dict) -> List[str]:
        """Every gate ``report`` fails, the headline floor last."""
        failed = list(self.check(report)) if self.check is not None else []
        mode = "smoke" if report["smoke"] else "full"
        floor = self.smoke_floor if report["smoke"] else self.full_floor
        headline = report["headline_speedup"]
        if floor is not None and headline < floor:
            failed.append(f"headline {headline}x is below the {mode} floor {floor}x")
        return failed

    def gate(self, report: dict) -> None:
        """Write ``report`` to the default path; raise ``AssertionError``
        naming every gate it fails."""
        write_report(report, self.out_path)
        failed = self.failures(report)
        if failed:
            raise AssertionError("; ".join(failed))

    def parser(self) -> argparse.ArgumentParser:
        """``--smoke`` and ``--out``; a harness may add flags of its own,
        each passed to ``run_benchmark`` as the keyword of its name."""
        parser = argparse.ArgumentParser(description=self.description)
        parser.add_argument(
            "--smoke", action="store_true",
            help="small sizes for CI, held to the smoke floor",
        )
        parser.add_argument(
            "--out", default=self.out_path,
            help="where to write the JSON report",
        )
        return parser

    def main(
        self,
        argv: Optional[Sequence[str]] = None,
        parser: Optional[argparse.ArgumentParser] = None,
    ) -> int:
        """The script entry: 0 when every gate holds, 1 otherwise."""
        options = vars((parser or self.parser()).parse_args(argv))
        out = options.pop("out")
        report = self.run_benchmark(**options)
        write_report(report, out)
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"written to {out}")
        failed = self.failures(report)
        for failure in failed:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failed else 0
