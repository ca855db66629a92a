"""Run one ``repro`` CLI command in-process, recording where its time went.

Usage: ``python traced_cli.py TRACE.json ARGS...`` behaves like
``python -m repro ARGS...`` and afterwards writes to ``TRACE.json``:

* ``spans``: self time in seconds of each layer boundary, recorded by
  wrapping the program's entry points into that layer.  A span's self
  time excludes the spans nested in it, so the spans add up to the
  command's wall time;
* ``samples``: a CPU-time sampling profile binned by the innermost
  ``repro`` source file on the stack, which splits the simulation into
  the engine's layers without touching the program.  The kernel's timer
  tick may be coarser than ``SAMPLE_SECONDS``, so the samples are shares
  of ``cpu_seconds``, the process CPU time while sampling;
* ``counts``: work counters summed over every CONGEST execution;
* ``missing``: hook points this version of the program lacks.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from collections import Counter
from functools import wraps

SAMPLE_SECONDS = 0.001

#: ``(owner module, owner class, method, span)`` pairs: the calls into each
#: layer that get a span.
SPAN_HOOKS = (
    ("repro.runner.spec", "GraphSpec", "build", "graph_build"),
    ("repro.graphs.graph", "Graph", "compile", "compile"),
    ("repro.graphs.indexed", "IndexedGraph", "diameter", "oracle"),
    ("repro.graphs.indexed", "IndexedGraph", "radius", "oracle"),
    ("repro.graphs.indexed", "IndexedGraph", "all_eccentricities", "oracle"),
    ("repro.runner.algorithms", "SweepAlgorithmInfo", "__call__", "kernel"),
    ("repro.congest.network", "Network", "run", "simulate"),
    ("repro.store.jsonl", "ExperimentStore", "begin_sweep", "store"),
    ("repro.store.jsonl", "ExperimentStore", "append_record", "store"),
    ("repro.store.jsonl", "ExperimentStore", "finish_sweep", "store"),
)

#: Sample bins: the first prefix (a path below the ``repro`` package) that
#: the innermost ``repro`` frame matches names the layer.  Transport
#: functions named in ``SIZE_FUNCTIONS`` count as payload size measurement.
SAMPLE_LAYERS = (
    ("engine/transport.py", "transport"),
    ("congest/message.py", "size"),
    ("engine/scheduler.py", "scheduler"),
    ("engine/observers.py", "metrics"),
    ("congest/metrics.py", "metrics"),
    ("engine/", "round_loop"),
    ("congest/network.py", "round_loop"),
    ("faults.py", "faults"),
    ("quantum/", "quantum"),
    ("qcongest/", "quantum"),
    ("algorithms/", "node"),
    ("congest/", "node"),
    ("core/", "node"),
    ("graphs/", "graph"),
    ("store/", "store"),
)
SIZE_FUNCTIONS = frozenset({"measure", "_value_signature"})

#: ExecutionMetrics fields summed into ``counts``.
COUNTED_FIELDS = (
    "rounds",
    "messages",
    "total_bits",
    "size_cache_hits",
    "size_cache_misses",
    "dropped_messages",
    "delayed_messages",
)


class Spans:
    """A stack of open spans that accumulates each span's self time."""

    def __init__(self) -> None:
        self.self_seconds: Counter = Counter()
        self._stack = []

    def enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def exit(self, name: str) -> None:
        start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_seconds[name] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, function, name: str):
        @wraps(function)
        def traced(*args, **kwargs):
            self.enter()
            try:
                return function(*args, **kwargs)
            finally:
                self.exit(name)

        return traced


class Sampler:
    """A CPU-time sampling profiler on ``SIGPROF``, binned by source file."""

    def __init__(self, package_root: str) -> None:
        self.root = package_root + os.sep
        self.samples: Counter = Counter()

    def _layer(self, frame) -> str:
        while frame is not None:
            path = frame.f_code.co_filename
            if path.startswith(self.root):
                relative = path[len(self.root):].replace(os.sep, "/")
                if frame.f_code.co_name in SIZE_FUNCTIONS and relative == "engine/transport.py":
                    return "size"
                for prefix, layer in SAMPLE_LAYERS:
                    if relative.startswith(prefix):
                        return layer
                return "other"
            frame = frame.f_back
        return "other"

    def _on_signal(self, signum, frame) -> None:
        self.samples[self._layer(frame)] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_SECONDS, SAMPLE_SECONDS)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def _install_hooks(spans: Spans, counts: Counter) -> list:
    """Wrap every ``SPAN_HOOKS`` entry point; return the ones not found."""
    import importlib

    missing = []
    for module_name, class_name, method, span in SPAN_HOOKS:
        owner = getattr(importlib.import_module(module_name), class_name, None)
        function = getattr(owner, method, None)
        if function is None:
            missing.append(f"{module_name}.{class_name}.{method}")
            continue
        if span == "simulate":
            function = _counting(function, counts)
        setattr(owner, method, spans.wrap(function, span))
    return missing


def _counting(run, counts: Counter):
    """``Network.run`` that also sums its result's execution metrics."""

    @wraps(run)
    def counted(*args, **kwargs):
        result = run(*args, **kwargs)
        counts["network_runs"] += 1
        for field in COUNTED_FIELDS:
            counts[field] += getattr(result.metrics, field, 0)
        return result

    return counted


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    spans, counts = Spans(), Counter()
    spans.enter()
    import repro
    import repro.cli

    spans.exit("import")
    missing = _install_hooks(spans, counts)
    sampler = Sampler(os.path.dirname(os.path.abspath(repro.__file__)))
    cpu_started = time.process_time()
    sampler.start()
    spans.enter()
    try:
        status = repro.cli.main(cli_args)
    finally:
        spans.exit("cli")
        sampler.stop()
    cpu_seconds = time.process_time() - cpu_started
    trace = {
        "spans": dict(spans.self_seconds),
        "samples": dict(sampler.samples),
        "cpu_seconds": cpu_seconds,
        "counts": dict(counts),
        "missing": missing,
    }
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
