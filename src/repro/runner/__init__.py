"""Parallel batch execution of independent CONGEST runs.

The paper's evaluation -- Table-1 grids, figure sweeps, reduction batteries
-- is a bag of independent, deterministic simulator runs, so wall-clock
should scale with ``total_work / cores`` rather than ``total_work``.  This
package provides the machinery:

* :class:`BatchRunner` (:mod:`repro.runner.batch`) -- a process-pool mapper
  with chunked dispatch, once-per-worker context shipping, worker exception
  propagation and **ordered** result aggregation, so parallel output is
  byte-identical to serial output;
* :class:`GraphSpec` (:mod:`repro.runner.spec`) -- a picklable recipe for a
  benchmark graph, with a per-worker construction cache so a grid builds
  (and runs the diameter oracle on) each ``(family, n, D)`` graph once per
  worker, not once per algorithm;
* :data:`SWEEP_ALGORITHMS` (:mod:`repro.runner.algorithms`) -- module-level
  (hence picklable) measurement kernels referenced by name from grid tasks.

Consumers: :func:`repro.analysis.sweep.run_sweep_grid`, the CLI ``sweep --jobs``
command and the benchmark harnesses (``--jobs``).

Every name loads its module on first use, and :mod:`repro.runner.batch`
imports ``multiprocessing`` only when it builds a pool, so a serial grid
never loads it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "EXACT": "repro.runner.algorithms",
    "GUARANTEES": "repro.runner.algorithms",
    "SWEEP_ALGORITHMS": "repro.runner.algorithms",
    "THREE_HALVES": "repro.runner.algorithms",
    "TWO_APPROX": "repro.runner.algorithms",
    "SweepAlgorithmInfo": "repro.runner.algorithms",
    "resolve_algorithms": "repro.runner.algorithms",
    "BatchRunner": "repro.runner.batch",
    "BatchTaskError": "repro.runner.batch",
    "resolve_jobs": "repro.runner.batch",
    "task_seed": "repro.runner.batch",
    "GraphSpec": "repro.runner.spec",
    "build_graph_cached": "repro.runner.spec",
    "clear_worker_caches": "repro.runner.spec",
    "grid": "repro.runner.spec",
})
