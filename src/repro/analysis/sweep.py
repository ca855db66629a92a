"""Parameter sweeps over graph families.

A sweep runs one or more diameter algorithms over a family of graphs with
varying ``(n, D)`` and collects one :class:`SweepRecord` per run.  The
benchmark harnesses use sweeps to regenerate the rows of Table 1; the
records are deliberately plain so they can be printed, fitted
(:mod:`repro.analysis.fitting`), exported or persisted
(:mod:`repro.store`).

Sweeps are batch workloads: every ``(graph, algorithm)`` cell is an
independent, deterministic run.  The one entry point,
:func:`run_sweep_grid`, takes :class:`repro.runner.spec.GraphSpec` recipes
and a table of ``(graph, seed, fault) -> (rounds, value)`` kernels (by
default from :data:`repro.runner.algorithms.SWEEP_ALGORITHMS`) and
executes on the runner object the caller hands in -- the serial
:class:`repro.runner.batch.BatchRunner` by default, a
``BatchRunner(jobs=N)`` process pool, or a
:class:`repro.dispatch.RemoteDispatch` that ships the cells to remote
workers.  The task body is the same code everywhere and results are
aggregated in task order, so the parallel record list is byte-identical
(same order, same values) to the serial one.  Workers construct each
graph themselves, once per worker per spec (see
:func:`repro.runner.spec.build_graph_cached`), which keeps task payloads
tiny and avoids rebuilding a graph once per algorithm.

Correctness checking is driven by **explicit metadata**: registry entries
are :class:`repro.runner.algorithms.SweepAlgorithmInfo` instances whose
``guarantee`` field names the contract to validate (exact equality with
the oracle diameter, the 2-approximation bound, or the [HPRW14]/Theorem-4
3/2-approximation bound).  Plain callables carry no metadata and are
never checked.  Earlier revisions keyed the check off the substring
``"exact"`` in the algorithm *name*, which was brittle (a renamed exact
algorithm silently lost its check) and could not express approximation
guarantees.

Algorithms whose headline value is not a diameter -- the quantum radius
and single-source-eccentricity problems of :mod:`repro.core.problems` --
carry their own ground-truth ``oracle`` on the registry entry; their
guarantee is validated against that oracle's value (computed per record
on the compiled CSR view) instead of the shared diameter oracle, which
they consequently never force.

The sequential diameter oracle is **lazy**: the true diameter is the most
expensive part of a sweep record's provenance (all-pairs BFS), so it is
only computed -- once per graph, on the compiled CSR view
(``graph.compile().diameter()``) -- when at least one algorithm in the
sweep *requires* it (``SweepAlgorithmInfo.needs_oracle``; by default the
exact algorithms).  Sweeps of pure approximation algorithms leave
:attr:`SweepRecord.diameter` as ``None`` (rendered ``-`` by
:func:`sweep_table`); when the oracle is available anyway, approximation
guarantees are validated opportunistically.

Fault model: the grid's :class:`repro.faults.FaultModel` travels in the
task context, so every cell -- serial, pooled or remote -- builds its
networks under the same fault model.  When
it is non-null (the ``repro sweep --loss/--crash/--churn`` flags) the
networks the kernels build inject message loss, delays, crashes and
churn.  Under faults, non-convergence is an *expected outcome*, not a
bug: simulator aborts (round/timeout limits, quiescence stalls) and
unreached-node errors are captured into the record as ``success=False`` with a
``failure_reason`` instead of aborting the whole sweep.  Task keys and
grid signatures incorporate the fault model's description, so faulty and
fault-free sweeps never alias in a store.

Checkpoint/resume: :func:`run_sweep_grid` optionally persists every
record to a :class:`repro.store.ExperimentStore` as it completes, and
with ``resume=True`` skips cells whose task keys are already in the
store, so an interrupted grid continues instead of recomputing.  Task
keys derive from the cell's identity (spec, algorithm, base seed), never
from execution order, so the merged record list is byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._digest import key_digest
from repro.congest.errors import CongestSimulationError
from repro.faults import NULL_FAULT_MODEL, FaultModel
from repro.graphs.graph import Graph
from repro.runner.algorithms import (
    EXACT,
    THREE_HALVES,
    TWO_APPROX,
    SweepAlgorithmInfo,
)
from repro.runner.batch import BatchRunner, task_seed
from repro.runner.spec import GraphSpec, build_graph_cached
# Defined in the store, which imports no simulator layer; re-exported for
# the callers that import them from the sweep module.
from repro.store.export import sweep_table
from repro.store.records import SweepRecord

#: Tolerance of the exactness assertion: an exact algorithm must return a
#: value that *is* an integer (up to float noise), not merely one that
#: truncates to the right answer.
_INTEGRALITY_TOL = 1e-6


class SweepCancelled(Exception):
    """A checkpointed sweep stopped cooperatively between task completions.

    Raised by :func:`run_sweep_grid` when its ``should_stop`` hook returns
    true.  Every record completed before the stop is already persisted to
    the store (records are flushed as they complete), so the partial
    progress in ``completed`` / ``total`` is durable and the grid can be
    resumed later exactly like an interrupted run.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            f"sweep cancelled after {completed}/{total} cells (completed "
            "cells are persisted; resume to continue)"
        )
        self.completed = completed
        self.total = total


def _guarantee_of(algorithm) -> Optional[str]:
    """The declared correctness contract of an algorithm table entry."""
    if isinstance(algorithm, SweepAlgorithmInfo):
        return algorithm.guarantee
    return None


def _needs_oracle(algorithms: Dict[str, Callable]) -> bool:
    """Whether any algorithm in the table requires the diameter oracle.

    Driven by :attr:`SweepAlgorithmInfo.needs_oracle`; plain callables
    (no metadata) never force the oracle.
    """
    return any(
        isinstance(algorithm, SweepAlgorithmInfo) and algorithm.needs_oracle
        for algorithm in algorithms.values()
    )


def _check_target(algorithm, graph: Graph, true_diameter: Optional[int]):
    """The ground-truth value ``algorithm``'s guarantee is checked against.

    The shared (lazy) diameter oracle by default; algorithms carrying
    their own ``oracle`` (quantum radius / source eccentricity) get that
    oracle's value instead, computed on the compiled CSR view.
    """
    if isinstance(algorithm, SweepAlgorithmInfo) and algorithm.oracle is not None:
        return algorithm.check_target(graph)
    return true_diameter


def _check_value(
    guarantee: Optional[str], value: float, true_diameter
) -> Tuple[Optional[bool], Dict[str, float]]:
    """Validate a measured value against its declared guarantee.

    ``true_diameter`` is the check target -- the oracle diameter for
    ordinary algorithms, the algorithm's own oracle value for
    custom-oracle entries (the failed-check ``extra`` keys keep the
    historical ``oracle_diameter`` name for export-schema stability).

    Returns ``(correct, extra)``: ``correct`` is ``None`` when no
    guarantee was declared or no oracle target is available; ``extra``
    describes a failed check (and is empty otherwise).
    """
    if guarantee is None or true_diameter is None:
        return None, {}
    extra: Dict[str, float] = {}
    if guarantee == EXACT:
        # round, not int(): int() truncates, so 3.9999999 would silently
        # become 3.  The exactness assertion additionally rejects values
        # that are not integers at all (e.g. 3.5 "close enough" to 4).
        rounded = round(value)
        integral = abs(value - rounded) <= _INTEGRALITY_TOL
        if not integral:
            extra["nonintegral_value"] = value
        correct = integral and int(rounded) == true_diameter
    elif guarantee == TWO_APPROX:
        # Single-BFS eccentricity: ceil(D / 2) <= value <= D.
        correct = value <= true_diameter and 2 * value >= true_diameter
    elif guarantee == THREE_HALVES:
        # [HPRW14] / Theorem 4 underestimate: floor(2 D / 3) <= value <= D,
        # the bound proved for D_hat in diameter_approx / approx_diameter.
        correct = (2 * true_diameter) // 3 <= value <= true_diameter
    else:  # pragma: no cover - rejected at SweepAlgorithmInfo construction
        raise ValueError(f"unknown guarantee {guarantee!r}")
    if not correct:
        extra["oracle_diameter"] = float(true_diameter)
        extra["value_minus_oracle"] = float(value - true_diameter)
    return correct, extra


def _run_cell(
    kernel, graph: Graph, seed: int, fault: FaultModel
) -> Tuple[int, float, bool, Optional[str]]:
    """Invoke one measurement kernel, degrading gracefully under faults.

    Returns ``(rounds, value, success, failure_reason)``.  With the null
    fault model the kernel call is not wrapped at all -- an exception is a
    bug and propagates exactly as before.  Under an active fault model,
    simulator aborts (:class:`repro.congest.errors.CongestSimulationError`:
    round/timeout limits, quiescence stalls) and the unreached-node
    ``RuntimeError`` of the BFS-based drivers are expected outcomes and
    become failed records; the rounds completed before a round-limit
    abort are recovered from the enriched exception.
    """
    if fault.is_null:
        rounds, value = kernel(graph, seed, fault)
        return rounds, value, True, None
    try:
        rounds, value = kernel(graph, seed, fault)
    except (CongestSimulationError, RuntimeError) as error:
        rounds = getattr(error, "rounds_completed", None) or 0
        return rounds, -1.0, False, f"{type(error).__name__}: {error}"
    return rounds, value, True, None


def _grid_cell_cost(task: Tuple[GraphSpec, str]) -> float:
    """The cost model's static prior for one grid cell.

    A pool's chunk plan reads it as ``_sweep_one_grid_cell.cost_of``:
    expensive large-n exact cells end up in small tail chunks instead of
    padding a fixed-size chunk of cheap ones.  Resolves the algorithm's
    correctness guarantee through the sweep registry (unknown names get
    the neutral exponent).
    """
    from repro.dispatch.cost import guarantee_of, static_cell_cost

    spec, name = task
    return static_cell_cost(spec.num_nodes, guarantee_of(name))


def _sweep_one_grid_cell(
    context: Tuple[Dict[str, Callable[..., Tuple[int, float]]], int, FaultModel],
    task: Tuple[GraphSpec, str],
) -> SweepRecord:
    """Run one ``(spec, algorithm)`` grid cell in this process.

    ``context`` is ``(algorithms, base_seed, fault)``.  The graph (and,
    when needed, its diameter oracle) comes from the per-process caches,
    so a chunk of cells sharing a spec constructs the graph once.
    """
    algorithms, base_seed, fault = context
    spec, name = task
    graph = build_graph_cached(spec)
    seed = task_seed(base_seed, spec, name)
    algorithm = algorithms[name]
    rounds, value, success, failure_reason = _run_cell(algorithm, graph, seed, fault)
    true_diameter: Optional[int] = None
    if _needs_oracle(algorithms):
        # Some algorithm of this sweep needs the oracle, so every record
        # of the spec carries it; the cached graph's compiled view
        # memoises its eccentricities, so this is one computation per
        # spec per worker.
        true_diameter = graph.compile().diameter()
    if success:
        correct, extra = _check_value(
            _guarantee_of(algorithm),
            value,
            _check_target(algorithm, graph, true_diameter),
        )
    else:
        correct, extra = None, {}
    return SweepRecord(
        family=spec.label,
        algorithm=name,
        num_nodes=graph.num_nodes,
        diameter=true_diameter,
        rounds=rounds,
        value=value,
        correct=correct,
        extra=extra,
        success=success,
        failure_reason=failure_reason,
    )


_sweep_one_grid_cell.cost_of = _grid_cell_cost


def sweep_task_key(
    spec: GraphSpec,
    algorithm: str,
    base_seed: int,
    fault: Optional[FaultModel] = None,
) -> str:
    """The stable identity of one grid cell, used for checkpoint/resume.

    Derives from the cell's *inputs* only (never from execution order or
    timing), so a resumed run recognises completed cells regardless of
    worker count or interruption point.  A non-null ``fault`` model is
    part of the cell's identity (a lossy record must never satisfy a
    fault-free resume); the null model contributes nothing, so every
    pre-fault store remains resumable.
    """
    key = (
        f"{spec.family}|n={spec.num_nodes}|D={spec.diameter}"
        f"|graph_seed={spec.seed}|algorithm={algorithm}|base_seed={base_seed}"
    )
    if fault is not None and not fault.is_null:
        key += f"|fault={fault.describe()}"
    return key


def grid_signature(
    specs: Sequence[GraphSpec],
    algorithm_names: Sequence[str],
    base_seed: int,
    fault: Optional[FaultModel] = None,
) -> str:
    """A digest identifying a grid, stored in run headers.

    Resuming into a store written for a *different* grid would silently
    mix incompatible records, so :func:`run_sweep_grid` refuses when the
    signatures disagree.  The fault model participates through the task
    keys (see :func:`sweep_task_key`).
    """
    return key_digest(
        sweep_task_key(spec, name, base_seed, fault)
        for spec in specs
        for name in algorithm_names
    )


def run_sweep_grid(
    specs: Sequence[GraphSpec],
    algorithms: Dict[str, Callable[..., Tuple[int, float]]],
    runner=None,
    base_seed: int = 0,
    store=None,
    resume: bool = False,
    fault: Optional[FaultModel] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> List[SweepRecord]:
    """Sweep a ``specs x algorithms`` grid, one record per cell.

    ``algorithms`` maps names to kernels with the
    ``(graph, seed, fault) -> (rounds, value)`` signature of
    :mod:`repro.runner.algorithms` (picklable when cells leave the
    process); wrap a kernel in
    :class:`repro.runner.algorithms.SweepAlgorithmInfo` to declare a
    correctness guarantee.  Each cell receives a deterministic seed
    derived from ``(base_seed, spec, name)``, so results do not depend on
    worker assignment or execution order.  Cells are submitted
    spec-major so chunk neighbours share the per-worker graph cache.

    ``runner`` decides where cells execute: any object offering the
    :class:`repro.runner.batch.BatchRunner` mapping surface (``jobs`` /
    ``map`` / ``imap`` with ordered results) -- a ``BatchRunner(jobs=N)``
    pool or a :class:`repro.dispatch.RemoteDispatch`, say.  ``None`` is
    the serial ``BatchRunner()``.  Aggregation, checkpoint appends and
    progress accounting below are runner-agnostic, so every runner
    inherits the byte-identical-to-serial guarantee.

    ``fault`` is the :class:`repro.faults.FaultModel` every cell runs
    under (``None``: the null model).  It travels in the task context,
    so pooled and remote cells stay byte-identical to serial ones, and
    it is part of every task key.

    ``store`` (a :class:`repro.store.ExperimentStore`) persists every
    record as it completes, together with a run-provenance header and a
    completion footer.  With ``resume=True``, cells whose task keys are
    already in the store are loaded instead of recomputed; the merged
    record list is identical to an uninterrupted run.  Writing a fresh
    sweep into a non-empty store requires ``resume=True`` (or a new
    file) -- mixing grids is refused via :func:`grid_signature`.  The
    store's advisory writer lock is held for the duration of the run, so
    two writers (a daemon worker and a concurrent ``repro sweep --out``,
    say) cannot interleave appends to one shard -- the second raises
    :class:`repro.store.StoreLockError` naming the holder pid.

    ``progress`` / ``should_stop`` are the service layer's cooperative
    hooks, honoured on checkpointed (``store``) runs: after every
    completed cell ``progress(done, total)`` is called with durable
    counts, and a true ``should_stop()`` raises :class:`SweepCancelled`
    *between* task completions -- everything finished so far is already
    flushed, so a cancelled grid resumes exactly like an interrupted one.
    """
    if fault is None:
        fault = NULL_FAULT_MODEL
    if runner is None:
        runner = BatchRunner()
    tasks = [(spec, name) for spec in specs for name in algorithms]
    context = (algorithms, base_seed, fault)
    if store is None:
        return runner.map(_sweep_one_grid_cell, tasks, context=context)

    with store.acquire_writer():
        signature = grid_signature(specs, list(algorithms), base_seed, fault)
        started = time.perf_counter()
        completed = store.begin_sweep(
            specs=specs,
            algorithms=list(algorithms),
            base_seed=base_seed,
            signature=signature,
            jobs=runner.jobs,
            resume=resume,
            fault=fault,
        )
        keys = [sweep_task_key(spec, name, base_seed, fault) for spec, name in tasks]
        results: List[Optional[SweepRecord]] = [completed.get(key) for key in keys]
        pending = [index for index, record in enumerate(results) if record is None]
        done = len(tasks) - len(pending)
        if progress is not None:
            progress(done, len(tasks))
        if should_stop is not None and should_stop():
            raise SweepCancelled(completed=done, total=len(tasks))
        # zip() pulls from imap lazily, so every record is persisted the
        # moment it is aggregated -- an interrupted run keeps its completed
        # prefix.  The stream comes first in the zip: with equal lengths,
        # the final pull exhausts the generator, running its pool shutdown
        # (close/join).  An early SweepCancelled exit closes the stream
        # explicitly, which terminates a local pool or closes a remote
        # grid's connection (cancelling it) -- the cells in flight are
        # recomputed on resume.
        stream = runner.imap(
            _sweep_one_grid_cell, [tasks[index] for index in pending], context=context
        )
        try:
            for record, index in zip(stream, pending):
                store.append_record(keys[index], index, record)
                results[index] = record
                done += 1
                if progress is not None:
                    progress(done, len(tasks))
                if should_stop is not None and should_stop():
                    raise SweepCancelled(completed=done, total=len(tasks))
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()
        store.finish_sweep(
            wall_seconds=time.perf_counter() - started,
            total_records=len(results),
            resumed_records=len(tasks) - len(pending),
        )
        return results
