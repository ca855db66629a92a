"""The parallel batch runner: fan independent runs out over a process pool.

The paper's evaluation is a *batch* workload: hundreds of independent
CONGEST runs over ``(family, n, D)`` grids (Table 1, Figures 1-8, the
Theorem-10/11 reductions).  Every run is deterministic and shares nothing
with its siblings, so across-run parallelism is embarrassing -- the only
engineering is in keeping parallel output **byte-identical** to serial
output.  :class:`BatchRunner` guarantees that by construction:

* tasks are dispatched in chunks through :meth:`multiprocessing.pool.Pool.map`,
  whose result list is ordered by task index regardless of which worker
  finished first;
* per-task randomness is derived with :func:`task_seed` from the task's
  *identity* (not from its execution order or wall-clock), so a task
  computes the same answer no matter which worker runs it;
* the shared callable and context object are shipped to each worker **once**
  (via the pool initializer), not once per task; everything a task needs
  -- including the grid's :class:`repro.faults.FaultModel` -- rides
  in that context, so workers depend on no inherited process state;
* worker exceptions propagate to the caller (the pool is torn down and the
  failure re-raised as :class:`BatchTaskError` naming the failing task and
  chaining the original exception), so a failing task cannot be silently
  dropped from the aggregate -- and a 400-cell sweep that dies tells you
  *which* cell died, not just that one did.

Serial execution (``jobs=1``, the default) runs the exact same per-task
code in-process -- there is one code path for the task body, so the
serial/parallel equality is structural rather than coincidental.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, TypeVar

Task = TypeVar("Task")
Result = TypeVar("Result")

#: Sentinel distinguishing "no context" from a ``None`` context.
_NO_CONTEXT = object()

#: Per-worker state installed by the pool initializer: the task callable,
#: the shared context and the per-worker caches (see :mod:`repro.runner.spec`).
_WORKER_STATE: dict = {}


class BatchTaskError(RuntimeError):
    """A pool worker's task raised; identifies *which* task failed.

    ``multiprocessing`` pickles worker exceptions back to the caller but
    strips them of any hint of which task was running -- fatal ergonomics
    for grid sweeps, where one bad ``(spec, algorithm)`` cell among
    hundreds needs to be findable from the failure alone.  The message
    carries the task's ``repr`` (a :class:`SweepTask` names its spec,
    algorithm and seed) plus the original exception type and text.
    Serial execution (``jobs=1``) is left unwrapped on purpose: there the
    original exception surfaces with its full traceback intact, which is
    strictly more diagnostic than any wrapper.

    Built as a single pre-formatted message string so the instance
    pickles across the pool boundary unchanged (multi-arg exceptions
    round-trip ``pickle`` badly).
    """


def _task_error(task, error: BaseException) -> BatchTaskError:
    """Wrap a task's exception with the task identity, for re-raising."""
    return BatchTaskError(
        f"task {task!r} failed: {type(error).__name__}: {error}"
    )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value to a worker count.

    ``None`` and ``1`` mean serial execution; ``0`` and negative values mean
    "one worker per available CPU"; anything else is taken literally.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def task_seed(base_seed: int, *components: Any) -> int:
    """A deterministic per-task seed derived from the task's identity.

    Uses a CRC of the stringified components (like
    :meth:`repro.congest.network.Network.node_seed`) so that the seed is
    stable across processes and Python's per-process string-hash
    randomisation, and independent of the order in which tasks execute.
    """
    text = "|".join([str(base_seed)] + [repr(component) for component in components])
    return zlib.crc32(text.encode("utf-8"))


def _worker_initializer(function, context) -> None:
    """Install the shared task callable and context in a pool worker.

    Runs once per worker process, so the (potentially large) context --
    an algorithm table with its fault model, a pickled search
    problem -- is transferred and deserialised once per worker instead of
    once per task.
    """
    _WORKER_STATE["function"] = function
    _WORKER_STATE["context"] = context


def _invoke_task(task):
    """Run one task in a pool worker using the installed state.

    Failures are wrapped in :class:`BatchTaskError` *inside the worker*,
    where the task is still in hand -- by the time the pool re-raises in
    the parent, the task identity would be gone.
    """
    function = _WORKER_STATE["function"]
    context = _WORKER_STATE["context"]
    try:
        if context is _NO_CONTEXT:
            return function(task)
        return function(context, task)
    except BatchTaskError:
        raise
    except Exception as error:
        raise _task_error(task, error) from error


def _invoke_chunk(chunk):
    """Run one planner-sized chunk of tasks in a pool worker, in order.

    The variable-size chunk plan (see :meth:`BatchRunner._chunks`) cannot
    use the pool's own fixed ``chunksize``, so chunks travel as explicit
    task lists; results come back as one ordered list per chunk and the
    caller flattens them, preserving task order exactly.
    """
    return [_invoke_task(task) for task in chunk]


class BatchRunner:
    """Run independent tasks over a process pool with ordered aggregation.

    Parameters
    ----------
    jobs:
        Number of worker processes (see :func:`resolve_jobs`; ``None``/``1``
        run serially in-process, ``0`` means one worker per CPU).
    start_method:
        ``multiprocessing`` start method (``None`` uses the platform
        default, ``fork`` on Linux).

    Notes
    -----
    Tasks reach the workers in chunks planned by the factoring planner
    shared with the dispatch coordinator
    (:func:`repro.dispatch.cost.plan_chunks`): chunk *cost* shrinks as
    the work drains, so chunks are large at the head (amortising IPC) and
    small at the tail (a straggler holds at most a few cells), capped at
    :attr:`MAX_CHUNK_CELLS` cells.  A mapped callable prices its own
    tasks through an optional ``cost_of`` attribute (a per-task cost
    estimator, called in the parent only; uniform costs otherwise) --
    the sweep grid's cell body carries the dispatch cost model's static
    per-cell prior there.  Chunks preserve task order, so tasks
    sharing a per-worker cache key (e.g. the same
    :class:`repro.runner.spec.GraphSpec`) should be submitted
    consecutively.

    The mapped callable, the context and every task must be picklable when
    ``jobs > 1`` (module-level functions and plain records are; lambdas
    are not).  Results are returned in task order; a worker exception
    aborts the batch and re-raises in the caller as
    :class:`BatchTaskError` naming the failing task.
    """

    #: Cap on one planned chunk's task count (the historical fixed cap).
    MAX_CHUNK_CELLS = 32

    def __init__(
        self,
        jobs: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.start_method = start_method

    def _chunks(
        self, tasks: Sequence, workers: int,
        cost_of: Optional[Callable[[Any], float]],
    ) -> List[List]:
        """The variable-size chunk plan for one batch.

        Deterministic in the task list and cost estimates -- no wall
        clocks, no dict iteration -- so the plan (and therefore the
        batch's execution structure) is identical across processes and
        ``PYTHONHASHSEED`` values.
        """
        # Local import: repro.dispatch pulls in this module through its
        # backend registry, so the dependency must stay one-way at
        # import time.
        from repro.dispatch.cost import plan_chunks

        if cost_of is None:
            costs: List[float] = [1.0] * len(tasks)
        else:
            costs = [float(cost_of(task)) for task in tasks]
        plan = plan_chunks(costs, workers, max_cells=self.MAX_CHUNK_CELLS)
        chunks: List[List] = []
        position = 0
        for length in plan:
            chunks.append(list(tasks[position:position + length]))
            position += length
        return chunks

    # ------------------------------------------------------------------
    def map(
        self,
        function: Callable[..., Result],
        tasks: Iterable[Task],
        context: Any = _NO_CONTEXT,
    ) -> List[Result]:
        """Apply ``function`` to every task; results ordered by task index.

        Without ``context`` the callable is invoked as ``function(task)``;
        with it, as ``function(context, task)`` -- the context is shipped
        to each worker once, so per-task payloads stay small.
        """
        return list(self.imap(function, tasks, context=context))

    def imap(
        self,
        function: Callable[..., Result],
        tasks: Iterable[Task],
        context: Any = _NO_CONTEXT,
    ) -> Iterator[Result]:
        """Like :meth:`map`, but yield results incrementally in task order.

        The checkpointing consumers (:func:`repro.analysis.sweep.run_sweep_grid`
        with a store) persist each result as it arrives, so an interrupted
        batch keeps its completed prefix.  Ordering is identical to
        :meth:`map` -- :meth:`multiprocessing.pool.Pool.imap` yields by task
        index regardless of which worker finishes first -- so consuming the
        iterator fully produces exactly ``map``'s result list.
        """
        tasks = list(tasks)
        if self.jobs <= 1 or len(tasks) <= 1:
            if context is _NO_CONTEXT:
                return (function(task) for task in tasks)
            return (function(context, task) for task in tasks)
        return self._imap_parallel(function, tasks, context)

    def _imap_parallel(self, function, tasks: Sequence, context) -> Iterator:
        # Imported here: a serial batch never pays for multiprocessing.
        import multiprocessing

        workers = min(self.jobs, len(tasks))
        mp_context = multiprocessing.get_context(self.start_method)
        pool = mp_context.Pool(
            processes=workers,
            initializer=_worker_initializer,
            initargs=(function, context),
        )
        try:
            chunks = self._chunks(
                tasks, workers, getattr(function, "cost_of", None)
            )
            for chunk in pool.imap(_invoke_chunk, chunks, chunksize=1):
                for result in chunk:
                    yield result
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()
