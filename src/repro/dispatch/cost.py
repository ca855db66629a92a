"""Per-cell cost model and the one cost-prefix cut every schedule uses.

Equal slices of a grid pin the whole sweep to the slowest slice: one
slow worker -- or one expensive cell (a large-``n`` exact-diameter
oracle dominates the Theorem-1/Theorem-7 sweeps this reproduction runs)
-- holds everything else up.  This module supplies what the dispatch
coordinator (:class:`repro.dispatch.coordinator.DispatchCoordinator`)
and the local pool (:class:`repro.runner.batch.BatchRunner`) size their
work with instead:

* :class:`CostModel` -- a per-cell wall-time estimate.  The *static*
  prior is a power law in the cell's node count whose exponent depends
  on the algorithm's correctness guarantee (an ``exact`` kernel runs an
  all-pairs-flavoured schedule, ``~n^2`` on the sparse families swept
  here; a ``two_approx`` is a constant number of BFS waves, ``~n``).
  The prior is *calibrated online*: completed-cell wall times streamed
  back in worker heartbeats update a per-algorithm scale factor (the
  ratio of observed to predicted totals), so absolute estimates converge
  to the deployment's real speed while staying **ordering-independent**
  -- the scale is a ratio of sums, so the estimate after a set of
  observations does not depend on the order they arrived in (up to
  float-addition rounding, which never changes a shard plan cut).
* :func:`take_cost_prefix` -- the one cut rule: the head of an index
  list worth a cost budget, at least one and at most ``max_cells``
  cells.  Every coordinator lease and steal split is one call.
* :func:`plan_chunks` -- a factoring (guided-self-scheduling-style)
  chunk plan over a cost sequence, made of repeated
  :func:`take_cost_prefix` cuts: each takes ``remaining / (factor *
  workers)`` worth of *cost* off the head, so chunks are large at the
  head (amortising per-chunk overhead while plenty of work remains) and
  small at the tail (bounding how much a straggler can hold).  It is
  :class:`repro.runner.batch.BatchRunner`'s local chunk plan, so
  ``--jobs`` sweeps get the same shrinking tail as the coordinator's
  leases.

Everything here is deterministic in its inputs: no wall clocks, no
randomness, no dict-iteration dependence -- the shard plan for a given
grid and calibration state is byte-identical across processes and
``PYTHONHASHSEED`` values (regression-tested).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.names import MAX_GRID_NODES

#: Cost-exponent priors by correctness guarantee: how a cell's wall time
#: scales with its node count.  ``exact`` schedules touch every node's
#: BFS (~n * m, m ~ n on the sparse sweep families); the approximation
#: kernels run O(1) BFS waves plus aggregation.  Unknown guarantees get
#: the middle prior -- calibration absorbs the error either way.
GUARANTEE_EXPONENTS: Dict[Optional[str], float] = {
    "exact": 2.0,
    "three_halves": 1.8,
    "two_approx": 1.3,
    None: 1.5,
}

#: Default factoring divisor of :func:`plan_chunks`: each cut takes
#: ``remaining_cost / (FACTOR * weight_share)`` -- 2.0 is the classic
#: factoring choice (half the remaining work spread fairly per round).
FACTOR = 2.0

#: Node-count floor so tiny cells keep a nonzero, comparable cost.
_MIN_NODES = 2


def guarantee_of(name: str) -> Optional[str]:
    """The correctness guarantee of a registered sweep algorithm.

    Unknown names return ``None`` rather than raising -- the cost model
    is advisory, and a coordinator must keep scheduling grids whose
    kernels it cannot resolve locally.
    """
    try:
        from repro.runner.algorithms import SWEEP_ALGORITHMS

        info = SWEEP_ALGORITHMS.get(name)
        return info.guarantee if info is not None else None
    except Exception:
        return None


def static_cell_cost(
    num_nodes: int, guarantee: Optional[str] = None
) -> float:
    """The uncalibrated cost prior of one cell, in arbitrary units.

    A pure power law ``n ** exponent(guarantee)``; only *ratios* between
    cells matter to the planner, so the unit is irrelevant until
    calibration maps it onto seconds.
    """
    exponent = GUARANTEE_EXPONENTS.get(guarantee, GUARANTEE_EXPONENTS[None])
    return float(max(int(num_nodes), _MIN_NODES)) ** exponent


class CostModel:
    """Static per-cell priors, calibrated online from observed wall times.

    ``observe(algorithm, num_nodes, seconds, guarantee=...)`` accumulates
    the observed seconds and the static prior of completed cells per
    algorithm; ``estimate(...)`` then returns ``prior * scale`` where
    ``scale = observed_total / prior_total`` for that algorithm (falling
    back to the all-algorithm ratio, then to the raw prior).  Because the
    scale is a ratio of *sums*, the model state after any multiset of
    observations is independent of their arrival order (up to float
    rounding) -- stealing and speculation can reorder completions freely
    without making the shard plan nondeterministic.
    """

    def __init__(self) -> None:
        # algorithm -> [observed_seconds_total, prior_units_total]
        self._per_algorithm: Dict[str, List[float]] = {}
        self._all: List[float] = [0.0, 0.0]

    def observe(
        self,
        algorithm: str,
        num_nodes: int,
        seconds: float,
        guarantee: Optional[str] = None,
    ) -> None:
        """Record one completed cell's wall time.

        Negative and non-finite times (a heartbeat is outside input, and
        JSON admits ``NaN`` and ``Infinity``) are ignored, and so are node
        counts below 1 or above :data:`repro.names.MAX_GRID_NODES`, which
        no admitted cell has: one of them would poison every later
        estimate.
        """
        seconds = float(seconds)
        if not math.isfinite(seconds) or seconds < 0.0:
            return
        if not 1 <= num_nodes <= MAX_GRID_NODES:
            return
        prior = static_cell_cost(num_nodes, guarantee)
        entry = self._per_algorithm.setdefault(str(algorithm), [0.0, 0.0])
        entry[0] += seconds
        entry[1] += prior
        self._all[0] += seconds
        self._all[1] += prior

    def observation_count(self) -> int:
        """How many algorithms have contributed calibration data."""
        return len(self._per_algorithm)

    def _scale(self, algorithm: str) -> Optional[float]:
        entry = self._per_algorithm.get(algorithm)
        if entry is not None and entry[1] > 0.0:
            return entry[0] / entry[1]
        if self._all[1] > 0.0:
            return self._all[0] / self._all[1]
        return None

    def estimate(
        self,
        algorithm: str,
        num_nodes: int,
        guarantee: Optional[str] = None,
    ) -> float:
        """Estimated cost of one cell: seconds once calibrated, else units."""
        prior = static_cell_cost(num_nodes, guarantee)
        scale = self._scale(str(algorithm))
        return prior if scale is None else prior * scale

    def grid_costs(self, description: Any) -> List[float]:
        """Per-task-index cost estimates for one dispatched grid.

        ``description`` is the wire grid description of
        :meth:`repro.dispatch.backend.RemoteDispatch._describe`: specs as
        plain dicts, algorithm names, and ``tasks`` as ``[spec_index,
        name_index]`` pairs.  Resolves each algorithm's guarantee through
        the registries (best-effort) and returns one estimate per task,
        in task order.

        Raises :class:`ValueError` for a description it cannot price:
        not an object, without the three lists, with a task that is not
        a pair of in-range integer indices, or with a spec that is not
        an object or whose ``num_nodes`` is not an integer from 1 to
        :data:`repro.names.MAX_GRID_NODES`.
        """
        if not isinstance(description, dict):
            raise ValueError("the description must be an object")
        specs, names, tasks = (
            description.get(key) for key in ("specs", "algorithms", "tasks")
        )
        if not all(isinstance(item, list) for item in (specs, names, tasks)):
            raise ValueError("specs, algorithms and tasks must be lists")
        guarantees = [guarantee_of(name) for name in names]
        costs: List[float] = []
        for task in tasks:
            if not (
                isinstance(task, list) and len(task) == 2
                and all(type(index) is int for index in task)
                and 0 <= task[0] < len(specs) and 0 <= task[1] < len(names)
            ):
                raise ValueError(
                    f"task {task!r} is not a [spec, algorithm] index pair"
                )
            spec_index, name_index = task
            spec = specs[spec_index]
            if not isinstance(spec, dict):
                raise ValueError(f"spec {spec_index} is not an object")
            try:
                nodes = int(spec.get("num_nodes", _MIN_NODES))
            except (TypeError, ValueError, OverflowError):
                raise ValueError(
                    f"spec {spec_index} has no priceable num_nodes"
                ) from None
            if not 1 <= nodes <= MAX_GRID_NODES:
                raise ValueError(
                    f"spec {spec_index} asks for {nodes} nodes "
                    f"(1 to {MAX_GRID_NODES})"
                )
            costs.append(self.estimate(
                names[name_index], nodes, guarantees[name_index]
            ))
        return costs


def take_cost_prefix(
    indices: Sequence[int],
    costs: Sequence[float],
    budget: float,
    max_cells: Optional[int] = None,
) -> Tuple[List[int], List[int]]:
    """Split ``indices`` into a head worth ``budget`` cost and the rest.

    Always takes at least one index (progress must be possible no matter
    how large one cell's estimate is) and at most ``max_cells``.
    ``costs`` is indexed by task index.  Returns ``(taken, remaining)``.
    """
    taken: List[int] = []
    spent = 0.0
    for position, index in enumerate(indices):
        if taken and spent >= budget:
            return taken, list(indices[position:])
        if max_cells is not None and len(taken) >= max_cells:
            return taken, list(indices[position:])
        taken.append(index)
        spent += costs[index]
    return taken, []


def plan_chunks(
    costs: Sequence[float],
    workers: int,
    factor: float = FACTOR,
    max_cells: Optional[int] = None,
) -> List[int]:
    """A factoring chunk plan over a cost sequence: list of chunk lengths.

    Walks the costs front to back, cutting each chunk with
    :func:`take_cost_prefix` to cover ``remaining_cost / (factor *
    workers)`` -- so chunk *cost* halves as the work drains: large chunks
    while there is plenty left (amortising per-chunk overhead), single
    cells at the tail (a straggler holds at most one expensive cell
    hostage).  Every chunk has at least one cell and, with
    ``max_cells``, at most that many.  ``sum(plan) == len(costs)``
    always.

    Deterministic in its inputs; :class:`repro.runner.batch.BatchRunner`'s
    local chunk plan.
    """
    workers = max(1, int(workers))
    remaining = list(range(len(costs)))
    remaining_cost = float(sum(costs))
    plan: List[int] = []
    while remaining:
        taken, remaining = take_cost_prefix(
            remaining, costs, remaining_cost / (factor * workers),
            max_cells=max_cells,
        )
        plan.append(len(taken))
        spent = sum(costs[index] for index in taken)
        remaining_cost = max(0.0, remaining_cost - spent)
    return plan
