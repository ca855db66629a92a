"""The grid request: one shared description of a sweep/quantum grid.

``repro sweep`` run locally and ``repro jobs submit`` sent to the
experiment service must produce **byte-identical** canonical exports for
the same flags -- the acceptance differential of the service layer.
That identity is structural, not coincidental: both paths construct a
:class:`GridRequest` from the same parsed flags and execute it through
:func:`execute_grid_request`, so there is exactly one place where

* the user-facing ``--seed`` splits into the independent graph-stream /
  algorithm-stream seeds,
* family and size validation happens,
* algorithm names resolve to registry kernels (a quantum problem name
  first to its sweep name; no other place resolves one), and
* the fault flags become the :class:`repro.faults.FaultModel` handed to
  :func:`repro.analysis.sweep.run_sweep_grid`.

Where the cells run is not part of the request: the caller hands
:func:`execute_grid_request` a runner object (the CLI a
:class:`repro.dispatch.RemoteDispatch` when ``--coordinator`` or
``--dispatch-workers`` is given, the daemon one bound to its own
coordinator).

A request is plain data (JSON round-trip via :meth:`GridRequest.to_dict`
/ :meth:`GridRequest.from_dict`), so it travels over the service HTTP
API and sits in the job ledger unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.sweep import run_sweep_grid
from repro.faults import FaultModel
from repro.graphs import generators
from repro.names import MAX_GRID_NODES
from repro.runner import (
    BatchRunner,
    GraphSpec,
    grid,
    resolve_algorithms,
    task_seed,
)

#: Fields of older requests whose selections no longer exist (every run
#: uses the sparse scheduler and the batched schedule backend, the graph
#: oracles pick their own kernel, and the caller's runner decides where
#: cells execute).
_RETIRED_FIELDS = ("engine", "backend", "tier", "dispatch")


def _is_int(value: Any) -> bool:
    """Whether ``value`` is a JSON integer (``bool`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


#: How the algorithm names of a request resolve: ``sweep`` looks them up
#: in :data:`repro.runner.SWEEP_ALGORITHMS`, ``quantum`` treats them as
#: quantum problem names (the ``repro quantum`` command) and maps each to
#: its sweep name in :meth:`GridRequest.algorithm_table`.
GRID_KINDS = ("sweep", "quantum")


def fault_model_from_flags(
    loss: float = 0.0,
    delay: float = 0.0,
    max_delay: int = 1,
    crash: float = 0.0,
    crash_window: int = 32,
    down_rounds: int = 0,
    churn: float = 0.0,
    timeout: Optional[int] = None,
    seed: int = 0,
) -> Optional[FaultModel]:
    """The fault model selected by the ``--loss/--crash/...`` flag values.

    Returns ``None`` (the null model) when no flag asks for an actual
    fault: probabilities at zero and no fault timeout.
    May raise ``ValueError`` for out-of-range values.
    """
    if not (loss or delay or crash or churn or timeout is not None):
        return None
    return FaultModel(
        loss=loss,
        delay=delay,
        max_delay=max_delay,
        crash=crash,
        crash_window=crash_window,
        down_rounds=down_rounds,
        churn=churn,
        timeout=timeout,
        seed=seed,
    )


@dataclass(frozen=True)
class GridRequest:
    """A complete, serializable description of one grid run.

    ``seed`` is the *user-facing* seed (the CLI ``--seed``); the derived
    graph-stream and algorithm-stream seeds are computed in
    :meth:`graph_seed` / :meth:`base_seed`, never stored, so a request
    round-tripped through JSON cannot drift from a locally parsed one.
    """

    families: Tuple[str, ...]
    sizes: Tuple[int, ...]
    algorithms: Tuple[str, ...]
    kind: str = "sweep"
    diameter: Optional[int] = None
    seed: int = 0
    jobs: int = 1
    fault: Optional[FaultModel] = None

    def __post_init__(self) -> None:
        # Normalise sequences to tuples so requests hash/compare by value
        # regardless of whether they came from argparse or JSON.
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "sizes", tuple(int(size) for size in self.sizes))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    # -- validation ----------------------------------------------------
    def validate(self) -> None:
        """Reject malformed requests with the CLI's historical messages.

        Raises ``ValueError``; the CLI reports the message as a usage
        error (exit 2) and the service API as a structured 400.
        """
        if self.kind not in GRID_KINDS:
            raise ValueError(
                f"unknown grid kind {self.kind!r} (available: "
                + ", ".join(GRID_KINDS) + ")"
            )
        if not self.families:
            raise ValueError("a grid needs at least one family")
        if not self.sizes:
            raise ValueError("a grid needs at least one size")
        if not self.algorithms:
            raise ValueError("a grid needs at least one algorithm")
        for family in self.families:
            if family not in generators.SWEEP_FAMILIES and family != "controlled":
                known = ", ".join(
                    sorted(set(generators.SWEEP_FAMILIES) | {"controlled"})
                )
                raise ValueError(
                    f"unknown family {family!r} (available: {known})"
                )
        if "controlled" in self.families and self.diameter is None:
            raise ValueError("family 'controlled' requires --diameter")
        if self.diameter is not None and not _is_int(self.diameter):
            raise ValueError(
                f"diameter must be an integer, got {self.diameter!r}"
            )
        for size in self.sizes:
            if size < 1:
                raise ValueError(f"sizes must be >= 1, got {size}")
            if size > MAX_GRID_NODES:
                raise ValueError(f"sizes must be <= {MAX_GRID_NODES}, got {size}")
        self.algorithm_table()  # raises on unknown algorithm/problem names

    # -- derived execution inputs --------------------------------------
    def graph_seed(self) -> int:
        """The graph-construction seed stream derived from ``seed``."""
        return task_seed(self.seed, "sweep-graph-stream")

    def base_seed(self) -> int:
        """The per-cell algorithm seed stream derived from ``seed``."""
        return task_seed(self.seed, "sweep-algorithm-stream")

    def specs(self) -> Tuple[GraphSpec, ...]:
        """The ``families x sizes`` grid as graph specs (spec-major)."""
        return grid(
            self.families, self.sizes, diameter=self.diameter,
            seed=self.graph_seed(),
        )

    def algorithm_table(self) -> Dict[str, Any]:
        """Resolved ``sweep name -> kernel`` table for this request.

        The one place a quantum problem name resolves: a ``quantum``
        request's problems become their sweep names here, so everything
        below the request -- the sweep layer, records, remote dispatch
        and workers -- sees a plain sweep grid.
        """
        names = self.algorithms
        if self.kind == "quantum":
            from repro.core.problems import resolve_quantum_problem

            names = [resolve_quantum_problem(name).sweep_name for name in names]
        return resolve_algorithms(names)

    def total_cells(self) -> int:
        """Number of ``(spec, algorithm)`` cells the grid produces."""
        return len(self.families) * len(self.sizes) * len(self.algorithms)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON representation (round-trips via :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "families": list(self.families),
            "sizes": list(self.sizes),
            "algorithms": list(self.algorithms),
            "diameter": self.diameter,
            "seed": self.seed,
            "jobs": self.jobs,
            "fault": None if self.fault is None else self.fault.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GridRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Raises ``ValueError`` on unknown fields so a malformed API
        payload cannot silently drop a selection (e.g. a typoed
        ``"faults"`` running without faults), on a sequence or integer
        field of the wrong type, and on any fault model
        :meth:`repro.faults.FaultModel.from_dict` rejects.  The
        ``engine``, ``backend``, ``tier`` and ``dispatch`` keys of
        requests written before those selections were removed are
        dropped, so old ledger rows and ``POST /jobs`` bodies replay.
        """
        data = {
            key: value for key, value in data.items()
            if key not in _RETIRED_FIELDS
        }
        known = {item.name for item in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown grid request fields {sorted(unknown)} "
                f"(allowed: {sorted(known)})"
            )
        fault = data.get("fault")
        if fault is not None:
            fault = FaultModel.from_dict(fault)
        for name, kind in (("families", str), ("sizes", int),
                           ("algorithms", str)):
            value = data.get(name, ())
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(item, kind) and not isinstance(item, bool)
                for item in value
            ):
                raise ValueError(
                    f"grid request field {name!r} must be a list of "
                    f"{kind.__name__}, got {value!r}"
                )
        for name, default in (("seed", 0), ("jobs", 1)):
            if not _is_int(data.get(name, default)):
                raise ValueError(
                    f"grid request field {name!r} must be an integer, "
                    f"got {data[name]!r}"
                )
        return cls(
            families=tuple(data.get("families", ())),
            sizes=tuple(data.get("sizes", ())),
            algorithms=tuple(data.get("algorithms", ())),
            kind=data.get("kind", "sweep"),
            diameter=data.get("diameter"),
            seed=data.get("seed", 0),
            jobs=data.get("jobs", 1),
            fault=fault,
        )


def execute_grid_request(
    request: GridRequest,
    store=None,
    resume: bool = False,
    progress=None,
    should_stop=None,
    runner=None,
) -> List:
    """Run a grid request: the one execution path of CLI and daemon.

    Hands the request's fault model to
    :func:`repro.analysis.sweep.run_sweep_grid` and honours the
    checkpoint-store and cooperative progress/cancellation hooks.  The
    records -- and therefore the canonical export -- depend only on the
    request, never on who executed it.

    ``runner`` is where the cells run: any object with the
    :class:`repro.runner.BatchRunner` mapping surface -- the CLI and the
    service daemon pass a :class:`repro.dispatch.RemoteDispatch` bound
    to their coordinator.  ``None`` is a local ``BatchRunner`` with the
    request's ``jobs`` (serial at the default ``jobs=1``).
    """
    return run_sweep_grid(
        request.specs(),
        request.algorithm_table(),
        runner=BatchRunner(jobs=request.jobs) if runner is None else runner,
        base_seed=request.base_seed(),
        store=store,
        resume=resume,
        fault=request.fault,
        progress=progress,
        should_stop=should_stop,
    )
