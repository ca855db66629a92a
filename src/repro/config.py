"""The execution configuration every grid runs under.

One setting shapes a run: the fault model, which is part of a record's
identity (see :func:`repro.analysis.sweep.sweep_task_key`).  Nothing else
is selectable.  The CONGEST simulator always runs the event-driven
:class:`repro.engine.SparseScheduler`, the quantum layer always the
:class:`repro.quantum.backend.BatchedScheduleBackend`, and the graph
oracles pick their kernel from the graph and from whether numpy is
installed (:meth:`repro.graphs.indexed.IndexedGraph.all_eccentricities`).
The references (:class:`repro.engine.DenseScheduler`,
:class:`repro.quantum.backend.SamplingScheduleBackend`, the stdlib
oracle kernels) are reachable only from the differential tests.

:class:`ExecutionConfig` holds the fault model as one frozen, picklable
value.  It is built once -- from the CLI flags or from
:meth:`repro.service.gridspec.GridRequest.config` -- and passed
explicitly: into :func:`repro.analysis.sweep.run_sweep_grid`, inside the
task context that pool and remote workers receive, into every
:class:`repro.congest.network.Network` a kernel builds, and into the run
header (:func:`repro.store.provenance.collect_provenance`).  Remote
dispatch ships it as :meth:`ExecutionConfig.to_dict`.

:data:`DEFAULT_CONFIG` is the configuration used where a library caller
passes none, read at call time by :func:`resolve_config`.  Nothing in the
package assigns it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

from repro.faults import NULL_FAULT_MODEL, FaultModel, validate_fault_model

#: Fault-model fields that must be integers (``timeout`` may be ``None``);
#: the others are probabilities.
_INTEGER_FAULT_FIELDS = ("max_delay", "crash_window", "down_rounds", "timeout", "seed")


@dataclass(frozen=True)
class ExecutionConfig:
    """The fault model of a run (default: the null model).

    ``fault`` also accepts a :data:`repro.faults.FAULT_MODELS` name.
    """

    fault: FaultModel = NULL_FAULT_MODEL

    def __post_init__(self) -> None:
        object.__setattr__(self, "fault", validate_fault_model(self.fault))

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON; the default (null) fault model is ``None``."""
        return {
            "fault": None if self.fault == NULL_FAULT_MODEL else {
                item.name: getattr(self.fault, item.name)
                for item in fields(FaultModel)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionConfig":
        """Parse :meth:`to_dict` output; absent or ``None`` keys take defaults.

        ``fault`` may be an object of :class:`repro.faults.FaultModel`
        fields or a model instance.  Every malformed input -- unknown
        keys or fault fields, non-numeric fault values -- raises
        ``ValueError``.  A ``tier`` key, which configurations carried
        while the oracle kernel was a user selection, is ignored.
        """
        if not isinstance(data, Mapping):
            raise ValueError("an execution config must be an object")
        data = {key: value for key, value in data.items() if key != "tier"}
        unknown = set(data) - {item.name for item in fields(cls)}
        if unknown:
            raise ValueError(f"unknown execution config fields {sorted(unknown)}")
        values = {key: value for key, value in data.items() if value is not None}
        if "fault" in values and not isinstance(values["fault"], FaultModel):
            values["fault"] = _fault_from_dict(values["fault"])
        return cls(**values)


def _fault_from_dict(data: Any) -> FaultModel:
    """A :class:`FaultModel` from its JSON fields, or ``ValueError``."""
    if not isinstance(data, Mapping):
        raise ValueError("'fault' must be an object of FaultModel fields")
    known = [item.name for item in fields(FaultModel)]
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(
            f"unknown fault fields {sorted(unknown)} (allowed: {known})"
        )
    for name, value in data.items():
        integral = name in _INTEGER_FAULT_FIELDS
        allowed = (int,) if integral else (int, float)
        if isinstance(value, bool) or not isinstance(value, allowed):
            if name == "timeout" and value is None:
                continue
            kind = "an integer" if integral else "a number"
            raise ValueError(f"fault field {name!r} must be {kind}, got {value!r}")
    return FaultModel(**data)


#: The configuration used where a caller passes none (see the module
#: docstring).
DEFAULT_CONFIG = ExecutionConfig()


def resolve_config(
    config: Optional[ExecutionConfig] = None, fault: Any = None
) -> ExecutionConfig:
    """``config`` (:data:`DEFAULT_CONFIG` when ``None``) with ``fault``.

    A ``None`` fault keeps the config's, so optional flags and request
    fields can be passed straight through.
    """
    base = DEFAULT_CONFIG if config is None else config
    return base if fault is None else replace(base, fault=fault)
