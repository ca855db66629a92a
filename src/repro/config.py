"""The execution configuration every grid runs under.

Two settings shape a run: the compute tier of the graph oracles and the
fault model.  The tier selects *how* the oracles compute without changing
*what* they return (the tiers are proven byte-identical); the fault model
is part of a record's identity (see
:func:`repro.analysis.sweep.sweep_task_key`).  The CONGEST simulator
always runs the event-driven :class:`repro.engine.SparseScheduler` and
the quantum layer always the
:class:`repro.quantum.backend.BatchedScheduleBackend`; their references
(:class:`repro.engine.DenseScheduler`,
:class:`repro.quantum.backend.SamplingScheduleBackend`) are reachable
only through the ``scheduler=`` / ``backend=`` instance parameters that
the differential tests use.

:class:`ExecutionConfig` holds the two as one frozen, picklable value.
It is built once -- from the CLI flags or from
:meth:`repro.service.gridspec.GridRequest.config` -- and passed
explicitly: into :func:`repro.analysis.sweep.run_sweep_grid`, inside the
task context that pool and remote workers receive, into every
:class:`repro.congest.network.Network` a kernel builds, and into the run
header (:func:`repro.store.provenance.collect_provenance`).  Remote
dispatch ships it as :meth:`ExecutionConfig.to_dict`.

:data:`DEFAULT_CONFIG` is the configuration used where a library caller
passes none, read at call time by :func:`resolve_config`.  Nothing in the
package assigns it; suite-wide test and benchmark harnesses may replace
it (``repro.config.DEFAULT_CONFIG = ...``) to run everything under
another configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

from repro.faults import NULL_FAULT_MODEL, FaultModel, validate_fault_model
from repro.names import TIER_NAMES

#: Fault-model fields that must be integers (``timeout`` may be ``None``);
#: the others are probabilities.
_INTEGER_FAULT_FIELDS = ("max_delay", "crash_window", "down_rounds", "timeout", "seed")


@dataclass(frozen=True)
class ExecutionConfig:
    """Compute tier and fault model of a run.

    The defaults are the ``stdlib`` tier and the null fault model.
    ``fault`` also accepts a :data:`repro.faults.FAULT_MODELS` name.
    An unknown tier raises ``ValueError``; the ``numpy`` tier raises the
    actionable ``ImportError`` of :func:`repro._numpy.require_numpy` when
    numpy is not installed.
    """

    tier: str = "stdlib"
    fault: FaultModel = NULL_FAULT_MODEL

    def __post_init__(self) -> None:
        if self.tier not in TIER_NAMES:
            raise ValueError(
                f"unknown compute tier {self.tier!r} "
                f"(available: {', '.join(TIER_NAMES)})"
            )
        if self.tier == "numpy":
            from repro._numpy import require_numpy

            require_numpy("the 'numpy' compute tier")
        object.__setattr__(self, "fault", validate_fault_model(self.fault))

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON; the default (null) fault model is ``None``."""
        return {
            "tier": self.tier,
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
        keys or fault fields, non-numeric fault values, an unknown tier,
        the numpy tier without numpy -- raises ``ValueError``.
        """
        if not isinstance(data, Mapping):
            raise ValueError("an execution config must be an object")
        unknown = set(data) - {item.name for item in fields(cls)}
        if unknown:
            raise ValueError(f"unknown execution config fields {sorted(unknown)}")
        values = {key: value for key, value in data.items() if value is not None}
        if "fault" in values and not isinstance(values["fault"], FaultModel):
            values["fault"] = _fault_from_dict(values["fault"])
        if "tier" in values and not isinstance(values["tier"], str):
            raise ValueError("'tier' must be a string")
        try:
            return cls(**values)
        except ImportError as error:
            raise ValueError(str(error)) from None


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
#: docstring); only suite-wide harnesses replace it.
DEFAULT_CONFIG = ExecutionConfig()


def resolve_config(
    config: Optional[ExecutionConfig] = None, **overrides: Any
) -> ExecutionConfig:
    """``config`` (:data:`DEFAULT_CONFIG` when ``None``) with overrides.

    Overrides whose value is ``None`` are ignored, so optional flags and
    request fields can be passed straight through.
    """
    base = DEFAULT_CONFIG if config is None else config
    changes = {name: value for name, value in overrides.items() if value is not None}
    return replace(base, **changes) if changes else base
