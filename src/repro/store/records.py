"""Canonical (de)serialization of sweep records and graph specs.

:class:`SweepRecord` is the one record type every sweep produces, and
the experiment store persists it as a JSON object.  Serialization is
**canonical** -- fixed field set, sorted keys, minimal separators -- so
that two stores holding the same records serialize to byte-identical
lines regardless of how the records were produced (serial vs parallel,
fresh vs resumed).  That byte stability is what the checkpoint/resume
acceptance test compares.

This module is a leaf: it imports no simulator layer, so reading a store
(``repro export``) never loads the engine, the runner or the graphs.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Mapping

from repro._record import Record

if TYPE_CHECKING:
    from repro.runner.spec import GraphSpec


#: The full field set of a serialized record; kept explicit so loading an
#: object with missing or unknown fields fails loudly instead of silently
#: dropping data.
RECORD_FIELDS = (
    "family",
    "algorithm",
    "num_nodes",
    "diameter",
    "rounds",
    "value",
    "correct",
    "extra",
    "success",
    "failure_reason",
)


class SweepRecord(Record):
    """One measurement: an algorithm run on one graph.

    ``diameter`` is the true diameter from the sequential oracle when the
    sweep needed it for a correctness check, else ``None`` (the oracle is
    lazy; see :mod:`repro.analysis.sweep`).  ``correct`` reflects the algorithm's
    declared guarantee -- exact equality for exact algorithms, the
    approximation bound for approximation algorithms -- and stays ``None``
    when no guarantee was declared or the oracle was unavailable.
    Failed checks describe the mismatch in ``extra``
    (``oracle_diameter``, ``value_minus_oracle`` and, for non-integral
    exact values, ``nonintegral_value``).

    ``success`` is ``False`` when the run did not converge -- only
    possible under an active fault model, where the simulator abort (or
    unreached-node error) is captured into ``failure_reason`` instead of
    propagating.  Failed cells carry ``value=-1.0``, ``correct=None``
    and the rounds completed before the abort.

    A plain slotted :class:`repro._record.Record` rather than a
    dataclass, so that reading a store (``repro export``) does not import
    :mod:`dataclasses` and, through it, :mod:`inspect`.  It behaves as the
    dataclass did: the same constructor (each record gets its own
    ``extra`` dict), value equality, a field-by-field ``repr`` and no
    hash.
    """

    __slots__ = RECORD_FIELDS

    _defaults = {
        "correct": None, "extra": None, "success": True, "failure_reason": None,
    }

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if self.extra is None:
            self.extra = {}


#: Fields that may be absent when loading: stores written before the
#: fault-injection layer predate them and every such record succeeded.
_OPTIONAL_FIELDS = ("success", "failure_reason")


def canonical_json(obj: Any) -> str:
    """Serialize ``obj`` deterministically (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def record_to_dict(record: SweepRecord) -> Dict[str, Any]:
    """A plain-JSON representation of one sweep record."""
    return {
        "family": record.family,
        "algorithm": record.algorithm,
        "num_nodes": record.num_nodes,
        "diameter": record.diameter,
        "rounds": record.rounds,
        "value": record.value,
        "correct": record.correct,
        "extra": dict(record.extra),
        "success": record.success,
        "failure_reason": record.failure_reason,
    }


def record_from_dict(data: Mapping[str, Any]) -> SweepRecord:
    """Rebuild a :class:`SweepRecord` from :func:`record_to_dict` output.

    Round-trips ``None`` diameters/correctness and arbitrary ``extra``
    dicts; raises ``ValueError`` on missing or unexpected fields so that
    a corrupted store line cannot masquerade as a record.  The
    fault-layer fields (``success``, ``failure_reason``) default to a
    successful run when absent, so pre-fault stores stay loadable.
    """
    keys = set(data)
    missing = set(RECORD_FIELDS) - set(_OPTIONAL_FIELDS) - keys
    unknown = keys - set(RECORD_FIELDS)
    if missing or unknown:
        raise ValueError(
            f"malformed record object (missing: {sorted(missing)}, "
            f"unknown: {sorted(unknown)})"
        )
    return SweepRecord(
        family=data["family"],
        algorithm=data["algorithm"],
        num_nodes=int(data["num_nodes"]),
        diameter=None if data["diameter"] is None else int(data["diameter"]),
        rounds=int(data["rounds"]),
        value=float(data["value"]),
        correct=data["correct"],
        extra=dict(data["extra"]),
        success=bool(data.get("success", True)),
        failure_reason=data.get("failure_reason"),
    )


def spec_to_dict(spec: GraphSpec) -> Dict[str, Any]:
    """A plain-JSON representation of one graph spec (for run headers)."""
    return {
        "family": spec.family,
        "num_nodes": spec.num_nodes,
        "diameter": spec.diameter,
        "seed": spec.seed,
    }


def spec_from_dict(data: Mapping[str, Any]) -> GraphSpec:
    """Rebuild a :class:`GraphSpec` from :func:`spec_to_dict` output."""
    from repro.runner.spec import GraphSpec

    return GraphSpec(
        family=data["family"],
        num_nodes=int(data["num_nodes"]),
        diameter=None if data.get("diameter") is None else int(data["diameter"]),
        seed=int(data.get("seed", 0)),
    )
