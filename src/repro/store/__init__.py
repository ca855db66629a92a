"""Persistent experiment store: JSONL records, provenance, export, resume.

The paper's evaluation is reproduced by sweeping ``(n, D)`` grids; before
this subsystem existed, those records lived only in-process -- a killed
sweep lost everything.  :mod:`repro.store` makes sweeps durable:

* :class:`ExperimentStore` (:mod:`repro.store.jsonl`) -- an append-only
  JSONL file holding every :class:`repro.store.records.SweepRecord` plus
  run provenance (grid signature, specs, seeds, fault model, worker count,
  git describe, wall time).  Records are flushed as they complete, so an
  interrupted run keeps everything it finished.
* checkpoint/resume -- :func:`repro.analysis.sweep.run_sweep_grid` takes
  ``store=``/``resume=``; completed task keys are skipped on restart and
  the merged record set is byte-identical to an uninterrupted run.
* export (:mod:`repro.store.export`) -- CSV / JSON / canonical-JSONL
  renderers, plus ``ExperimentStore.load_records`` to round-trip records
  back into ``sweep_table`` and the fitting helpers.
* shard merge (:mod:`repro.store.merge`) -- fold the per-worker store
  shards of a distributed run (:mod:`repro.dispatch`) back into one
  canonical store, validating grid signatures/seed streams across shard
  headers and deduplicating task keys, byte-identical to a serial run.

CLI surface: ``repro sweep --out run.jsonl [--resume]``,
``repro export --store run.jsonl --format csv`` and
``repro merge SHARD... --out merged.jsonl``.
"""

from repro.store.export import (
    EXPORT_FORMATS,
    export_records,
    render_csv,
    render_json,
    render_jsonl,
    render_records,
    sweep_table,
)
from repro.store.jsonl import (
    SCHEMA_VERSION,
    ExperimentStore,
    ExperimentStoreError,
    StoreLockError,
    StoreWriterLock,
    append_jsonl_line,
    iter_jsonl_entries,
)
from repro.store.merge import merge_shards, shard_stats
from repro.store.provenance import collect_provenance, git_describe
from repro.store.records import (
    RECORD_FIELDS,
    SweepRecord,
    canonical_json,
    record_from_dict,
    record_to_dict,
    spec_from_dict,
    spec_to_dict,
)

__all__ = [
    "ExperimentStore",
    "ExperimentStoreError",
    "StoreLockError",
    "StoreWriterLock",
    "append_jsonl_line",
    "iter_jsonl_entries",
    "merge_shards",
    "shard_stats",
    "SCHEMA_VERSION",
    "EXPORT_FORMATS",
    "export_records",
    "render_records",
    "render_csv",
    "render_json",
    "render_jsonl",
    "sweep_table",
    "collect_provenance",
    "git_describe",
    "RECORD_FIELDS",
    "SweepRecord",
    "canonical_json",
    "record_to_dict",
    "record_from_dict",
    "spec_to_dict",
    "spec_from_dict",
]
