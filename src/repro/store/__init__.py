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

Every name loads its module on first use: writing a sweep's store does
not import the shard merger.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "EXPORT_FORMATS": "repro.store.export",
    "export_records": "repro.store.export",
    "render_csv": "repro.store.export",
    "render_json": "repro.store.export",
    "render_jsonl": "repro.store.export",
    "render_records": "repro.store.export",
    "sweep_table": "repro.store.export",
    "SCHEMA_VERSION": "repro.store.jsonl",
    "ExperimentStore": "repro.store.jsonl",
    "ExperimentStoreError": "repro.store.jsonl",
    "StoreLockError": "repro.store.jsonl",
    "StoreWriterLock": "repro.store.jsonl",
    "append_jsonl_line": "repro.store.jsonl",
    "iter_jsonl_entries": "repro.store.jsonl",
    "merge_shards": "repro.store.merge",
    "shard_stats": "repro.store.merge",
    "collect_provenance": "repro.store.provenance",
    "git_describe": "repro.store.provenance",
    "RECORD_FIELDS": "repro.store.records",
    "SweepRecord": "repro.store.records",
    "canonical_json": "repro.store.records",
    "record_from_dict": "repro.store.records",
    "record_to_dict": "repro.store.records",
    "spec_from_dict": "repro.store.records",
    "spec_to_dict": "repro.store.records",
})
