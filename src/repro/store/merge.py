"""Provenance-aware merge of distributed store shards.

A remote dispatch run (:mod:`repro.dispatch`) leaves one JSONL store
shard per worker, each holding the cells that worker computed plus run
headers stamped with the dispatched grid's signature and seed stream.
:func:`merge_shards` folds those shards back into one canonical store
that is **byte-identical** -- record for record, in grid order -- to what
a serial single-process run of the same grid would have written, because:

* task keys and grid indices derive from cell *identity*, never from
  which worker ran a cell or when (see
  :func:`repro.analysis.sweep.sweep_task_key`);
* every record is deterministic in its key, so duplicates -- a shard
  requeued after a worker death may be recomputed elsewhere while the
  original worker's partial file survives -- are exact copies and
  first-complete-wins deduplication cannot change the data;
* ordering is by integer grid index, independent of shard file order,
  hash randomisation and completion timing.

The merge **refuses** to mix shards whose headers disagree on the grid
signature, the base seed stream or the fault model: a shard from a
different grid (or a different ``--seed`` or ``--loss``) would otherwise
silently corrupt the output.  The merged run header carries the shards'
fault model.
Empty or missing shard files are tolerated (a worker that registered but
was never leased a shard writes nothing), as are truncated final lines
(a killed worker's interrupted append), because shards go through the
same tolerant reader as every other store.

Each shard's lease footers (``finish`` entries with an ``extra`` stamp:
worker id, shard id, cells/sec) additionally feed :func:`shard_stats`,
the per-worker execution summary behind ``repro merge --stats``; the
aggregate is stamped into the merged store's run header as
``dispatch_stats`` provenance, including how many duplicate cells were
dropped by the first-complete-wins dedup (work stealing and speculative
re-execution recompute cells on purpose; the copies are identical by
construction).

CLI surface: ``repro merge SHARD... --out merged.jsonl [--stats]``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.store.jsonl import (
    SCHEMA_VERSION,
    ExperimentStore,
    ExperimentStoreError,
)
from repro.store.provenance import collect_provenance
from repro.store.records import SweepRecord, record_to_dict


def merge_shards(
    shard_paths: Sequence[str],
    out_path: Optional[str] = None,
    require_complete: bool = True,
) -> List[SweepRecord]:
    """Merge worker store shards into one canonical record list.

    Returns the records in grid order (exactly
    ``ExperimentStore.load_records()`` of an equivalent serial run) and,
    with ``out_path``, writes a canonical merged store: one run header
    carrying the shard provenance, the records, and a completion footer.

    ``require_complete`` (the default) additionally demands that the
    merged cells cover the grid's index range with no gaps -- a lost
    shard file surfaces as a hard error naming the missing count instead
    of a silently shorter export.  Pass ``False`` to merge partial
    results (e.g. for progress inspection mid-run).

    Raises :class:`ExperimentStoreError` when the shards disagree on the
    grid signature, base seed or fault model, when a shard has records
    but no header, or when every shard is empty.
    """
    if not shard_paths:
        raise ExperimentStoreError("no shard paths given to merge")
    headers: List[Tuple[str, Dict[str, Any]]] = []
    merged: Dict[str, Tuple[int, SweepRecord]] = {}
    for path in shard_paths:
        store = ExperimentStore(path)
        header = store.latest_header()
        cells = store.completed()
        if header is None:
            if cells:
                raise ExperimentStoreError(
                    f"shard {path!r} holds records but no run header; "
                    "refusing to merge unattributable cells"
                )
            continue  # empty shard: a worker that was never leased work
        headers.append((path, header))
        for key, (index, record) in cells.items():
            # First-complete wins, like ExperimentStore.completed():
            # requeue races recompute identical records, so which copy
            # survives cannot matter -- but keeping the first makes the
            # choice deterministic in the given shard order.
            merged.setdefault(key, (index, record))
    if not headers:
        raise ExperimentStoreError(
            "nothing to merge: every shard is empty "
            f"({', '.join(repr(path) for path in shard_paths)})"
        )
    _validate_headers(headers)
    by_index = sorted(merged.values(), key=lambda item: item[0])
    if require_complete:
        indices = [index for index, _ in by_index]
        expected = list(range(len(indices)))
        if indices != expected:
            missing = sorted(set(expected) - set(indices))[:5]
            raise ExperimentStoreError(
                f"merged shards cover {len(indices)} cell(s) but indices "
                f"are not contiguous from 0 (first gaps: {missing}); a "
                "shard file is missing or the run is incomplete -- merge "
                "with require_complete=False (--allow-partial) to inspect"
            )
    records = [record for _, record in by_index]
    if out_path is not None:
        _write_merged(out_path, headers, merged, records,
                      shard_stats(shard_paths))
    return records


def _shard_worker_id(path: str) -> str:
    """The worker id encoded in a shard filename, best-effort.

    Worker shards are named ``shard-<signature>-<worker_id>.jsonl`` (see
    :func:`repro.dispatch.worker.shard_store_path`); the signature is a
    hex digest with no dashes, so splitting once past the prefix is
    unambiguous.  Non-conforming names fall back to the basename.
    """
    base = os.path.basename(path)
    name = base[:-len(".jsonl")] if base.endswith(".jsonl") else base
    if name.startswith("shard-"):
        rest = name[len("shard-"):]
        if "-" in rest:
            return rest.split("-", 1)[1]
    return name


def shard_stats(shard_paths: Sequence[str]) -> Dict[str, Any]:
    """Per-worker execution statistics aggregated from store shards.

    Scans each shard's records and lease footers (``finish`` entries,
    whose ``extra`` stamp carries the worker id, lease cell counts and
    throughput -- see :meth:`ExperimentStore.finish_sweep`) and
    aggregates by worker: unique cells held, fresh-vs-replayed split,
    lease count, wall seconds and cells/sec.  ``duplicate_cells`` counts
    cells present in more than one shard -- the footprint of stolen,
    speculative and requeue re-executions, all dropped first-complete-
    wins at merge time.  Tolerates empty/missing shards and shards
    without footers (a killed worker), like the merge itself.
    """
    workers: Dict[str, Dict[str, Any]] = {}
    unique: set = set()
    total_cells = 0
    for path in shard_paths:
        store = ExperimentStore(path)
        cells = store.completed()
        total_cells += len(cells)
        unique.update(cells.keys())
        worker_id = _shard_worker_id(path)
        leases = 0
        wall = 0.0
        fresh = 0
        lease_cells = 0
        for entry in store.iter_entries():
            if entry.get("kind") != "finish":
                continue
            leases += 1
            wall += float(entry.get("wall_seconds", 0.0))
            extra = entry.get("extra") or {}
            if extra.get("worker"):
                worker_id = str(extra["worker"])
            total = int(entry.get("total_records", 0))
            fresh += int(extra.get("fresh", total))
            lease_cells += int(extra.get("cells", total))
        if not cells and leases == 0:
            continue  # a worker that registered but never got work
        entry = workers.setdefault(worker_id, {
            "cells": 0, "fresh": 0, "replayed": 0,
            "leases": 0, "wall_seconds": 0.0,
        })
        entry["cells"] += len(cells)
        entry["fresh"] += fresh
        # Replays are counted lease by lease (a rejoining worker replays
        # its whole store, which unique-cell arithmetic cannot see).
        entry["replayed"] += max(0, lease_cells - fresh)
        entry["leases"] += leases
        entry["wall_seconds"] += wall
    for entry in workers.values():
        entry["wall_seconds"] = round(entry["wall_seconds"], 6)
        entry["cells_per_second"] = (
            round(entry["cells"] / entry["wall_seconds"], 6)
            if entry["wall_seconds"] > 0 else 0.0
        )
    return {
        "workers": {name: workers[name] for name in sorted(workers)},
        "total_cells": total_cells,
        "unique_cells": len(unique),
        "duplicate_cells": total_cells - len(unique),
    }


def _validate_headers(headers: List[Tuple[str, Dict[str, Any]]]) -> None:
    """Refuse shards whose run headers describe different grids."""
    first_path, first = headers[0]
    for path, header in headers[1:]:
        for field, what in (
            ("signature", "holds a different grid"),
            ("base_seed", "used a different seed stream"),
            ("fault_model", "ran under a different fault model"),
        ):
            if header.get(field) != first.get(field):
                raise ExperimentStoreError(
                    f"shard {path!r} {what} ({field} {header.get(field)} "
                    f"!= {first.get(field)} of {first_path!r}); refusing "
                    "to mix"
                )


def _write_merged(
    out_path: str,
    headers: List[Tuple[str, Dict[str, Any]]],
    merged: Dict[str, Tuple[int, SweepRecord]],
    records: List[SweepRecord],
    stats: Optional[Dict[str, Any]] = None,
) -> None:
    """Write the canonical merged store (header, records, footer)."""
    first = headers[0][1]
    out = ExperimentStore(out_path)
    if out.exists():
        raise ExperimentStoreError(
            f"merge output {out_path!r} already exists; refusing to append "
            "a merged grid into an existing store"
        )
    provenance: Dict[str, Any] = {}
    if stats is not None:
        provenance["dispatch_stats"] = dict(stats)
        if stats.get("duplicate_cells"):
            # Record *why* shards overlapped: stolen, speculative and
            # requeued cells are recomputed on purpose, the copies are
            # identical by construction, and the first-complete-wins
            # dedup above dropped the extras.
            provenance["dispatch_stats"]["dedup"] = (
                "duplicates from stolen/speculative/requeued "
                "re-executions dropped first-complete-wins"
            )
    with out.acquire_writer():
        out._append({
            "kind": "run",
            "schema": SCHEMA_VERSION,
            "signature": first.get("signature"),
            "specs": first.get("specs", []),
            "algorithms": first.get("algorithms", []),
            "base_seed": first.get("base_seed"),
            "jobs": len(headers),
            "resume": False,
            "merged_from": [
                os.path.basename(path) for path, _ in headers
            ],
            **provenance,
            **collect_provenance(),
            "fault_model": first.get("fault_model", "none"),
        })
        by_index = sorted(
            ((index, key, record) for key, (index, record) in merged.items()),
            key=lambda item: item[0],
        )
        for index, key, record in by_index:
            out._append({
                "kind": "record",
                "key": key,
                "index": index,
                "record": record_to_dict(record),
            })
        out._append({
            "kind": "finish",
            "wall_seconds": 0.0,
            "total_records": len(records),
            "resumed_records": 0,
        })
