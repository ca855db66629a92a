"""Export persisted sweep records to analysis-friendly formats.

Three formats, all byte-deterministic for a given record list:

* ``csv`` -- one row per record, ``extra`` flattened to a canonical JSON
  cell; loads directly into pandas/spreadsheets.
* ``json`` -- an indented JSON array, for human inspection and ad-hoc
  scripting.
* ``jsonl`` -- one canonical JSON object per line.  This is the format
  the checkpoint/resume acceptance check compares byte-for-byte: a
  resumed store and a fresh serial store export to identical files.

:func:`sweep_table` renders records as the aligned text table that
``repro sweep`` prints and ``repro export --format table`` writes.

The loader side lives in :class:`repro.store.ExperimentStore`
(``load_records``), which round-trips records back into
:func:`sweep_table` and the fitting helpers.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, List, Sequence

from repro.names import EXPORT_FORMATS
from repro.store.records import RECORD_FIELDS, SweepRecord, canonical_json, record_to_dict


def sweep_table(records: Iterable[SweepRecord]) -> str:
    """Render a list of sweep records as an aligned text table.

    A ``status`` column (``ok``/``failed``) appears only when some record
    failed to converge, so fault-free tables render exactly as before.
    """
    records = list(records)
    if not records:
        return "(no records)"
    with_status = any(not record.success for record in records)
    header = ["family", "algorithm", "n", "D", "rounds", "value", "correct"]
    if with_status:
        header = header + ["status"]
    rows = [header]
    for record in records:
        row = [
            record.family,
            record.algorithm,
            str(record.num_nodes),
            "-" if record.diameter is None else str(record.diameter),
            str(record.rounds),
            f"{record.value:g}",
            "-" if record.correct is None else str(record.correct),
        ]
        if with_status:
            row.append("ok" if record.success else "failed")
        rows.append(row)
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if index == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)


def render_csv(records: Iterable[SweepRecord]) -> str:
    """The CSV text of a record list (header + one row per record)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RECORD_FIELDS)
    for record in records:
        data = record_to_dict(record)
        writer.writerow(
            [
                data["family"],
                data["algorithm"],
                data["num_nodes"],
                "" if data["diameter"] is None else data["diameter"],
                data["rounds"],
                data["value"],
                "" if data["correct"] is None else data["correct"],
                canonical_json(data["extra"]),
                data["success"],
                "" if data["failure_reason"] is None else data["failure_reason"],
            ]
        )
    return buffer.getvalue()


def render_json(records: Iterable[SweepRecord]) -> str:
    """An indented JSON array of the record list."""
    payload: List[dict] = [record_to_dict(record) for record in records]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_jsonl(records: Iterable[SweepRecord]) -> str:
    """Canonical JSONL: one sorted-key JSON object per line.

    Byte-stable for a given record sequence; used for the byte-identity
    comparison between resumed and fresh runs.
    """
    return "".join(canonical_json(record_to_dict(record)) + "\n" for record in records)


_RENDERERS = {"csv": render_csv, "json": render_json, "jsonl": render_jsonl}


def render_records(records: Sequence[SweepRecord], format: str) -> str:
    """Render records in one of :data:`EXPORT_FORMATS`."""
    renderer = _RENDERERS.get(format)
    if renderer is None:
        known = ", ".join(EXPORT_FORMATS)
        raise ValueError(f"unknown export format {format!r} (available: {known})")
    return renderer(records)


def export_records(records: Sequence[SweepRecord], path, format: str) -> None:
    """Write records to ``path`` in the given format."""
    text = render_records(records, format)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
