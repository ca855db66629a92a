"""Rendering of Table 1 (paper formulas next to measured values)."""

from __future__ import annotations

from typing import List, Optional, Sequence


def render_table(
    rows: Sequence[Sequence[str]], header: Sequence[str]
) -> str:
    """Render rows of strings as an aligned text table."""
    all_rows: List[Sequence[str]] = [list(header)] + [list(row) for row in rows]
    widths = [
        max(len(str(row[col])) for row in all_rows) for col in range(len(header))
    ]
    lines = []
    for index, row in enumerate(all_rows):
        line = "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if index == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)


def render_table1(
    n: int, diameter: int, memory_qubits: Optional[int] = None
) -> str:
    """Table 1 with the paper's formulas evaluated at one ``(n, D)`` point.

    The benchmark harnesses print this next to their measured round counts
    so the reader can compare shapes directly.
    """
    from repro.core.complexity import table1_rows

    rows = []
    for row in table1_rows(memory_qubits=memory_qubits):
        values = row.evaluate(n, diameter)
        rows.append(
            [
                row.problem,
                row.kind,
                row.classical_label,
                f"{values['classical']:.1f}",
                row.quantum_label,
                f"{values['quantum']:.1f}",
            ]
        )
    header = [
        "problem",
        "bound",
        "classical (paper)",
        f"value@(n={n},D={diameter})",
        "quantum (paper)",
        "value",
    ]
    return render_table(rows, header)
