"""Round-complexity formulas for every entry of Table 1.

The benchmark harnesses fit measured round counts against these functional
forms (ignoring polylogarithmic factors and constants, exactly as the
paper's ``O~`` / ``Omega~`` notation does), and :func:`table1_rows` lays
them out as Table 1.  Each function documents the theorem or citation it
comes from.  The two-party lower bounds behind the quantum rows live in
:mod:`repro.lowerbounds.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.congest.message import log_n_bits


def _check(n: int, diameter: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if diameter < 0:
        raise ValueError(f"diameter must be >= 0, got {diameter}")


# ----------------------------------------------------------------------
# Upper bounds
# ----------------------------------------------------------------------
def classical_exact_upper(n: int, diameter: int = 0) -> float:
    """Classical exact computation: ``O(n)`` rounds [HW12, PRT12]."""
    _check(n, diameter)
    return float(n)


def quantum_exact_upper(n: int, diameter: int) -> float:
    """Quantum exact computation: ``O~(sqrt(n D))`` rounds (Theorem 1)."""
    _check(n, diameter)
    return math.sqrt(n * max(1, diameter))


def classical_approx_upper(n: int, diameter: int) -> float:
    """Classical 3/2-approximation: ``O~(sqrt(n) + D)`` rounds [LP13, HPRW14]."""
    _check(n, diameter)
    return math.sqrt(n) + diameter


def quantum_approx_upper(n: int, diameter: int) -> float:
    """Quantum 3/2-approximation: ``O~((n D)^(1/3) + D)`` rounds (Theorem 4)."""
    _check(n, diameter)
    return (n * max(1, diameter)) ** (1.0 / 3.0) + diameter


# ----------------------------------------------------------------------
# Lower bounds
# ----------------------------------------------------------------------
def classical_exact_lower(n: int, diameter: int = 0) -> float:
    """Classical exact computation: ``Omega~(n)`` rounds [FHW12]."""
    _check(n, diameter)
    return float(n)


def quantum_exact_lower_small_diameter(n: int, diameter: int = 0) -> float:
    """Quantum exact / (3/2 - eps)-approx: ``Omega~(sqrt(n) + D)`` (Theorem 2)."""
    _check(n, diameter)
    return math.sqrt(n) + diameter


def quantum_exact_lower_bounded_memory(n: int, diameter: int, memory_qubits: int) -> float:
    """Quantum exact with ``s`` qubits of memory per node:
    ``Omega~(sqrt(n D) / s + D)`` rounds (Theorem 3)."""
    _check(n, diameter)
    if memory_qubits < 1:
        raise ValueError(f"memory must be >= 1 qubit, got {memory_qubits}")
    return math.sqrt(n * max(1, diameter)) / memory_qubits + diameter


def classical_approx_lower(n: int, diameter: int = 0) -> float:
    """Classical (3/2 - eps)-approximation: ``Omega~(n)`` rounds
    [HW12, ACHK16, BK17]."""
    _check(n, diameter)
    return float(n)


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
@dataclass
class Table1Row:
    """One row of Table 1: problem, classical and quantum complexities."""

    problem: str
    kind: str  # "upper" or "lower"
    classical_label: str
    classical_formula: Callable[[int, int], float]
    quantum_label: str
    quantum_formula: Callable[[int, int], float]
    source: str

    def evaluate(self, n: int, diameter: int) -> dict:
        """Numeric values of both formulas for the given ``(n, D)``."""
        return {
            "problem": self.problem,
            "kind": self.kind,
            "n": n,
            "D": diameter,
            "classical": self.classical_formula(n, diameter),
            "quantum": self.quantum_formula(n, diameter),
        }


def table1_rows(memory_qubits: Optional[int] = None) -> List[Table1Row]:
    """The four rows of Table 1 as structured data.

    ``memory_qubits`` instantiates the ``s`` of the Theorem-3 lower bound
    (defaults to ``ceil(log2 n)^2``-style polylog memory when evaluated).
    """
    def theorem3(n: int, diameter: int) -> float:
        s = memory_qubits
        if s is None:
            s = log_n_bits(n) ** 2
        return quantum_exact_lower_bounded_memory(n, diameter, s)

    return [
        Table1Row(
            problem="Exact computation",
            kind="upper",
            classical_label="O(n) [HW12, PRT12]",
            classical_formula=classical_exact_upper,
            quantum_label="O(sqrt(n D)) (Theorem 1)",
            quantum_formula=quantum_exact_upper,
            source="Table 1, row 1",
        ),
        Table1Row(
            problem="Exact computation",
            kind="lower",
            classical_label="Omega~(n) [FHW12]",
            classical_formula=classical_exact_lower,
            quantum_label="Omega~(sqrt(n) + D) (Th. 2); Omega~(sqrt(n D)/s + D) (Th. 3)",
            quantum_formula=theorem3,
            source="Table 1, row 2",
        ),
        Table1Row(
            problem="3/2-approximation",
            kind="upper",
            classical_label="O~(sqrt(n) + D) [LP13, HPRW14]",
            classical_formula=classical_approx_upper,
            quantum_label="O~((n D)^(1/3) + D) (Theorem 4)",
            quantum_formula=quantum_approx_upper,
            source="Table 1, row 3",
        ),
        Table1Row(
            problem="(3/2 - eps)-approximation",
            kind="lower",
            classical_label="Omega~(n) [HW12, ACHK16, BK17]",
            classical_formula=classical_approx_lower,
            quantum_label="Omega~(sqrt(n) + D) (Theorem 2)",
            quantum_formula=quantum_exact_lower_small_diameter,
            source="Table 1, row 4",
        ),
    ]
