"""The Theorem-7 problems ``repro quantum`` offers, as plain data.

Every quantum algorithm in this repository is one instantiation of the
distributed quantum optimization framework (Theorem 7).  This module
names them: each :class:`QuantumProblemInfo` is one row of ``repro
quantum --list`` plus the sweep algorithm that runs the problem.

===================  ========================  ==========  ==========================================
name                 sweep name                theorem     optimizes
===================  ========================  ==========  ==========================================
``exact_diameter``   ``quantum_exact``         Theorem 1   ``max_u0 max_{v in S(u0)} ecc(v)``
``three_halves``     ``quantum_three_halves``  Theorem 4   ``max_{u0 in R} max_{v in S_R(u0)} ecc(v)``
``radius``           ``quantum_radius``        Theorem 7   ``max_u0 -ecc(u0)`` (a center)
``source_ecc``       ``quantum_source_ecc``    Theorem 7   ``max_v dist(s, v)`` for fixed ``s``
===================  ========================  ==========  ==========================================

A problem name resolves once, in
:meth:`repro.service.gridspec.GridRequest.algorithm_table`, to its sweep
name; from there on a ``repro quantum`` grid is a sweep grid of the
``quantum_*`` kernels of :mod:`repro.runner.algorithms`, which call the
:mod:`repro.core` entry points directly.  So stores, exports, resume and
remote dispatch are shared with ``repro sweep``.

The module imports nothing of the simulator: ``repro quantum --list``
reads only this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class QuantumProblemInfo:
    """One Theorem-7 problem: its names, paper coordinates and contract."""

    name: str
    #: The :data:`repro.runner.algorithms.SWEEP_ALGORITHMS` entry that
    #: runs this problem (and names its records).
    sweep_name: str
    theorem: str
    #: The correctness contract of the sweep entry (``"exact"`` or the
    #: Theorem-4 ``"three_halves"`` band).
    guarantee: str
    description: str


QUANTUM_PROBLEMS: Dict[str, QuantumProblemInfo] = {
    info.name: info
    for info in (
        QuantumProblemInfo(
            name="exact_diameter",
            sweep_name="quantum_exact",
            theorem="Theorem 1",
            guarantee="exact",
            description="exact diameter via windowed eccentricity maximisation",
        ),
        QuantumProblemInfo(
            name="three_halves",
            sweep_name="quantum_three_halves",
            theorem="Theorem 4",
            guarantee="three_halves",
            description=(
                "3/2-approximate diameter (HPRW preparation + quantum ball phase)"
            ),
        ),
        QuantumProblemInfo(
            name="radius",
            sweep_name="quantum_radius",
            theorem="Theorem 7",
            guarantee="exact",
            description="exact radius via eccentricity minimisation",
        ),
        QuantumProblemInfo(
            name="source_ecc",
            sweep_name="quantum_source_ecc",
            theorem="Theorem 7",
            guarantee="exact",
            description="single-source eccentricity of the first node",
        ),
    )
}


def resolve_quantum_problem(name: str) -> QuantumProblemInfo:
    """Map a problem name to its entry, raising on unknown names."""
    info = QUANTUM_PROBLEMS.get(name)
    if info is None:
        known = ", ".join(sorted(QUANTUM_PROBLEMS))
        raise ValueError(f"unknown quantum problem {name!r} (available: {known})")
    return info


def quantum_problem_names() -> Tuple[str, ...]:
    """Problem names in sorted order."""
    return tuple(sorted(QUANTUM_PROBLEMS))
