"""Numeric evaluation of the paper's lower bounds (Theorems 2, 3, 5, 10).

These functions evaluate the *functional form* of each bound (suppressing
polylogarithmic factors, exactly as the paper's ``Omega~`` notation does) so
the benchmark harnesses can place measured upper-bound round counts next to
the corresponding lower-bound curves and verify that (a) the upper bounds
respect the lower bounds, and (b) the gap closes where the paper says it
does (Theorems 1 + 3 match for polylog memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.congest.message import log_n_bits


def theorem5_communication_lower_bound(k: int, messages: int) -> float:
    """[BGK+15]: ``r``-message quantum protocols for ``DISJ_k`` need
    ``Omega~(k / r + r)`` qubits of communication."""
    if k < 1 or messages < 1:
        raise ValueError("k and messages must be >= 1")
    return k / messages + messages


def theorem10_lower_bound(k: int, b: int) -> float:
    """Theorem 10: a ``(b, k, d1, d2)``-reduction forces
    ``Omega~(sqrt(k / b))`` rounds for deciding diameter ``<= d1`` vs ``>= d2``.

    Derivation: an ``r``-round algorithm gives a ``2r``-message protocol with
    ``O(r b log n)`` qubits; Theorem 5 forces
    ``r b = Omega~(k / r + r)``, hence ``r = Omega~(sqrt(k / b))``.
    """
    if k < 1 or b < 1:
        raise ValueError("k and b must be >= 1")
    return math.sqrt(k / b)


def theorem2_lower_bound(n: int, diameter: int = 0) -> float:
    """Theorem 2: deciding diameter 2 vs 3 needs ``Omega~(sqrt(n))`` rounds.

    Instantiates Theorem 10 with the HW12 reduction
    (``b = Theta(n)``, ``k = Theta(n^2)``); the additive ``D`` term accounts
    for the trivial ``Omega(D)`` bound.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.sqrt(n) + max(0, diameter)


def theorem3_lower_bound(
    n: int, diameter: int, memory_qubits: int, cut_edges: Optional[int] = None
) -> float:
    """Theorem 3: with ``s`` qubits of memory per node, exact diameter needs
    ``Omega~(sqrt(n D) / s + D)`` rounds.

    Derivation (Section 6.2): the path-subdivided ACHK gadget with parameter
    ``d = Theta(D)`` has ``k = Theta(n)`` and ``b = Theta(log n)`` cut
    edges; Theorem 11 turns an ``r``-round algorithm into an
    ``O(r/d)``-message protocol with ``O(r (b log n + s))`` qubits, and
    Theorem 5 then forces ``r = Omega~(sqrt(k d / (b + s)))``.  With
    ``k = Theta(n)``, ``d = Theta(D)`` and polylogarithmic ``b`` this is
    ``Omega~(sqrt(n D) / s)`` for ``s`` above polylog, plus the trivial
    ``Omega(D)``.
    """
    if n < 1 or diameter < 0 or memory_qubits < 1:
        raise ValueError("invalid parameters")
    b = cut_edges if cut_edges is not None else log_n_bits(n)
    d = max(1, diameter)
    return math.sqrt(n * d / (b + memory_qubits)) + diameter


@dataclass
class LowerBoundComparison:
    """A (lower bound, upper bound) pair for one parameter setting."""

    n: int
    diameter: int
    lower_bound: float
    upper_bound: float
    label: str

    @property
    def consistent(self) -> bool:
        """Whether the upper bound is at least the lower bound (up to the
        polylog slack both sides suppress).

        Because both sides drop polylogarithmic factors, we only require the
        upper bound not to be asymptotically *below* the lower bound; a
        multiplicative ``log^2 n`` tolerance captures that.
        """
        slack = max(1.0, math.log2(self.n + 1) ** 2)
        return self.upper_bound * slack >= self.lower_bound

    @property
    def ratio(self) -> float:
        """Upper bound divided by lower bound (the 'tightness' of the pair)."""
        if self.lower_bound <= 0:
            return float("inf")
        return self.upper_bound / self.lower_bound
