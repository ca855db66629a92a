"""Schedule backends: where a maximum-finding round gets its marked statistics.

The maximum-finding schedule of Corollary 1 (:func:`repro.quantum.
maximum_finding.find_maximum`) and the Theorem-6 attempt loop each of its
rounds runs (:func:`repro.quantum.amplitude_amplification.
amplification_attempts`) are written once.  A round amplifies the items
beating the current best; what it needs from outside the loop is the
*marked mass* of that set and a *conditioned draw* of one of its items.
A :class:`ScheduleBackend` supplies only those two statistics:

* :class:`BatchedScheduleBackend` -- the production backend, used by
  every quantum run.  It reads the whole value vector once, then serves
  each round's mass and conditioned sampling lists from a
  :class:`_ThresholdTable`, computed once per threshold.  Because the
  threshold only changes on success, almost every round is a table hit,
  turning the ``O(|X|)`` per-round scan into ``O(1)``.

* :class:`SamplingScheduleBackend` -- the reference, kept for the
  differential tests and benchmarks.  Each round runs
  :func:`~repro.quantum.amplitude_amplification.amplitude_amplification_search`,
  which revalidates the amplitudes and rescans the search space with the
  Checking predicate (one Python call per element per round).

**Byte-identical results.**  The table sums marked masses in
Setup-superposition order and draws through :meth:`random.Random.choices`
with the same item/weight lists as the scan, so for a fixed seed the two
backends return **identical**
:class:`~repro.quantum.maximum_finding.MaximumFindingResult` objects --
values, call counts, measurements, everything.  The differential
test-suite (``tests/test_quantum_backends.py``) proves this across every
registered problem and graph family.

The quantum entry points take ``backend=``: a :class:`ScheduleBackend`
instance, or ``None`` for the batched backend
(:func:`resolve_schedule_backend`).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.quantum.amplitude_amplification import (
    AmplificationOutcome,
    amplification_attempts,
    amplitude_amplification_search,
    grover_success_probability,
    theorem6_query_budget,
)

Item = Hashable

#: One amplification round of maximum finding:
#: ``(threshold, rng, eps, delta, budget_constant) -> outcome``, searching
#: for an item whose value exceeds ``threshold``.
Amplifier = Callable[
    [float, random.Random, float, float, float], AmplificationOutcome
]


class ScheduleBackend:
    """The source of each maximum-finding round's marked statistics.

    :meth:`amplifier` is called once per :func:`~repro.quantum.
    maximum_finding.find_maximum` run, after its initial Setup sample, and
    returns the function that runs one amplification round.
    Implementations must reproduce the reference measurement statistics
    exactly: same ``random.Random`` consumption, same floating-point
    reductions, same ``value_of`` call order.
    """

    def amplifier(
        self,
        amplitudes: Mapping[Item, float],
        items: List[Item],
        weights_sq: List[float],
        values: Dict[Item, float],
        value_of: Callable[[Item], float],
    ) -> Amplifier:
        """The round function over ``amplitudes``.

        ``items`` and ``weights_sq`` are the Setup superposition's items
        and squared amplitudes in order.  ``values`` memoises the
        Evaluation oracle ``value_of`` (it holds the initial sample's
        value); the backend calls ``value_of`` only for items missing
        from it, and stores the result there.
        """
        raise NotImplementedError


class SamplingScheduleBackend(ScheduleBackend):
    """The reference: every round scans the search space afresh."""

    def amplifier(
        self,
        amplitudes: Mapping[Item, float],
        items: List[Item],
        weights_sq: List[float],
        values: Dict[Item, float],
        value_of: Callable[[Item], float],
    ) -> Amplifier:
        def value(item: Item) -> float:
            if item not in values:
                values[item] = value_of(item)
            return values[item]

        def amplify(threshold, rng, eps, delta, budget_constant):
            return amplitude_amplification_search(
                amplitudes,
                is_marked=lambda item: value(item) > threshold,
                rng=rng,
                eps=eps,
                delta=delta,
                budget_constant=budget_constant,
            )

        return amplify


class _ThresholdTable:
    """Grover rotation statistics over a fixed value vector, per threshold.

    For a threshold ``t`` the marked set is ``{x : f(x) > t}``.  The table
    materialises, once per threshold, exactly what the sampling backend
    re-derives every round: the marked probability mass (summed in
    Setup-superposition order, so the float is bit-identical to the
    reference ``sum``) and the conditioned item/weight lists its draw
    would build.

    The maximum-finding threshold only rises (a found item beats it), and
    ``{f > t2}`` is a subsequence of ``{f > t1}`` for ``t2 >= t1`` in the
    *same* Setup-superposition order, so each new threshold filters the
    previous marked lists instead of the full arrays -- same elements,
    same order, bit-identical sums.
    """

    def __init__(
        self,
        items: List[Item],
        weights_sq: List[float],
        values: List[float],
    ) -> None:
        self._threshold: Optional[float] = None
        #: The marked (items, weights, values) above ``_threshold``.
        self._frontier: Tuple[List[Item], List[float], List[float]] = (
            items,
            weights_sq,
            values,
        )
        self._stats: Tuple[float, List[Item], List[float]] = (0.0, [], [])
        #: ``(mass, iterations) -> sin^2((2k+1) asin(sqrt(P_M)))`` -- the
        #: rotation only depends on the marked mass and the iteration
        #: count, so the cache is exact (it stores the very float the
        #: reference recomputes).
        self._success: Dict[Tuple[float, int], float] = {}

    def stats_above(self, threshold: float) -> Tuple[float, List[Item], List[float]]:
        """``(marked_mass, marked_items, marked_weights)`` for ``f > threshold``.

        ``threshold`` must not fall below the previous call's.
        """
        if threshold != self._threshold:
            items, weights_sq, values = self._frontier
            marked_items = [
                item for item, value in zip(items, values) if value > threshold
            ]
            marked_weights = [
                weight_sq
                for weight_sq, value in zip(weights_sq, values)
                if value > threshold
            ]
            marked_values = [value for value in values if value > threshold]
            self._threshold = threshold
            self._frontier = (marked_items, marked_weights, marked_values)
            # ``sum`` over the prebuilt list adds the same floats in the
            # same (Setup-superposition) order as the reference generator
            # sum, so the mass is bit-identical.
            self._stats = (sum(marked_weights), marked_items, marked_weights)
        return self._stats

    def success_probability(self, mass: float, iterations: int) -> float:
        """Cached :func:`grover_success_probability` for this schedule."""
        key = (mass, iterations)
        probability = self._success.get(key)
        if probability is None:
            probability = self._success[key] = grover_success_probability(
                mass, iterations
            )
        return probability


class BatchedScheduleBackend(ScheduleBackend):
    """Batched statistics: one value pass, then a :class:`_ThresholdTable`.

    The value vector is read in Setup-superposition order, which is the
    order the reference's first marked-mass scan evaluates the items in,
    so the evaluation work is identical -- only the per-round rescans
    disappear.
    """

    def amplifier(
        self,
        amplitudes: Mapping[Item, float],
        items: List[Item],
        weights_sq: List[float],
        values: Dict[Item, float],
        value_of: Callable[[Item], float],
    ) -> Amplifier:
        for item in items:
            if item not in values:
                values[item] = value_of(item)
        table = _ThresholdTable(items, weights_sq, [values[item] for item in items])

        def amplify(threshold, rng, eps, delta, budget_constant):
            mass, marked_items, marked_weights = table.stats_above(threshold)
            return amplification_attempts(
                mass,
                lambda: rng.choices(marked_items, weights=marked_weights)[0],
                rng,
                eps,
                theorem6_query_budget(eps, delta, constant=budget_constant),
                table.success_probability,
            )

        return amplify


def resolve_schedule_backend(
    backend: Optional[ScheduleBackend] = None,
) -> ScheduleBackend:
    """``backend``, or the batched backend when ``None``.

    Raises ``TypeError`` for anything but a :class:`ScheduleBackend`
    instance: backends are not selected by name.
    """
    if backend is None:
        return BatchedScheduleBackend()
    if not isinstance(backend, ScheduleBackend):
        raise TypeError(
            f"backend must be a ScheduleBackend instance, got {backend!r}"
        )
    return backend
