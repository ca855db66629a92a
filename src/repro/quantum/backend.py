"""Schedule backends for the quantum simulation layer.

The amplitude-amplification / maximum-finding schedule (Theorem 6 and
Corollary 1) is the hot loop of every Theorem-7 run: the *measurement
statistics* it produces are what the distributed layer converts into
CONGEST rounds, so the simulation must be exact -- but *how* the exact
statistics are computed is an implementation choice.  Two backends
implement :class:`ScheduleBackend`:

* :class:`BatchedScheduleBackend` -- the production backend, used by
  every quantum run.  It first evaluates the whole search space in one
  vectorized pass (a single tight loop producing the value vector), then
  serves every amplification round's Grover rotation statistics --
  marked mass, conditioned sampling lists, attempt schedule -- from
  per-threshold tables computed at most once per distinct threshold.
  Because the maximum-finding schedule only raises its threshold on
  success, almost every round is a table hit, turning the ``O(|X|)``
  per-round scan into ``O(1)``.

* :class:`SamplingScheduleBackend` -- the reference, kept for the
  differential tests and benchmarks.  Each amplification round
  re-derives the marked probability mass by applying the Checking
  predicate to every element of the search space (one Python call per
  element per round), exactly as written in
  :func:`repro.quantum.maximum_finding.find_maximum` and
  :func:`repro.quantum.amplitude_amplification.amplitude_amplification_search`.

**Byte-identical results.**  The batched backend consumes the supplied
``random.Random`` stream in exactly the same order as the sampling
backend and performs every floating-point reduction in the same
element order (marked masses are summed in Setup-superposition order,
conditioned draws go through :meth:`random.Random.choices` with the same
item/weight lists), so for a fixed seed the two backends return
**identical** :class:`~repro.quantum.maximum_finding.MaximumFindingResult`
and :class:`~repro.quantum.amplitude_amplification.AmplificationOutcome`
objects -- values, call counts, measurements, everything.  The
differential test-suite (``tests/test_quantum_backends.py``) proves this
across every registered problem and graph family.

The quantum entry points take ``backend=``: a :class:`ScheduleBackend`
instance, or ``None`` for the batched backend
(:func:`resolve_schedule_backend`).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.quantum.amplitude_amplification import (
    SCHEDULE_GROWTH,
    AmplificationOutcome,
    _check_normalised,
    amplitude_amplification_search,
    grover_success_probability,
    theorem6_query_budget,
)
from repro.quantum.maximum_finding import (
    MaximumFindingResult,
    find_maximum,
)

Item = Hashable


class ScheduleBackend:
    """Interface of a quantum schedule simulator.

    A backend knows how to run the two schedules of Section 2.3/2.4:

    * :meth:`run_search` -- one amplitude-amplification search for a marked
      item (Theorem 6, the exponential schedule for unknown ``P_M``);
    * :meth:`run_maximum_finding` -- the full maximum-finding procedure of
      Corollary 1 (repeated amplification against a rising threshold).

    Implementations must reproduce the reference measurement statistics
    exactly: same ``random.Random`` consumption, same floating-point
    reductions, same results.
    """

    def run_search(
        self,
        amplitudes: Mapping[Item, float],
        is_marked: Callable[[Item], bool],
        rng: random.Random,
        eps: float,
        delta: float,
        budget_constant: float = 4.0,
    ) -> AmplificationOutcome:
        """Simulate one amplitude-amplification search (Theorem 6)."""
        raise NotImplementedError

    def run_maximum_finding(
        self,
        amplitudes: Mapping[Item, float],
        value_of: Callable[[Item], float],
        eps: float,
        delta: float = 0.1,
        rng: Optional[random.Random] = None,
        budget_constant: float = 4.0,
    ) -> MaximumFindingResult:
        """Simulate the maximum-finding schedule (Corollary 1)."""
        raise NotImplementedError


class SamplingScheduleBackend(ScheduleBackend):
    """The reference per-call sampling simulation (the seed behaviour).

    Delegates to :func:`repro.quantum.maximum_finding.find_maximum` and
    :func:`repro.quantum.amplitude_amplification.amplitude_amplification_search`
    unchanged; every amplification round rescans the search space.
    """

    def run_search(
        self,
        amplitudes: Mapping[Item, float],
        is_marked: Callable[[Item], bool],
        rng: random.Random,
        eps: float,
        delta: float,
        budget_constant: float = 4.0,
    ) -> AmplificationOutcome:
        return amplitude_amplification_search(
            amplitudes,
            is_marked=is_marked,
            rng=rng,
            eps=eps,
            delta=delta,
            budget_constant=budget_constant,
        )

    def run_maximum_finding(
        self,
        amplitudes: Mapping[Item, float],
        value_of: Callable[[Item], float],
        eps: float,
        delta: float = 0.1,
        rng: Optional[random.Random] = None,
        budget_constant: float = 4.0,
    ) -> MaximumFindingResult:
        return find_maximum(
            amplitudes,
            value_of=value_of,
            eps=eps,
            delta=delta,
            rng=rng,
            budget_constant=budget_constant,
        )


class _ThresholdTable:
    """Per-threshold Grover rotation statistics over a fixed value vector.

    For a threshold ``t`` the marked set is ``{x : f(x) > t}``.  The table
    materialises, at most once per distinct threshold, exactly what the
    sampling backend re-derives every round: the marked probability mass
    (summed in Setup-superposition order, so the float is bit-identical to
    the reference ``sum``) and the conditioned item/weight lists that
    :func:`~repro.quantum.amplitude_amplification._sample_conditioned`
    would build for a successful measurement.
    """

    def __init__(
        self,
        items: List[Item],
        weights_sq: List[float],
        values: List[float],
    ) -> None:
        self._items = items
        self._weights_sq = weights_sq
        self._values = values
        self._cache: Dict[float, Tuple[float, List[Item], List[float]]] = {}
        #: The highest threshold materialised so far and its (items,
        #: weights, values) lists.  The maximum-finding threshold only
        #: rises, and ``{f > t2}`` is a subsequence of ``{f > t1}`` for
        #: ``t2 >= t1`` in the *same* Setup-superposition order, so new
        #: thresholds filter the shrinking frontier instead of the full
        #: arrays -- same elements, same order, bit-identical sums.
        self._frontier_threshold: Optional[float] = None
        self._frontier: Tuple[List[Item], List[float], List[float]] = (
            items,
            weights_sq,
            values,
        )
        #: ``(threshold, iterations) -> sin^2((2k+1) asin(sqrt(P_M)))`` --
        #: the precomputed success probabilities; the rotation only depends
        #: on the marked mass and the iteration count, so the cache is
        #: exact (it stores the very float the reference recomputes).
        self._success: Dict[Tuple[float, int], float] = {}

    def stats_above(self, threshold: float) -> Tuple[float, List[Item], List[float]]:
        """``(marked_mass, marked_items, marked_weights)`` for ``f > threshold``."""
        entry = self._cache.get(threshold)
        if entry is None:
            advancing = self._frontier_threshold is None or (
                threshold >= self._frontier_threshold
            )
            if advancing:
                base_items, base_weights, base_values = self._frontier
            else:
                base_items = self._items
                base_weights = self._weights_sq
                base_values = self._values
            marked_items = [
                item
                for item, value in zip(base_items, base_values)
                if value > threshold
            ]
            marked_weights = [
                weight_sq
                for weight_sq, value in zip(base_weights, base_values)
                if value > threshold
            ]
            marked_values = [value for value in base_values if value > threshold]
            # ``sum`` over the prebuilt list adds the same floats in the
            # same (Setup-superposition) order as the reference generator
            # sum, so the mass is bit-identical.
            mass = sum(marked_weights)
            entry = self._cache[threshold] = (mass, marked_items, marked_weights)
            if advancing:
                self._frontier_threshold = threshold
                self._frontier = (marked_items, marked_weights, marked_values)
        return entry

    def success_probability(self, mass: float, iterations: int) -> float:
        """Cached :func:`grover_success_probability` for this schedule."""
        key = (mass, iterations)
        probability = self._success.get(key)
        if probability is None:
            probability = self._success[key] = grover_success_probability(
                mass, iterations
            )
        return probability


def _run_amplification_attempts(
    table: _ThresholdTable,
    mass: float,
    marked_items: List[Item],
    marked_weights: List[float],
    rng: random.Random,
    eps: float,
    budget: int,
) -> Tuple[Optional[Item], int, int, int]:
    """One amplitude-amplification search over precomputed statistics.

    This is the single batched copy of the [BBHT98]-style attempt loop of
    :func:`~repro.quantum.amplitude_amplification.amplitude_amplification_search`
    (iteration draw, counter updates, success draw, ``schedule_bound``
    growth), shared by :meth:`BatchedScheduleBackend.run_search` and every
    round of :meth:`BatchedScheduleBackend.run_maximum_finding` so the
    byte-identity contract has exactly one reference-mirroring loop to
    keep in lockstep.  Returns ``(found, setup_calls, oracle_calls,
    measurements)``.
    """
    setup_calls = 0
    oracle_calls = 0
    measurements = 0
    schedule_bound = 1.0
    while oracle_calls < budget:
        iterations = rng.randint(0, max(0, int(schedule_bound) - 1))
        iterations = min(iterations, budget - oracle_calls)
        setup_calls += 1 + 2 * iterations
        oracle_calls += max(1, iterations)
        measurements += 1
        success_probability = (
            table.success_probability(mass, iterations) if mass > 0.0 else 0.0
        )
        if rng.random() < success_probability:
            found = rng.choices(marked_items, weights=marked_weights)[0]
            return found, setup_calls, oracle_calls, measurements
        schedule_bound = min(
            schedule_bound * (1.0 + SCHEDULE_GROWTH) / 2.0 + 1.0,
            math.sqrt(1.0 / eps) + 1.0,
        )
    return None, setup_calls, oracle_calls, measurements


class BatchedScheduleBackend(ScheduleBackend):
    """Batched schedule simulation: precomputed rotation statistics.

    The value vector is computed in one pass over the search space (the
    sampling backend evaluates the same set during its first marked-mass
    scan, so the evaluation work is identical -- only the per-round rescans
    disappear), and every round's marked mass / conditioned sampling lists
    come from a :class:`_ThresholdTable`.  Randomness consumption and float
    reduction order replicate the reference implementation operation by
    operation; see the module docstring for the byte-identity contract.
    """

    def run_search(
        self,
        amplitudes: Mapping[Item, float],
        is_marked: Callable[[Item], bool],
        rng: random.Random,
        eps: float,
        delta: float,
        budget_constant: float = 4.0,
    ) -> AmplificationOutcome:
        _check_normalised(amplitudes)
        items = list(amplitudes)
        weights_sq = [amplitudes[item] ** 2 for item in items]
        # One vectorized predicate pass (the reference applies the predicate
        # to every element too -- inside its marked-mass sum).
        flags = [1.0 if is_marked(item) else 0.0 for item in items]
        table = _ThresholdTable(items, weights_sq, flags)
        mass, marked_items, marked_weights = table.stats_above(0.0)
        budget = theorem6_query_budget(eps, delta, constant=budget_constant)
        found, setup_calls, oracle_calls, measurements = _run_amplification_attempts(
            table, mass, marked_items, marked_weights, rng, eps, budget
        )
        return AmplificationOutcome(
            found=found,
            setup_calls=setup_calls,
            oracle_calls=oracle_calls,
            measurements=measurements,
        )

    def run_maximum_finding(
        self,
        amplitudes: Mapping[Item, float],
        value_of: Callable[[Item], float],
        eps: float,
        delta: float = 0.1,
        rng: Optional[random.Random] = None,
        budget_constant: float = 4.0,
    ) -> MaximumFindingResult:
        if not amplitudes:
            raise ValueError("the amplitude map must be non-empty")
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {eps}")
        rng = rng if rng is not None else random.Random(0)

        items = list(amplitudes)
        weights_sq = [amplitudes[item] ** 2 for item in items]
        # Equivalent to _check_normalised, reusing the precomputed squares:
        # ``sum(weights_sq)`` adds the same floats in the same dict order
        # as the reference's generator sum, so the acceptance boundary
        # (and the reported total) is bit-identical.
        total = sum(weights_sq)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"amplitudes must be normalised (got total mass {total})")
        if min(amplitudes.values()) < 0:
            raise ValueError("amplitudes must be non-negative reals")

        # Initial Setup sample (same draw as the reference), then the
        # vectorized value pass.  Evaluation order matches the reference
        # exactly: the sampled item first (its value is read out
        # immediately), then every remaining item in Setup-superposition
        # order (the reference touches them in its first marked-mass scan).
        best_item = rng.choices(items, weights=weights_sq)[0]
        value_cache: Dict[Item, float] = {best_item: value_of(best_item)}
        for item in items:
            if item not in value_cache:
                value_cache[item] = value_of(item)
        values = [value_cache[item] for item in items]
        table = _ThresholdTable(items, weights_sq, values)

        best_value = value_cache[best_item]
        setup_calls = 1
        evaluation_calls = 1
        measurements = 1
        amplification_rounds = 0

        overall_budget = max(
            4, 4 * theorem6_query_budget(eps, delta, constant=budget_constant)
        )

        eps_prime = 0.5
        while evaluation_calls < overall_budget:
            mass, marked_items, marked_weights = table.stats_above(best_value)
            round_eps = max(eps_prime, eps)
            budget = theorem6_query_budget(round_eps, delta, constant=budget_constant)
            found, round_setup, round_oracle, round_measurements = (
                _run_amplification_attempts(
                    table, mass, marked_items, marked_weights, rng,
                    round_eps, budget,
                )
            )
            setup_calls += round_setup
            evaluation_calls += round_oracle
            measurements += round_measurements
            amplification_rounds += 1

            if found is not None:
                best_item = found
                best_value = value_cache[best_item]
                # One extra Evaluation to read out the new value.
                evaluation_calls += 1
            else:
                if eps_prime <= eps:
                    break
                eps_prime /= 2.0

        return MaximumFindingResult(
            best_item=best_item,
            best_value=best_value,
            setup_calls=setup_calls,
            evaluation_calls=evaluation_calls,
            measurements=measurements,
            rounds_of_amplification=amplification_rounds,
        )


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
