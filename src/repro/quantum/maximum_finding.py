"""Quantum maximum finding (Corollary 1, in the style of Durr-Hoyer [DHHM06]).

Corollary 1 of the paper turns amplitude amplification into an optimization
primitive: to maximise ``f`` over the support of the Setup superposition,
repeatedly amplitude-amplify the set ``{x : f(x) > f(a)}`` of elements
beating the current best ``a``, replace ``a`` on success, and halve the
assumed marked mass ``eps'`` on failure; abort once the total resources
exceed the worst-case budget and output the current best.

:func:`find_maximum` is that loop, written once.  It simulates the
procedure *exactly* (the measurement statistics of every
amplitude-amplification attempt follow the true Grover rotation) and
counts every application of ``Setup`` and of the ``Evaluation`` oracle;
the distributed layer (Theorem 7) multiplies those counts by the CONGEST
round cost of the corresponding distributed procedures.  Each round runs
the Theorem-6 attempt loop of :mod:`repro.quantum.amplitude_amplification`
on marked statistics supplied by a schedule backend
(:mod:`repro.quantum.backend`): precomputed tables by default, a fresh
scan of the search space with the sampling reference.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Hashable, Mapping, Optional

from repro._record import Record
from repro.quantum.amplitude_amplification import theorem6_query_budget
from repro.quantum.backend import ScheduleBackend, resolve_schedule_backend

Item = Hashable


class MaximumFindingResult(Record):
    """Result of one run of the quantum maximum-finding procedure."""

    __slots__ = (
        "best_item",
        "best_value",
        "setup_calls",
        "evaluation_calls",
        "measurements",
        "rounds_of_amplification",
    )


def find_maximum(
    amplitudes: Mapping[Item, float],
    value_of: Callable[[Item], float],
    eps: float,
    delta: float = 0.1,
    rng: Optional[random.Random] = None,
    budget_constant: float = 4.0,
    backend: Optional[ScheduleBackend] = None,
) -> MaximumFindingResult:
    """Maximise ``value_of`` over the support of ``amplitudes``.

    Parameters
    ----------
    amplitudes:
        Normalised, non-negative amplitudes of the Setup superposition.
    value_of:
        The function ``f`` to maximise (the Evaluation oracle).  It is
        called at most once per distinct item and the result is cached, so
        an expensive distributed evaluation is only paid once per item; the
        *counts* still reflect every quantum application.
    eps:
        A lower bound on ``P_opt``, the probability mass of the maximisers
        under the Setup distribution (``d / 2n`` for the paper's final
        algorithm, ``1 / n`` for the simpler one).
    delta:
        Target failure probability.
    rng:
        Randomness source for the simulated measurements.
    budget_constant:
        Hidden constant of the O-notation in Theorem 6 / Corollary 1.
    backend:
        The :class:`~repro.quantum.backend.ScheduleBackend` supplying each
        round's marked statistics (``None``: the batched backend).  Every
        backend returns the identical result for a fixed ``rng`` seed.

    Returns
    -------
    MaximumFindingResult
        The best element found and exact Setup / Evaluation call counts.
    """
    schedule = resolve_schedule_backend(backend)
    if not amplitudes:
        raise ValueError("the amplitude map must be non-empty")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    rng = rng if rng is not None else random.Random(0)

    items = list(amplitudes)
    weights = [amplitudes[item] ** 2 for item in items]
    total = sum(weights)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"amplitudes must be normalised (got total mass {total})")
    if min(amplitudes.values()) < 0:
        raise ValueError("amplitudes must be non-negative reals")

    # Start from a sample of the Setup distribution (one Setup application
    # and one Evaluation to learn its value).  ``values`` memoises
    # ``value_of``; the backend evaluates the remaining items into it.
    best_item = rng.choices(items, weights=weights)[0]
    values: Dict[Item, float] = {best_item: value_of(best_item)}
    best_value = values[best_item]
    setup_calls = 1
    evaluation_calls = 1
    measurements = 1
    amplification_rounds = 0
    amplify = schedule.amplifier(amplitudes, items, weights, values, value_of)

    # Overall resource cap, as in the proof of Corollary 1: abort and output
    # the current maximum once too many resources have been used.
    overall_budget = max(
        4, 4 * theorem6_query_budget(eps, delta, constant=budget_constant)
    )

    eps_prime = 0.5
    while evaluation_calls < overall_budget:
        outcome = amplify(
            best_value, rng, max(eps_prime, eps), delta, budget_constant
        )
        setup_calls += outcome.setup_calls
        evaluation_calls += outcome.oracle_calls
        measurements += outcome.measurements
        amplification_rounds += 1

        if outcome.found is not None:
            best_item = outcome.found
            best_value = values[best_item]
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


def uniform_amplitudes(items) -> Dict[Item, float]:
    """Uniform Setup amplitudes over ``items`` (the paper's choice)."""
    items = list(items)
    if not items:
        raise ValueError("need at least one item")
    weight = 1.0 / math.sqrt(len(items))
    return {item: weight for item in items}
