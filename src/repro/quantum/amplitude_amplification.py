"""Amplitude amplification (Theorem 6, [BHT98]) -- analytics and simulation.

Amplitude amplification generalises Grover search: given a unitary ``Setup``
preparing ``|psi> = sum_x alpha_x |x>`` and a ``Checking`` oracle marking a
subset ``M``, the Grover iterate ``G = (2|psi><psi| - I) O_M`` rotates the
state inside the two-dimensional subspace spanned by the marked and unmarked
components of ``|psi>``.  Writing ``P_M = sum_{x in M} |alpha_x|^2`` and
``theta = asin(sqrt(P_M))``, after ``k`` iterations the probability of
measuring a marked element is ``sin^2((2k + 1) theta)``.

This module provides:

* the exact rotation algebra (:func:`grover_success_probability`,
  :func:`optimal_grover_iterations`);
* the query budget of Theorem 6 (:func:`theorem6_query_budget`) -- the
  number of ``Setup`` / ``Checking`` applications sufficient to decide
  whether ``M`` is empty with failure probability ``delta`` under the
  promise ``P_M = 0`` or ``P_M >= eps``;
* the exponential-search attempt loop for an unknown ``P_M``
  ([BBHT98]-style, :func:`amplification_attempts`), written once: it
  reproduces the measurement statistics exactly (success and failure
  included) while counting every oracle application, so the distributed
  layer can convert the count into CONGEST rounds.  It takes the marked
  mass and a draw of a marked item from its caller;
* :func:`amplitude_amplification_search`, one search that computes both
  by scanning the amplitude map with the Checking predicate.  The
  sampling schedule backend (:mod:`repro.quantum.backend`) runs it for
  every round of maximum finding; the batched backend feeds the same
  attempt loop from precomputed tables.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Hashable, Mapping

from repro._record import Record

Item = Hashable

#: Growth factor of the exponential-search schedule for unknown ``P_M``
#: (any value in (1, 4/3) works; 6/5 is the classical choice of [BBHT98]).
SCHEDULE_GROWTH = 1.2


def grover_success_probability(initial_probability: float, iterations: int) -> float:
    """Probability of measuring a marked item after ``iterations`` iterations.

    ``initial_probability`` is ``P_M``, the marked mass of the initial
    superposition.  The formula is the exact rotation
    ``sin^2((2k + 1) asin(sqrt(P_M)))``.
    """
    if not 0.0 <= initial_probability <= 1.0:
        raise ValueError(f"P_M must lie in [0, 1], got {initial_probability}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    theta = math.asin(math.sqrt(initial_probability))
    return math.sin((2 * iterations + 1) * theta) ** 2


def optimal_grover_iterations(initial_probability: float) -> int:
    """The iteration count maximising the success probability (~ pi/4 sqrt(1/P_M))."""
    if not 0.0 < initial_probability <= 1.0:
        raise ValueError(f"P_M must lie in (0, 1], got {initial_probability}")
    theta = math.asin(math.sqrt(initial_probability))
    return max(0, int(round(math.pi / (4 * theta) - 0.5)))


def theorem6_query_budget(eps: float, delta: float, constant: float = 4.0) -> int:
    """Setup/Checking applications allowed by Theorem 6.

    Theorem 6 states that ``O(sqrt(log(1/delta) / eps))`` applications of
    ``Setup`` and ``Checking`` (and their inverses) suffice to decide
    whether ``M`` is empty with failure probability at most ``delta`` under
    the promise ``P_M = 0`` or ``P_M >= eps``.  The ``constant`` pins the
    hidden constant of the O-notation; the simulation in
    :func:`amplitude_amplification_search` aborts (declaring ``M`` empty)
    once the budget is exhausted, exactly as the paper's Corollary 1
    prescribes for its worst-case bound.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return max(1, math.ceil(constant * math.sqrt(math.log(1.0 / delta) / eps)))


class AmplificationOutcome(Record):
    """Result of one amplitude-amplification search."""

    __slots__ = ("found", "setup_calls", "oracle_calls", "measurements")

    @property
    def succeeded(self) -> bool:
        """Whether a marked item was produced."""
        return self.found is not None


def amplitude_amplification_search(
    amplitudes: Mapping[Item, float],
    is_marked: Callable[[Item], bool],
    rng: random.Random,
    eps: float,
    delta: float,
    budget_constant: float = 4.0,
) -> AmplificationOutcome:
    """Search for a marked item by exact simulation of amplitude amplification.

    Parameters
    ----------
    amplitudes:
        The (real, non-negative) amplitudes ``alpha_x`` of the initial
        superposition produced by Setup; they must be normalised
        (``sum |alpha_x|^2 = 1``).
    is_marked:
        The Checking predicate.
    rng:
        Source of randomness for the simulated measurements.
    eps, delta:
        The promise and failure-probability parameters of Theorem 6;
        together with ``budget_constant`` they fix the query budget after
        which the search gives up and declares ``M`` empty.

    Returns
    -------
    AmplificationOutcome
        The found item (or ``None``), plus exact counts of Setup
        applications, oracle (Checking) applications and measurements --
        the quantities the distributed cost model converts into rounds.
    """
    _check_normalised(amplitudes)
    marked_mass = sum(
        weight ** 2 for item, weight in amplitudes.items() if is_marked(item)
    )
    return amplification_attempts(
        marked_mass,
        lambda: _sample_marked(amplitudes, is_marked, rng),
        rng,
        eps,
        theorem6_query_budget(eps, delta, constant=budget_constant),
    )


def amplification_attempts(
    marked_mass: float,
    draw_marked: Callable[[], Item],
    rng: random.Random,
    eps: float,
    budget: int,
    success_probability: Callable[[float, int], float] = grover_success_probability,
) -> AmplificationOutcome:
    """The exponential-search attempt loop of Theorem 6 ([BBHT98]-style).

    Each attempt draws an iteration count below the growing schedule
    bound, charges its Setup and oracle applications, and measures: with
    probability ``success_probability(marked_mass, iterations)`` the
    measurement is marked and ``draw_marked()`` picks the item.  The loop
    gives up once ``budget`` oracle calls are spent.  ``marked_mass`` is
    clamped at 1.0, so float noise in a summed mass cannot leave the
    rotation's domain when every item is marked.
    """
    marked_mass = min(marked_mass, 1.0)
    setup_calls = 0
    oracle_calls = 0
    measurements = 0
    schedule_bound = 1.0

    while oracle_calls < budget:
        iterations = rng.randint(0, max(0, int(schedule_bound) - 1))
        iterations = min(iterations, budget - oracle_calls)
        # One Setup to prepare |psi>, `iterations` Grover iterates (each uses
        # one oracle call and one reflection built from Setup and its
        # inverse), then a measurement.
        setup_calls += 1 + 2 * iterations
        oracle_calls += max(1, iterations)
        measurements += 1

        probability = (
            success_probability(marked_mass, iterations)
            if marked_mass > 0.0
            else 0.0
        )
        if rng.random() < probability:
            return AmplificationOutcome(
                found=draw_marked(),
                setup_calls=setup_calls,
                oracle_calls=oracle_calls,
                measurements=measurements,
            )
        schedule_bound = min(
            schedule_bound * (1.0 + SCHEDULE_GROWTH) / 2.0 + 1.0,
            math.sqrt(1.0 / eps) + 1.0,
        )

    return AmplificationOutcome(
        found=None,
        setup_calls=setup_calls,
        oracle_calls=oracle_calls,
        measurements=measurements,
    )


def _sample_marked(
    amplitudes: Mapping[Item, float],
    is_marked: Callable[[Item], bool],
    rng: random.Random,
) -> Item:
    """Sample a marked item from the initial distribution.

    After the Grover rotation the conditional distribution *within* the
    marked subspace is unchanged, so conditioning the original Born
    distribution is exact.
    """
    items = [item for item in amplitudes if is_marked(item)]
    return rng.choices(items, weights=[amplitudes[item] ** 2 for item in items])[0]


def _check_normalised(amplitudes: Mapping[Item, float]) -> None:
    if not amplitudes:
        raise ValueError("the amplitude map must be non-empty")
    total = sum(weight ** 2 for weight in amplitudes.values())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"amplitudes must be normalised (got total mass {total})")
    if any(weight < 0 for weight in amplitudes.values()):
        raise ValueError("amplitudes must be non-negative reals")
