"""Scaling fits: power-law exponents, ratios and crossover points.

The paper's claims are asymptotic (``O~`` / ``Omega~``); the reproduction
checks their *shape* on finite instances.  The primary tools are

* :func:`fit_power_law` -- least-squares fit of ``y ~ C * x^a`` in log-log
  space, returning the exponent ``a`` (e.g. measured quantum rounds against
  ``n * D`` should give an exponent close to 1/2 for Theorem 1);
* :func:`fit_power_law_two_predictors` -- fit ``y ~ C * u^a * v^b`` (e.g.
  rounds against ``n`` and ``D`` separately);
* :func:`crossover_point` -- where one measured series overtakes another
  (e.g. where the quantum algorithm starts beating the classical baseline);
* :func:`geometric_mean_ratio` -- the typical speed-up factor between two
  series.

The two fits run on numpy, imported on use: importing this module, or
calling the pure-Python helpers, works on a stdlib-only install.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro._numpy import require_numpy

_FEATURE = "the scaling-fit analysis"


@dataclass
class PowerLawFit:
    """Result of a log-log least-squares fit ``y ~ C * x^exponent``."""

    exponent: float
    constant: float
    r_squared: float

    def predict(self, x: float) -> float:
        """Predicted value at ``x``."""
        return self.constant * (x ** self.exponent)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y ~ C * x^a`` by least squares in log-log space."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a power law")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fitting requires positive data")
    np = require_numpy(_FEATURE)
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.asarray(ys, dtype=float))
    design = np.vstack([log_x, np.ones_like(log_x)]).T
    coeffs, residuals, _, _ = np.linalg.lstsq(design, log_y, rcond=None)
    exponent, intercept = float(coeffs[0]), float(coeffs[1])
    predictions = design @ coeffs
    total = float(np.sum((log_y - log_y.mean()) ** 2))
    explained = float(np.sum((predictions - log_y.mean()) ** 2))
    r_squared = 1.0 if total == 0 else min(1.0, explained / total)
    return PowerLawFit(
        exponent=exponent, constant=math.exp(intercept), r_squared=r_squared
    )


@dataclass
class TwoPredictorFit:
    """Result of fitting ``y ~ C * u^a * v^b``."""

    exponent_u: float
    exponent_v: float
    constant: float

    def predict(self, u: float, v: float) -> float:
        """Predicted value at ``(u, v)``."""
        return self.constant * (u ** self.exponent_u) * (v ** self.exponent_v)


def fit_power_law_two_predictors(
    us: Sequence[float], vs: Sequence[float], ys: Sequence[float]
) -> TwoPredictorFit:
    """Fit ``y ~ C * u^a * v^b`` by least squares in log space."""
    if not (len(us) == len(vs) == len(ys)):
        raise ValueError("us, vs and ys must have the same length")
    if len(us) < 3:
        raise ValueError("need at least three points for a two-predictor fit")
    if any(value <= 0 for value in list(us) + list(vs) + list(ys)):
        raise ValueError("power-law fitting requires positive data")
    np = require_numpy(_FEATURE)
    log_u = np.log(np.asarray(us, dtype=float))
    log_v = np.log(np.asarray(vs, dtype=float))
    log_y = np.log(np.asarray(ys, dtype=float))
    design = np.vstack([log_u, log_v, np.ones_like(log_u)]).T
    coeffs, _, _, _ = np.linalg.lstsq(design, log_y, rcond=None)
    return TwoPredictorFit(
        exponent_u=float(coeffs[0]),
        exponent_v=float(coeffs[1]),
        constant=math.exp(float(coeffs[2])),
    )


def crossover_point(
    xs: Sequence[float], series_a: Sequence[float], series_b: Sequence[float]
) -> Optional[float]:
    """The smallest ``x`` at which ``series_a`` drops (weakly) below ``series_b``.

    Returns ``None`` if ``a`` never drops below ``b`` on the sampled range.
    Used to locate where the quantum round count starts to beat the
    classical one.
    """
    if not (len(xs) == len(series_a) == len(series_b)):
        raise ValueError("all series must have the same length")
    for x, a, b in sorted(zip(xs, series_a, series_b)):
        if a <= b:
            return x
    return None


def geometric_mean_ratio(
    numerators: Sequence[float], denominators: Sequence[float]
) -> float:
    """Geometric mean of pointwise ratios (a robust 'typical factor')."""
    if len(numerators) != len(denominators):
        raise ValueError("series must have the same length")
    if not numerators:
        raise ValueError("series must be non-empty")
    logs = [
        math.log(n / d)
        for n, d in zip(numerators, denominators)
        if n > 0 and d > 0
    ]
    if not logs:
        raise ValueError("no positive pairs to compare")
    return math.exp(sum(logs) / len(logs))
