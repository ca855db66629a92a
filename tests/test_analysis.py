"""Tests for the analysis helpers (fits, sweeps, table rendering)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.fitting import (
    crossover_point,
    fit_power_law,
    fit_power_law_two_predictors,
    geometric_mean_ratio,
)
from repro.analysis.sweep import SweepRecord, run_sweep_grid, sweep_table
from repro.analysis.tables import render_table, render_table1
from repro.runner import EXACT, THREE_HALVES, GraphSpec, SweepAlgorithmInfo


class TestPowerLawFits:
    def test_exact_power_law_recovered(self):
        xs = [10, 20, 40, 80, 160]
        ys = [3 * x ** 0.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.constant == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_linear_data(self):
        xs = [5, 10, 50, 100]
        fit = fit_power_law(xs, [2 * x for x in xs])
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)

    def test_prediction(self):
        fit = fit_power_law([1, 2, 4, 8], [1, 4, 16, 64])
        assert fit.predict(16) == pytest.approx(256, rel=1e-6)

    def test_noise_tolerance(self):
        xs = list(range(10, 200, 10))
        ys = [5 * x ** 0.7 * (1.0 + 0.02 * ((i % 3) - 1)) for i, x in enumerate(xs)]
        fit = fit_power_law(xs, ys)
        assert 0.6 <= fit.exponent <= 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1])
        with pytest.raises(ValueError):
            fit_power_law([0, 1], [1, 2])

    def test_two_predictor_fit(self):
        data = []
        for u in (10, 20, 40):
            for v in (3, 9, 27):
                data.append((u, v, 2.0 * u ** 0.5 * v ** 1.0))
        us, vs, ys = zip(*data)
        fit = fit_power_law_two_predictors(us, vs, ys)
        assert fit.exponent_u == pytest.approx(0.5, abs=1e-6)
        assert fit.exponent_v == pytest.approx(1.0, abs=1e-6)
        assert fit.predict(100, 5) == pytest.approx(2.0 * 10 * 5, rel=1e-6)

    def test_two_predictor_validation(self):
        with pytest.raises(ValueError):
            fit_power_law_two_predictors([1, 2], [1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            fit_power_law_two_predictors([1, 2], [1, 2], [1, 2])


class TestCrossoverAndRatios:
    def test_crossover_found(self):
        xs = [1, 2, 3, 4, 5]
        quantum = [10, 8, 6, 4, 2]
        classical = [3, 4, 5, 6, 7]
        assert crossover_point(xs, quantum, classical) == 4

    def test_crossover_absent(self):
        xs = [1, 2, 3]
        assert crossover_point(xs, [5, 5, 5], [1, 1, 1]) is None

    def test_crossover_validation(self):
        with pytest.raises(ValueError):
            crossover_point([1, 2], [1], [1, 2])

    def test_geometric_mean_ratio(self):
        assert geometric_mean_ratio([2, 8], [1, 2]) == pytest.approx(math.sqrt(8))
        with pytest.raises(ValueError):
            geometric_mean_ratio([], [])
        with pytest.raises(ValueError):
            geometric_mean_ratio([1, 2], [1])


class TestSweepAndTables:
    def test_run_sweep_checks_correctness(self):
        # Correctness gating is explicit metadata (SweepAlgorithmInfo), not
        # a substring match on the algorithm name: "oracle" carries EXACT
        # despite not containing "exact", and the bare "estimate" callable
        # is never checked.
        specs = [GraphSpec("cycle", 8), GraphSpec("path", 6)]
        algorithms = {
            "oracle": SweepAlgorithmInfo(
                lambda g, seed, config: (g.num_nodes, float(g.diameter())),
                guarantee=EXACT,
            ),
            "always_zero": SweepAlgorithmInfo(
                lambda g, seed, config: (1, 0.0), guarantee=EXACT
            ),
            "estimate": lambda g, seed, config: (2, 1.0),
        }
        records = run_sweep_grid(specs, algorithms)
        assert len(records) == 6
        oracle_records = [r for r in records if r.algorithm == "oracle"]
        assert all(r.correct for r in oracle_records)
        assert all(r.extra == {} for r in oracle_records)
        zero_records = [r for r in records if r.algorithm == "always_zero"]
        assert not any(r.correct for r in zero_records)
        # Failed checks surface the mismatch against the oracle.
        assert all(r.extra["oracle_diameter"] == r.diameter for r in zero_records)
        assert all(r.extra["value_minus_oracle"] == -r.diameter for r in zero_records)
        estimate_records = [r for r in records if r.algorithm == "estimate"]
        assert all(r.correct is None for r in estimate_records)

    def test_exact_check_rounds_instead_of_truncating(self):
        # 3.9999999 must compare as 4 (the seed behaviour int()-truncated
        # it to 3); a genuinely non-integral value fails the exactness
        # assertion and is surfaced in extra.
        specs = [GraphSpec("controlled", 12, diameter=4, seed=1)]
        algorithms = {
            "near_integer": SweepAlgorithmInfo(
                lambda g, seed, config: (1, 3.9999999), guarantee=EXACT
            ),
            "half_way": SweepAlgorithmInfo(
                lambda g, seed, config: (1, 3.5), guarantee=EXACT
            ),
        }
        records = {r.algorithm: r for r in run_sweep_grid(specs, algorithms)}
        assert records["near_integer"].correct is True
        assert records["near_integer"].extra == {}
        assert records["half_way"].correct is False
        assert records["half_way"].extra["nonintegral_value"] == 3.5

    def test_approx_guarantee_checked_when_oracle_available(self):
        # Approximation guarantees don't force the oracle, but are checked
        # opportunistically when an exact algorithm already paid for it.
        specs = [GraphSpec("cycle", 12)]  # D = 6
        algorithms = {
            "oracle": SweepAlgorithmInfo(
                lambda g, seed, config: (1, float(g.diameter())), guarantee=EXACT
            ),
            "good_estimate": SweepAlgorithmInfo(
                # floor(2*6/3) = 4
                lambda g, seed, config: (1, 4.0), guarantee=THREE_HALVES
            ),
            "bad_estimate": SweepAlgorithmInfo(
                lambda g, seed, config: (1, 3.0), guarantee=THREE_HALVES
            ),
        }
        records = {r.algorithm: r for r in run_sweep_grid(specs, algorithms)}
        assert records["good_estimate"].correct is True
        assert records["bad_estimate"].correct is False
        assert records["bad_estimate"].extra["oracle_diameter"] == 6.0
        # Without the exact algorithm there is no oracle, hence no verdict.
        del algorithms["oracle"]
        records = {r.algorithm: r for r in run_sweep_grid(specs, algorithms)}
        assert records["good_estimate"].correct is None
        assert records["good_estimate"].diameter is None

    def test_sweep_table_rendering(self):
        records = [
            SweepRecord("cycle", "classical", 10, 5, 40, 5.0, True),
            SweepRecord("cycle", "quantum", 10, 5, 90, 5.0, True),
        ]
        text = sweep_table(records)
        assert "classical" in text and "quantum" in text
        assert text.splitlines()[0].startswith("family")

    def test_sweep_table_empty(self):
        assert sweep_table([]) == "(no records)"

    def test_render_table_alignment(self):
        text = render_table([["a", "1"], ["bb", "22"]], header=["col", "val"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")

    def test_render_table1_contains_all_rows(self):
        text = render_table1(n=10 ** 4, diameter=16)
        assert "Exact computation" in text
        assert "3/2-approximation" in text
        assert "Theorem 1" in text
        assert "Theorem 4" in text
