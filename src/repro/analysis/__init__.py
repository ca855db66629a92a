"""Analysis utilities: parameter sweeps, scaling fits and table rendering.

The benchmark harnesses use these helpers to turn raw measurements
(rounds as a function of ``n`` and ``D``) into the quantities the paper's
Table 1 talks about: scaling exponents, classical/quantum ratios and
crossover points.

Every name loads its module on first use: a sweep does not import the
fitting helpers (numpy), and rendering a table does not import the sweep
machinery (the simulator).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SweepRecord": "repro.analysis.sweep",
    "grid_signature": "repro.analysis.sweep",
    "run_sweep_grid": "repro.analysis.sweep",
    "sweep_table": "repro.analysis.sweep",
    "sweep_task_key": "repro.analysis.sweep",
    "crossover_point": "repro.analysis.fitting",
    "fit_power_law": "repro.analysis.fitting",
    "fit_power_law_two_predictors": "repro.analysis.fitting",
    "geometric_mean_ratio": "repro.analysis.fitting",
    "render_table": "repro.analysis.tables",
})
