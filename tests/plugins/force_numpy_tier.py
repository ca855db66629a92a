"""Pytest plugin: run the whole suite with the numpy compute tier forced.

CI loads this with ``pytest -p force_numpy_tier`` (with ``tests/plugins``
on ``PYTHONPATH``) for a second tier-1 shard: every oracle call that does
not name its tier then goes through the vectorized dispatch
(:mod:`repro.tier`), and the suite must pass byte-identically -- the
strongest whole-system statement of the tier contract.  The default
configuration is replaced at configure time so even collection-time graph
work runs under the tier.
"""

from __future__ import annotations


def pytest_configure(config):
    import dataclasses

    import repro.config

    repro.config.DEFAULT_CONFIG = dataclasses.replace(
        repro.config.DEFAULT_CONFIG, tier="numpy"
    )
