"""Tests for :mod:`repro.config`: the one execution configuration.

A grid's fault model travels as one frozen :class:`ExecutionConfig` --
through the task context, the
remote-dispatch frame and the run header.  These tests pin its parser
(every malformed input is a ``ValueError``), its JSON round trip and the
call-time resolution of :data:`repro.config.DEFAULT_CONFIG`.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.config
from repro.config import ExecutionConfig, resolve_config
from repro.congest.network import Network
from repro.faults import FAULT_MODELS, NULL_FAULT_MODEL, FaultModel
from repro.graphs import generators

LOSSY = FaultModel(loss=0.1, delay=0.05, max_delay=2, timeout=256, seed=4)


class TestExecutionConfig:
    def test_defaults_are_the_reference_selections(self):
        assert ExecutionConfig().fault is NULL_FAULT_MODEL

    def test_exactly_one_field(self):
        assert list(ExecutionConfig().to_dict()) == ["fault"]

    def test_frozen_and_picklable(self):
        config = ExecutionConfig(fault=LOSSY)
        with pytest.raises(AttributeError):
            config.fault = NULL_FAULT_MODEL
        assert pickle.loads(pickle.dumps(config)) == config

    def test_fault_registry_names_resolve(self):
        assert ExecutionConfig(fault="lossy").fault == FAULT_MODELS["lossy"]
        with pytest.raises(ValueError, match="unknown fault model"):
            ExecutionConfig(fault="bogus")


class TestSerialization:
    @pytest.mark.parametrize("config", [
        ExecutionConfig(),
        ExecutionConfig(fault=LOSSY),
        ExecutionConfig(fault=FaultModel(timeout=9)),
    ])
    def test_round_trip(self, config):
        assert ExecutionConfig.from_dict(config.to_dict()) == config

    def test_null_fault_serializes_as_none(self):
        assert ExecutionConfig().to_dict()["fault"] is None

    def test_absent_and_none_keys_take_defaults(self):
        assert ExecutionConfig.from_dict({}) == ExecutionConfig()
        assert ExecutionConfig.from_dict({"fault": None}) == ExecutionConfig()

    @pytest.mark.parametrize("tier", [None, "stdlib", "numpy", 3, "cupy"])
    def test_retired_tier_key_is_ignored(self, tier):
        """Configurations written while the oracle kernel was a user
        selection carry a ``tier``; they still parse."""
        assert ExecutionConfig.from_dict(
            {"tier": tier, "fault": LOSSY}
        ) == ExecutionConfig(fault=LOSSY)

    def test_fault_values_keep_their_type(self):
        # The fault description (and so every task key) is built from the
        # values' repr: an integer probability must not become a float.
        config = ExecutionConfig.from_dict({"fault": {"loss": 1, "timeout": 5}})
        assert config.fault == FaultModel(loss=1, timeout=5)
        assert "loss=1," in config.fault.describe()

    @pytest.mark.parametrize("data, message", [
        ({"fault": {"bogus": 1}}, "unknown fault fields"),
        ({"fault": {"loss": "abc"}}, "must be a number"),
        ({"fault": {"loss": True}}, "must be a number"),
        ({"fault": {"max_delay": 1.5}}, "must be an integer"),
        ({"fault": {"loss": 2.0}}, r"must be in \[0, 1\]"),
        ({"fault": [0.1]}, "must be an object"),
        ({"fault": {"timeout": "5"}}, "must be an integer"),
        ({"fault": "lossy"}, "must be an object"),
        ({"tir": "numpy"}, "unknown execution config fields"),
    ])
    def test_malformed_input_is_a_value_error(self, data, message):
        with pytest.raises(ValueError, match=message):
            ExecutionConfig.from_dict(data)

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            ExecutionConfig.from_dict(["fault"])


#: JSON values, nested a little, plus the retired tier names.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(("stdlib", "numpy", "")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_FAULT_KEYS = st.sampled_from(
    ["loss", "delay", "max_delay", "crash", "crash_window", "down_rounds",
     "churn", "timeout", "seed", "bogus"]
)
_FAULT = st.dictionaries(
    _FAULT_KEYS,
    st.none() | st.booleans() | st.integers(-2, 300)
    | st.floats(-0.5, 1.5) | st.floats() | st.text(max_size=3),
    max_size=4,
) | _JSON
_CONFIG_DICTS = st.dictionaries(
    st.sampled_from(["tier", "fault", "engine", "other"]),
    _JSON,
    max_size=4,
) | st.fixed_dictionaries({}, optional={
    "tier": _JSON,
    "fault": _FAULT,
})


class TestParserProperty:
    @settings(max_examples=300, deadline=None)
    @given(_CONFIG_DICTS)
    def test_from_dict_returns_a_config_or_raises_value_error(self, data):
        try:
            config = ExecutionConfig.from_dict(data)
        except ValueError:
            return
        assert isinstance(config, ExecutionConfig)
        assert ExecutionConfig.from_dict(config.to_dict()) == config


class TestResolution:
    def test_none_resolves_to_the_default_at_call_time(self, monkeypatch):
        assert resolve_config() is repro.config.DEFAULT_CONFIG
        lossy = ExecutionConfig(fault=LOSSY)
        monkeypatch.setattr(repro.config, "DEFAULT_CONFIG", lossy)
        assert resolve_config() is lossy
        assert Network(generators.path_graph(3)).config is lossy

    def test_overrides_skip_none(self):
        config = ExecutionConfig(fault=LOSSY)
        assert resolve_config(config, fault=None) is config
        assert resolve_config(config, fault="lossy") == ExecutionConfig(
            fault=FAULT_MODELS["lossy"]
        )

    def test_network_overrides_apply_to_its_config(self):
        base = ExecutionConfig(fault=LOSSY)
        network = Network(
            generators.path_graph(3), fault_model="lossy", config=base
        )
        assert network.config == ExecutionConfig(fault=FAULT_MODELS["lossy"])
