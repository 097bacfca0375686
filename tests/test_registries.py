"""Tests of the open component registries (repro.registry).

Covers the registration contract the PR 5 redesign introduced: duplicate keys
raise immediately, unknown keys list the candidates, lookups are
alias-tolerant, and every registered protocol plugin provides callable
builders and survives pickling.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import pytest

from repro.registry import (
    CHANNELS,
    DEPLOYMENTS,
    DRIVERS,
    EXPERIMENT_SPECS,
    FAULT_PLANS,
    METRICS,
    PROTOCOLS,
    ChannelPlugin,
    ProtocolPlugin,
    Registry,
    RegistryError,
)


class TestRegistryMechanics:
    def test_duplicate_key_raises(self):
        registry = Registry("widget")
        registry.register("alpha", object())
        with pytest.raises(RegistryError, match="duplicate"):
            registry.register("alpha", object())

    def test_duplicate_alias_raises(self):
        registry = Registry("widget")
        registry.register("alpha", object(), aliases=("a",))
        with pytest.raises(RegistryError, match="duplicate"):
            registry.register("beta", object(), aliases=("a",))

    def test_alias_collision_with_existing_key_raises(self):
        registry = Registry("widget")
        registry.register("alpha", object())
        with pytest.raises(RegistryError, match="duplicate"):
            registry.register("beta", object(), aliases=("alpha",))

    def test_unknown_key_lists_candidates(self):
        registry = Registry("widget")
        registry.register("alpha", object(), aliases=("a",))
        registry.register("beta", object())
        with pytest.raises(RegistryError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "unknown widget 'gamma'" in message
        assert "alpha" in message and "beta" in message
        assert "aliases: a" in message

    def test_registry_error_is_key_and_value_error(self):
        # Both historical lookup contracts must keep working.
        assert issubclass(RegistryError, KeyError)
        assert issubclass(RegistryError, ValueError)

    def test_lookup_ignores_case_dash_underscore(self):
        registry = Registry("widget")
        sentinel = object()
        registry.register("two_words", sentinel)
        for variant in ("two_words", "TWO_WORDS", "two-words", "twowords", "Two-Words"):
            assert registry.get(variant) is sentinel
            assert registry.canonical(variant) == "two_words"

    def test_duplicate_registration_on_real_registry_raises(self):
        with pytest.raises(RegistryError, match="duplicate"):
            PROTOCOLS.register("neighborwatch", object())

    def test_contains_and_keys(self):
        assert "neighborwatch" in PROTOCOLS
        assert "nw" in PROTOCOLS
        assert "quantum" not in PROTOCOLS
        assert PROTOCOLS.keys() == ["neighborwatch", "neighborwatch2", "multipath", "epidemic"]


class TestBuiltinRegistrations:
    def test_expected_keys(self):
        assert CHANNELS.keys() == ["unitdisk", "friis"]
        assert DEPLOYMENTS.keys() == ["uniform", "clustered", "fixed"]
        assert FAULT_PLANS.keys() == ["target_density_crash", "budgeted_jammer", "random_liar"]
        assert set(DRIVERS.keys()) == {"sweep", "tolerance_search", "dual_mode"}
        assert "default" in METRICS.keys()
        assert EXPERIMENT_SPECS.keys() == [
            "FIG5", "JAM", "FIG6", "FIG7", "CLUST", "MAPSZ", "EPID", "DUAL"
        ]

    @pytest.mark.parametrize(
        "registry",
        [PROTOCOLS, CHANNELS, DEPLOYMENTS, FAULT_PLANS, METRICS, DRIVERS, EXPERIMENT_SPECS],
        ids=lambda registry: registry.kind,
    )
    def test_every_entry_passes_its_contract(self, registry):
        registry.validate_all()

    def test_historical_protocol_aliases_resolve(self):
        for alias, canonical in [
            ("nw", "neighborwatch"),
            ("neighborwatchrb", "neighborwatch"),
            ("nw2", "neighborwatch2"),
            ("2vote", "neighborwatch2"),
            ("2-vote", "neighborwatch2"),
            ("mp", "multipath"),
            ("multipathrb", "multipath"),
            ("flood", "epidemic"),
            ("flooding", "epidemic"),
        ]:
            assert PROTOCOLS.canonical(alias) == canonical

    def test_experiment_lookup_is_case_insensitive(self):
        assert EXPERIMENT_SPECS.canonical("fig5") == "FIG5"
        assert EXPERIMENT_SPECS.get("dual").name == "DUAL"


class TestProtocolContract:
    """Every registered protocol plugin provides callable builders and pickles."""

    def test_plugins_are_picklable(self):
        for key in PROTOCOLS.keys():
            pickle.loads(pickle.dumps(PROTOCOLS.get(key)))

    @pytest.mark.parametrize("key", ["neighborwatch", "neighborwatch2", "multipath", "epidemic"])
    def test_builders_return_protocols_and_a_schedule(self, key, tiny_grid_deployment):
        from repro.core.protocol import Protocol
        from repro.core.schedule import Schedule
        from repro.sim.config import ScenarioConfig

        plugin = PROTOCOLS.get(key)
        config = ScenarioConfig(protocol=key, radius=3.0, message_length=3)
        honest = plugin.build(config)
        liar = plugin.build_liar(config, (1, 0, 1))
        schedule = plugin.build_schedule(tiny_grid_deployment, config)
        assert isinstance(honest, Protocol)
        # A liar runs the honest protocol, only preloaded with a fake message.
        assert type(liar) is type(honest)
        assert isinstance(schedule, Schedule)
        owners = {
            int(node)
            for slot in range(schedule.num_slots)
            for node in schedule.owners_of_slot(slot)
        }
        assert owners == set(range(tiny_grid_deployment.num_nodes))

    @pytest.mark.parametrize("method", ["build", "build_liar", "build_schedule"])
    def test_missing_builder_is_rejected(self, method):
        registry = Registry(
            "protocol", validator=PROTOCOLS._validator, instantiate=True
        )

        @registry.register("bogus")
        class BogusPlugin(ProtocolPlugin):
            def build(self, config):  # pragma: no cover - never called
                return None

            def build_liar(self, config, fake_message):  # pragma: no cover
                return None

            def build_schedule(self, deployment, config):  # pragma: no cover
                return None

        setattr(BogusPlugin, method, None)
        with pytest.raises(RegistryError, match=f"callable {method}"):
            registry.get("bogus")

    def test_unpicklable_plugin_is_rejected(self):
        registry = Registry(
            "protocol", validator=PROTOCOLS._validator, instantiate=True
        )

        # Defined in a function body, so pickle cannot look the class up by
        # name: the sweep executor could never ship it to a worker process.
        @registry.register("local")
        class LocalPlugin(ProtocolPlugin):
            def build(self, config):  # pragma: no cover - never called
                return None

            def build_liar(self, config, fake_message):  # pragma: no cover
                return None

            def build_schedule(self, deployment, config):  # pragma: no cover
                return None

        with pytest.raises(RegistryError, match="not picklable"):
            registry.get("local")

    def test_factory_registries_reject_non_dataclasses(self):
        registry = Registry("deployment", validator=DEPLOYMENTS._validator)

        def not_a_dataclass(seed):  # pragma: no cover - never called
            return None

        registry.register("closurelike", not_a_dataclass)
        with pytest.raises(RegistryError, match="dataclass"):
            registry.get("closurelike")

    def test_factory_entries_are_fingerprintable(self):
        from repro.sim.runner import fingerprint_payload

        for registry in (DEPLOYMENTS, FAULT_PLANS):
            for key in registry.keys():
                cls = registry.get(key)
                # Classes themselves reduce via their qualified name; what
                # matters is that *instances* are dataclasses, which
                # fingerprint_payload reduces field-by-field.
                assert hasattr(cls, "__dataclass_fields__")
                assert callable(fingerprint_payload)


class TestBuilderViaRegistries:
    def test_channel_plugins_build_from_config(self):
        from repro.sim.config import ScenarioConfig
        from repro.sim.radio import FriisChannel, UnitDiskChannel

        config = ScenarioConfig(radius=3.0, loss_probability=0.1)
        assert isinstance(CHANNELS.get("unitdisk").build(config), UnitDiskChannel)
        assert isinstance(CHANNELS.get("friis").build(config), FriisChannel)

    def test_protocol_plugin_builders_match_builder_output(self):
        from repro.core.neighborwatch import NeighborWatchNode
        from repro.sim.config import ScenarioConfig

        config = ScenarioConfig(protocol="neighborwatch2", radius=3.0)
        honest = PROTOCOLS.get(config.protocol).build(config)
        assert isinstance(honest, NeighborWatchNode)
        assert honest.config.votes_required == 2
        liar = PROTOCOLS.get(config.protocol).build_liar(config, (1, 0, 1, 0))
        assert isinstance(liar, NeighborWatchNode)
        assert liar.config.votes_required == 2

    def test_scenario_config_rejects_unknown_components(self):
        from repro.sim.config import ScenarioConfig

        with pytest.raises(ValueError, match="unknown protocol"):
            ScenarioConfig(protocol="quantum")
        with pytest.raises(ValueError, match="unknown channel"):
            ScenarioConfig(channel="string-and-cans")
