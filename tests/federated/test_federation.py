"""The Federation facade and FederationConfig serialization round-trips."""

import dataclasses

import pytest

from repro.federated import (
    DataConfig,
    Federation,
    FederationConfig,
    LocalTrainConfig,
    ScenarioConfig,
    SystemsConfig,
)
from repro.pruning import StructuredConfig, UnstructuredConfig


def tiny_config(**overrides):
    base = dict(
        dataset="mnist",
        algorithm="fedavg",
        num_clients=3,
        rounds=2,
        sample_fraction=1.0,
        data=DataConfig(n_train=120, n_test=60),
        seed=0,
        local=LocalTrainConfig(epochs=1, batch_size=10),
    )
    base.update(overrides)
    return FederationConfig(**base)


def availability_scenario_config():
    return FederationConfig(
        dataset="mnist", algorithm="fedavg", num_clients=6, rounds=2, seed=0,
        scenario=ScenarioConfig(
            sampler="availability",
            fleet="uniform",
            profiles=("edge-phone", "raspberry-pi"),
            profile_participation={"edge-phone": 0.5, "raspberry-pi": 0.9},
        ),
    )


class TestConfigSerialization:
    def test_dict_round_trip_equality(self):
        config = tiny_config(
            algorithm="sub-fedavg-hy",
            unstructured=UnstructuredConfig(target_rate=0.4, step=0.2),
            structured=StructuredConfig(target_rate=0.3),
        )
        assert FederationConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip_equality(self):
        config = tiny_config(
            algorithm="sub-fedavg-un",
            unstructured=UnstructuredConfig(target_rate=0.5, step=0.25, epsilon=0.0),
        )
        restored = FederationConfig.from_json(config.to_json())
        assert restored == config
        assert restored.unstructured == config.unstructured
        assert restored.local == config.local

    def test_none_sections_survive(self):
        config = tiny_config()
        restored = FederationConfig.from_json(config.to_json())
        assert restored.unstructured is None
        assert restored.structured is None

    def test_to_dict_is_json_safe(self):
        payload = tiny_config().to_dict()
        assert isinstance(payload["local"], dict)
        assert payload["algorithm"] == "fedavg"

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError, match="unknown FederationConfig fields"):
            FederationConfig.from_dict({"dataset": "mnist", "typo_field": 1})

    def test_local_default_factory_not_shared(self):
        first = FederationConfig(dataset="mnist", algorithm="fedavg")
        second = FederationConfig(dataset="mnist", algorithm="fedavg")
        assert first.local == second.local
        assert first.local is not second.local

    def test_nested_sections_round_trip(self):
        config = tiny_config(
            data=DataConfig(partition="label-k", labels_per_client=3, n_train=120),
            scenario=ScenarioConfig(
                sampler="availability", participation=0.8, dropout=0.1
            ),
        )
        restored = FederationConfig.from_json(config.to_json())
        assert restored == config
        assert restored.data.labels_per_client == 3
        assert restored.scenario.dropout == 0.1


#: A verbatim PR-3-era (pre-scenario, flat schema) payload: no
#: ``data``/``scenario`` sections, data fields at the top level.
LEGACY_PAYLOAD = {
    "dataset": "mnist",
    "algorithm": "fedavg",
    "num_clients": 3,
    "rounds": 2,
    "sample_fraction": 1.0,
    "shards_per_client": 2,
    "n_train": 120,
    "n_test": 60,
    "val_fraction": 0.1,
    "seed": 0,
    "eval_every": 0,
    "partition": "shard",
    "dirichlet_alpha": 0.5,
    "backend": "serial",
    "workers": 0,
    "local": {
        "lr": 0.01, "momentum": 0.5, "weight_decay": 0.0,
        "batch_size": 10, "epochs": 1, "prox_mu": 0.0, "mtl_lambda": 0.0,
    },
    "unstructured": None,
    "structured": None,
}


class TestLegacyConfigMigration:
    """PR-3-era flat payloads keep loading, running and hashing identically."""

    def test_flat_payload_equals_nested_equivalent(self):
        legacy = FederationConfig.from_dict(LEGACY_PAYLOAD)
        assert legacy == tiny_config()
        assert legacy.data == DataConfig(n_train=120, n_test=60)
        assert legacy.scenario == ScenarioConfig()

    def test_flat_keywords_are_not_constructor_arguments(self):
        """In code the nested ``data`` section is the only spelling."""
        with pytest.raises(TypeError):
            FederationConfig(dataset="mnist", algorithm="fedavg", n_train=10)
        assert not hasattr(FederationConfig(), "n_train")

    def test_post_legacy_data_fields_accepted_flat_too(self):
        """Every DataConfig field folds from a flat payload key, not just
        the six the old schema had."""
        config = FederationConfig.from_dict({
            "dataset": "mnist", "algorithm": "fedavg",
            "partition": "label-k", "labels_per_client": 3, "min_size": 4,
        })
        assert config.data == DataConfig(
            partition="label-k", labels_per_client=3, min_size=4
        )

    def test_flat_key_merges_with_data_section(self):
        config = FederationConfig.from_dict({
            "dataset": "mnist", "algorithm": "fedavg",
            "partition": "dirichlet", "data": {"dirichlet_alpha": 0.3},
        })
        assert config.data == DataConfig(partition="dirichlet", dirichlet_alpha=0.3)

    def test_field_set_flat_and_nested_rejected(self):
        payload = dict(LEGACY_PAYLOAD, data={"n_train": 200})
        with pytest.raises(ValueError, match=r"\['n_train'\]"):
            FederationConfig.from_dict(payload)

    def test_stable_hash_unchanged_from_flat_schema_era(self):
        """Hashes pinned from the PR-3 tree: result stores must resume."""
        legacy = FederationConfig.from_dict(LEGACY_PAYLOAD)
        assert legacy.stable_hash() == "227805adad4471c4"
        assert (
            legacy.stable_hash(
                extra={"trainer_overrides": {"aggregator": "zerofill"}}
            )
            == "57fd28bf6f291a04"
        )
        dirichlet = FederationConfig(
            dataset="emnist", algorithm="sub-fedavg-un",
            data=DataConfig(
                partition="dirichlet", dirichlet_alpha=0.3, shards_per_client=3
            ),
            unstructured=UnstructuredConfig(target_rate=0.5, step=0.2),
        )
        assert dirichlet.stable_hash() == "4d9e3dbba52508f6"

    def test_default_config_hash_pinned(self):
        """A default nested-schema config keeps the hash its result stores
        were keyed by (pinned since the config gained optional sections)."""
        config = FederationConfig(
            dataset="mnist", algorithm="fedavg", num_clients=4, rounds=1, seed=0
        )
        assert config.stable_hash() == "70451bccff9b90c5"

    def test_systems_config_hash_pinned(self):
        """A fleet-simulation config keeps the hash its result stores were
        keyed by while ``systems.pricing`` existed; a stored ``pricing``
        value (either mode priced identically) is dropped on load."""
        config = FederationConfig(
            dataset="mnist", algorithm="fedavg", num_clients=6, rounds=2,
            seed=0, data=DataConfig(n_train=240, n_test=120),
            systems=SystemsConfig(
                round_policy="deadline", deadline_seconds=1.0,
                flops_per_example=1e6, examples_per_round=100.0,
            ),
        )
        assert config.stable_hash() == "420ffca76e6a70a9"
        for pricing in ("vector", "scalar"):
            payload = config.to_dict()
            payload["systems"]["pricing"] = pricing
            assert FederationConfig.from_dict(payload) == config

    def test_fleet_workload_scenario_hash_pinned(self):
        """The perfbench fleet workload's config at seed 1 keeps its hash:
        a non-default scenario section (device profiles) beside a
        ``systems`` section and a non-default client cache."""
        config = FederationConfig(
            dataset="mnist", algorithm="sub-fedavg-un", num_clients=100,
            rounds=4, sample_fraction=0.1, seed=1, backend="process",
            workers=2, client_cache=16, local={"epochs": 1},
            scenario={"profiles": ["edge-phone", "raspberry-pi"]},
            systems={"round_policy": "async-buffer"},
        )
        assert config.stable_hash() == "8e231c8e2d86a2ae"

    def test_availability_scenario_hash_pinned(self):
        assert availability_scenario_config().stable_hash() == "1d07e51481c9498e"

    def test_removed_fields_at_defaults_are_dropped_on_load(self):
        """Payloads stored while the diurnal sampler, the hierarchical
        fleet and the file state store existed carry their fields at the
        defaults; those load as if absent, with the same hash."""
        config = availability_scenario_config()
        payload = config.to_dict()
        payload["scenario"].update(
            diurnal_amplitude=0.8,
            diurnal_period_seconds=86400.0,
            diurnal_round_seconds=600.0,
            regions=0,
            region_uplink_bytes_per_second=0.0,
        )
        payload["state_store"] = "memory"
        loaded = FederationConfig.from_dict(payload)
        assert loaded == config
        assert loaded.stable_hash() == config.stable_hash()

    @pytest.mark.parametrize(
        "section, name, value, removal",
        [
            ("scenario", "regions", 4, "hierarchical fleet was removed"),
            ("scenario", "region_uplink_bytes_per_second", 5e6,
             "hierarchical fleet was removed"),
            ("scenario", "fleet", "hierarchical", "hierarchical fleet was removed"),
            ("scenario", "diurnal_amplitude", 0.5, "diurnal sampler was removed"),
            ("scenario", "diurnal_period_seconds", 3600.0,
             "diurnal sampler was removed"),
            ("scenario", "diurnal_round_seconds", 60.0,
             "diurnal sampler was removed"),
            ("scenario", "sampler", "diurnal", "diurnal sampler was removed"),
            (None, "state_store", "file", "file state store was removed"),
        ],
    )
    def test_removed_values_raise_naming_the_removal(
        self, section, name, value, removal
    ):
        payload = availability_scenario_config().to_dict()
        (payload if section is None else payload[section])[name] = value
        with pytest.raises(ValueError, match=removal):
            FederationConfig.from_dict(payload)

    def test_new_scenario_fields_do_change_the_hash(self):
        base = tiny_config()
        availability = dataclasses.replace(
            base, scenario=ScenarioConfig(sampler="availability", dropout=0.2)
        )
        label_k = dataclasses.replace(
            base, data=dataclasses.replace(base.data, partition="label-k")
        )
        assert availability.stable_hash() != base.stable_hash()
        assert label_k.stable_hash() != base.stable_hash()

    def test_flat_payload_replays_identically_to_nested(self):
        legacy_run = Federation.from_dict(LEGACY_PAYLOAD).run()
        nested_run = Federation.from_config(tiny_config()).run()
        assert legacy_run.final_accuracy == nested_run.final_accuracy
        assert (
            legacy_run.final_per_client_accuracy
            == nested_run.final_per_client_accuracy
        )


class TestFederationFacade:
    def test_from_config_builds_clients_and_trainer(self):
        federation = Federation.from_config(tiny_config())
        assert len(federation.clients) == 3
        assert federation.trainer.rounds == 2
        assert federation.algorithm == "fedavg"
        assert federation.history.rounds == []

    def test_run_populates_history(self):
        federation = Federation.from_config(tiny_config())
        history = federation.run()
        assert history is federation.history
        assert len(history.rounds) == 2
        assert history.final_accuracy is not None

    def test_trainer_overrides(self):
        config = tiny_config(
            algorithm="sub-fedavg-un",
            unstructured=UnstructuredConfig(target_rate=0.5, step=0.25),
        )
        federation = Federation.from_config(config, track_trajectory=True)
        assert federation.trainer.track_trajectory is True

    def test_json_reproduces_identical_run(self):
        """Acceptance: from_json(to_json()) reproduces the exact run."""
        config = tiny_config(
            algorithm="sub-fedavg-un",
            unstructured=UnstructuredConfig(
                target_rate=0.5, step=0.25, epsilon=0.0, acc_threshold=0.0
            ),
        )
        original = Federation.from_config(config).run()
        replayed = Federation.from_json(config.to_json()).run()
        assert replayed.final_accuracy == original.final_accuracy
        assert replayed.total_communication_bytes == original.total_communication_bytes
        assert replayed.final_per_client_accuracy == original.final_per_client_accuracy


class TestValidation:
    @pytest.mark.parametrize(
        "name, value", [("num_clients", 0), ("num_clients", -1), ("eval_every", -2)]
    )
    def test_bad_counts_rejected_by_name(self, name, value):
        """``num_clients=0`` used to die in the partitioner with a bare
        ZeroDivisionError; ``eval_every=-2`` evaluated on even rounds."""
        with pytest.raises(ValueError, match=name):
            FederationConfig(dataset="mnist", algorithm="fedavg", **{name: value})
