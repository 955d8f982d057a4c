"""Dataset and partitioner registries: the scenario plugin surface."""

import numpy as np
import pytest

from repro.data import (
    DATASETS,
    PARTITIONERS,
    ArrayDataset,
    DataConfig,
    build_client_data,
    load_dataset,
    register_dataset,
    register_partitioner,
)
from repro.data.synthetic import DatasetSpec


class TestDatasetRegistry:
    def test_builtins_registered_in_order(self):
        assert tuple(DATASETS)[:4] == ("mnist", "emnist", "cifar10", "cifar100")

    def test_specs_is_live_view(self):
        """DATASETS reflects registrations made after it was imported."""
        spec = DatasetSpec("live-view", (1, 6, 6), 2, signal=1.0, noise=1.0, max_shift=0)
        assert "live-view" not in DATASETS
        register_dataset(spec)(lambda s, n_train, n_test, seed: None)
        try:
            assert "live-view" in DATASETS
            assert DATASETS["live-view"].spec.num_classes == 2
            assert "live-view" in tuple(DATASETS)
        finally:
            DATASETS.unregister("live-view")
        assert "live-view" not in DATASETS

    def test_get_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            DATASETS["imagenet"]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_dataset(
                DatasetSpec("mnist", (1, 28, 28), 10, signal=1.0, noise=1.0, max_shift=0)
            )(lambda *a: None)

    def test_entries_carry_summaries(self):
        assert all(entry.summary for entry in DATASETS.values())

    def test_registered_loader_is_dispatched(self):
        spec = DatasetSpec("four-blobs", (1, 4, 4), 4, signal=1.0, noise=1.0, max_shift=0)

        @register_dataset(spec, summary="four gaussian blobs")
        def load_blobs(spec, n_train, n_test, seed):
            rng = np.random.default_rng(seed)

            def split(count):
                labels = np.arange(count) % spec.num_classes
                images = rng.normal(size=(count, *spec.shape)) + labels[:, None, None, None]
                return ArrayDataset(images, labels)

            return split(n_train), split(n_test)

        try:
            train, test = load_dataset("four-blobs", 40, 12, seed=3)
            assert len(train) == 40 and len(test) == 12
            assert set(np.unique(train.labels)) == set(range(4))
        finally:
            DATASETS.unregister("four-blobs")


class TestPartitionerRegistry:
    def test_builtins_registered(self):
        names = tuple(PARTITIONERS)
        for expected in ("shard", "dirichlet", "iid", "quantity-skew", "label-k"):
            assert expected in names

    def test_get_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="unknown partition strategy"):
            PARTITIONERS["bogus"]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_partitioner("shard")(lambda labels, num_clients, rng=None: [])

    def test_params_map_to_config_fields(self):
        spec = PARTITIONERS["dirichlet"]
        kwargs = spec.kwargs_from(DataConfig(dirichlet_alpha=0.25, min_size=3))
        assert kwargs == {"alpha": 0.25, "min_size": 3, "max_attempts": 100}

    def test_params_missing_from_config_are_skipped(self):
        """Third-party params without a config field fall back to fn defaults."""

        @register_partitioner("halves", params=("no_such_field",))
        def halves(labels, num_clients, rng=None, no_such_field=7):
            order = np.arange(len(labels))
            return [np.asarray(c) for c in np.array_split(order, num_clients)]

        try:
            spec = PARTITIONERS["halves"]
            assert spec.kwargs_from(DataConfig()) == {}
        finally:
            PARTITIONERS.unregister("halves")

    def test_summaries_populated(self):
        assert all(spec.summary for spec in PARTITIONERS.values())


class TestThirdPartyScenario:
    """Acceptance: a full scenario registers via decorators only."""

    def test_full_scenario_runs_through_federation(self):
        """Dataset + partitioner + availability sampler, zero core edits."""
        from repro.federated import (
            Federation,
            FederationConfig,
            LocalTrainConfig,
            ScenarioConfig,
        )

        spec = DatasetSpec("two-bands", (1, 5, 5), 2, signal=2.0, noise=0.5, max_shift=0)

        @register_dataset(spec, summary="two horizontal bands")
        def load_bands(spec, n_train, n_test, seed):
            rng = np.random.default_rng(seed)

            def split(count):
                labels = (np.arange(count) % 2).astype(np.int64)
                images = rng.normal(scale=spec.noise, size=(count, *spec.shape))
                images[labels == 0, 0, 0, :] += spec.signal
                images[labels == 1, 0, 3, :] += spec.signal
                return ArrayDataset(images, labels)

            return split(n_train), split(n_test)

        @register_partitioner("alternating", summary="even/odd index deal")
        def alternating(labels, num_clients, rng=None):
            return [
                np.arange(client, len(labels), num_clients, dtype=np.int64)
                for client in range(num_clients)
            ]

        try:
            config = FederationConfig(
                dataset="two-bands",
                algorithm="fedavg",
                num_clients=3,
                rounds=2,
                sample_fraction=1.0,
                data=DataConfig(n_train=60, n_test=30, partition="alternating"),
                seed=0,
                local=LocalTrainConfig(epochs=1, batch_size=10),
                scenario=ScenarioConfig(
                    sampler="availability", participation=0.9, dropout=0.1
                ),
            )
            history = Federation.from_config(config).run()
            assert history.final_accuracy is not None
            assert len(history.rounds) == 2
            # The config round-trips with the third-party names embedded.
            restored = FederationConfig.from_json(config.to_json())
            assert restored == config
        finally:
            DATASETS.unregister("two-bands")
            PARTITIONERS.unregister("alternating")

    def test_custom_partitioner_drives_build_client_data(self):
        @register_partitioner("round-robin", summary="deal indices in turn")
        def round_robin(labels, num_clients, rng=None):
            return [
                np.arange(client, len(labels), num_clients, dtype=np.int64)
                for client in range(num_clients)
            ]

        try:
            train, test = load_dataset("mnist", 120, 40, seed=0)
            clients = build_client_data(
                train, test, 4, DataConfig(partition="round-robin"), seed=0
            )
            assert len(clients) == 4
            # Round-robin is an even deal: every client holds a quarter.
            assert all(
                len(c.train) + len(c.val) == 30 for c in clients
            )
        finally:
            PARTITIONERS.unregister("round-robin")
