"""Non-IID partitioner invariants, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    ArrayDataset,
    DataConfig,
    build_client_data,
    dirichlet_partition,
    iid_partition,
    label_distribution,
    label_k_partition,
    label_overlap,
    label_test_view,
    load_dataset,
    partition_indices,
    quantity_skew_partition,
    shard_partition,
)


def balanced_labels(count, classes):
    return np.arange(count) % classes


class TestShardPartition:
    def test_disjoint_and_sized(self, rng):
        labels = balanced_labels(200, 10)
        parts = shard_partition(labels, num_clients=10, shards_per_client=2, rng=rng)
        assert len(parts) == 10
        all_indices = np.concatenate(parts)
        assert len(all_indices) == len(set(all_indices.tolist()))
        assert all(len(part) == 20 for part in parts)

    def test_pathological_label_skew(self, rng):
        """With 2 shards each, clients see at most ~2-3 distinct labels."""
        labels = balanced_labels(1000, 10)
        parts = shard_partition(labels, num_clients=10, shards_per_client=2, rng=rng)
        for part in parts:
            assert len(np.unique(labels[part])) <= 3

    def test_explicit_shard_size(self, rng):
        labels = balanced_labels(300, 10)
        parts = shard_partition(labels, 5, shards_per_client=2, shard_size=10, rng=rng)
        assert all(len(part) == 20 for part in parts)

    def test_too_small_dataset_raises(self, rng):
        with pytest.raises(ValueError):
            shard_partition(balanced_labels(10, 2), num_clients=20, rng=rng)

    def test_oversized_shards_raise(self, rng):
        with pytest.raises(ValueError, match="need"):
            shard_partition(balanced_labels(100, 10), 10, 2, shard_size=50, rng=rng)

    def test_deterministic_with_seed(self):
        labels = balanced_labels(200, 10)
        a = shard_partition(labels, 10, rng=np.random.default_rng(4))
        b = shard_partition(labels, 10, rng=np.random.default_rng(4))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @settings(max_examples=20, deadline=None)
    @given(
        num_clients=st.integers(min_value=1, max_value=12),
        classes=st.integers(min_value=2, max_value=10),
    )
    def test_property_partition_is_exact_cover_of_used_examples(
        self, num_clients, classes
    ):
        labels = balanced_labels(num_clients * 2 * 10, classes)
        parts = shard_partition(
            labels, num_clients, shards_per_client=2, rng=np.random.default_rng(0)
        )
        merged = np.concatenate(parts)
        assert len(merged) == len(labels)
        assert len(set(merged.tolist())) == len(labels)


class TestDirichletPartition:
    def test_covers_everything(self, rng):
        labels = balanced_labels(500, 10)
        parts = dirichlet_partition(labels, 8, alpha=0.5, rng=rng)
        merged = np.concatenate(parts)
        assert len(merged) == 500
        assert len(set(merged.tolist())) == 500

    def test_min_size_respected(self, rng):
        parts = dirichlet_partition(balanced_labels(500, 5), 5, 0.3, rng, min_size=5)
        assert min(len(part) for part in parts) >= 5

    def test_low_alpha_is_more_skewed(self):
        labels = balanced_labels(2000, 10)
        entropies = {}
        for alpha in (0.1, 100.0):
            parts = dirichlet_partition(
                labels, 10, alpha, np.random.default_rng(0)
            )
            per_client = []
            for part in parts:
                _, counts = np.unique(labels[part], return_counts=True)
                probabilities = counts / counts.sum()
                per_client.append(-(probabilities * np.log(probabilities)).sum())
            entropies[alpha] = np.mean(per_client)
        assert entropies[0.1] < entropies[100.0]

    def test_invalid_alpha(self, rng):
        with pytest.raises(ValueError):
            dirichlet_partition(balanced_labels(100, 5), 4, alpha=0.0, rng=rng)

    def test_exhausted_attempts_error_carries_context(self, rng):
        """The resample loop is bounded and its failure names the inputs."""
        with pytest.raises(RuntimeError) as excinfo:
            dirichlet_partition(
                balanced_labels(10, 2), 5, alpha=0.1, rng=rng,
                min_size=5, max_attempts=3,
            )
        message = str(excinfo.value)
        assert "alpha=0.1" in message
        assert "num_clients=5" in message
        assert "3 attempts" in message
        assert ">= 5" in message

    def test_min_size_and_attempts_come_from_config(self):
        """DataConfig carries the resample knobs; dispatch forwards them."""
        labels = balanced_labels(500, 5)
        config = DataConfig(
            partition="dirichlet", dirichlet_alpha=0.3, min_size=7, max_attempts=50
        )
        parts = partition_indices(labels, 5, config, np.random.default_rng(0))
        assert min(len(part) for part in parts) >= 7


class TestIIDPartition:
    def test_even_cover(self, rng):
        labels = balanced_labels(103, 10)
        parts = iid_partition(labels, 4, rng=rng)
        merged = np.concatenate(parts)
        assert len(set(merged.tolist())) == 103
        sizes = sorted(len(part) for part in parts)
        assert sizes[-1] - sizes[0] <= 1

    def test_deterministic_with_seed(self):
        labels = balanced_labels(200, 10)
        a = iid_partition(labels, 8, rng=np.random.default_rng(3))
        b = iid_partition(labels, 8, rng=np.random.default_rng(3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_near_global_label_mix(self):
        labels = balanced_labels(2000, 10)
        parts = iid_partition(labels, 4, rng=np.random.default_rng(0))
        for part in parts:
            _, counts = np.unique(labels[part], return_counts=True)
            # Every class present, no class dominating: the IID control.
            assert len(counts) == 10
            assert counts.max() / counts.sum() < 0.25


class TestQuantitySkewPartition:
    def test_covers_everything_and_respects_floor(self):
        labels = balanced_labels(600, 10)
        parts = quantity_skew_partition(
            labels, 8, alpha=0.3, rng=np.random.default_rng(0), min_size=4
        )
        merged = np.concatenate(parts)
        assert len(set(merged.tolist())) == 600
        assert min(len(part) for part in parts) >= 4

    def test_low_alpha_concentrates_sizes(self):
        """Lower alpha -> heavier size skew (higher max/min client ratio)."""
        labels = balanced_labels(4000, 10)
        ratios = {}
        for alpha in (0.2, 100.0):
            sizes = [
                len(part)
                for part in quantity_skew_partition(
                    labels, 10, alpha=alpha, rng=np.random.default_rng(1)
                )
            ]
            ratios[alpha] = max(sizes) / min(sizes)
        assert ratios[0.2] > ratios[100.0]

    def test_deterministic_with_seed(self):
        labels = balanced_labels(300, 5)
        a = quantity_skew_partition(labels, 6, 0.5, np.random.default_rng(9))
        b = quantity_skew_partition(labels, 6, 0.5, np.random.default_rng(9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            quantity_skew_partition(balanced_labels(100, 5), 4, alpha=0.0, rng=rng)
        with pytest.raises(ValueError, match="cannot give"):
            quantity_skew_partition(
                balanced_labels(10, 2), 8, alpha=1.0, rng=rng, min_size=5
            )


class TestLabelKPartition:
    def test_each_client_sees_exactly_k_labels(self):
        labels = balanced_labels(1000, 10)
        for k in (1, 2, 3):
            parts = label_k_partition(
                labels, 5, labels_per_client=k, rng=np.random.default_rng(0)
            )
            for part in parts:
                assert len(np.unique(labels[part])) == k

    def test_all_labels_covered_when_slots_suffice(self):
        labels = balanced_labels(1000, 10)
        parts = label_k_partition(
            labels, 5, labels_per_client=2, rng=np.random.default_rng(0)
        )
        owned = set()
        for part in parts:
            owned.update(np.unique(labels[part]).tolist())
        assert owned == set(range(10))

    def test_examples_not_duplicated(self):
        labels = balanced_labels(500, 10)
        parts = label_k_partition(
            labels, 10, labels_per_client=3, rng=np.random.default_rng(2)
        )
        merged = np.concatenate(parts)
        assert len(merged) == len(set(merged.tolist()))

    def test_deterministic_with_seed(self):
        labels = balanced_labels(400, 8)
        a = label_k_partition(labels, 6, 2, np.random.default_rng(5))
        b = label_k_partition(labels, 6, 2, np.random.default_rng(5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError, match="labels_per_client"):
            label_k_partition(balanced_labels(100, 5), 4, labels_per_client=6, rng=rng)


class TestClientData:
    def make_federation(self, **kwargs):
        train, test = load_dataset("mnist", 400, 100, seed=0)
        config = DataConfig(shards_per_client=2, val_fraction=0.1, **kwargs)
        return build_client_data(train, test, 8, config, seed=0), train, test

    def test_every_client_has_data(self):
        clients, *_ = self.make_federation()
        for client in clients:
            assert len(client.train) > 0
            assert len(client.val) > 0
            assert len(client.test) > 0

    def test_test_view_matches_owned_labels(self):
        clients, _, test = self.make_federation()
        for client in clients:
            test_labels = set(np.unique(client.test.labels).tolist())
            owned = set(client.labels.tolist())
            assert test_labels == {
                label for label in owned if label in set(test.labels.tolist())
            }

    def test_test_view_is_complete(self):
        """Each client's test view holds ALL test examples of its labels."""
        clients, _, test = self.make_federation()
        client = clients[0]
        for label in client.labels:
            expected = int((test.labels == label).sum())
            actual = int((client.test.labels == label).sum())
            assert actual == expected

    def test_label_distribution_table(self):
        clients, train, _ = self.make_federation()
        table = label_distribution(clients, num_classes=10)
        assert table.shape == (8, 10)
        # Total examples across clients equals what was partitioned out.
        total = sum(len(c.train) + len(c.val) for c in clients)
        assert table.sum() == sum(len(c.train) for c in clients)
        assert total <= len(train)

    def test_dirichlet_mode(self):
        clients, *_ = self.make_federation(partition="dirichlet")
        assert len(clients) == 8

    def test_unknown_partition_raises(self):
        train, test = load_dataset("mnist", 200, 50, seed=0)
        with pytest.raises(KeyError, match="unknown partition strategy"):
            build_client_data(train, test, 4, DataConfig(partition="bogus"))

    def test_data_config_object_accepted(self):
        train, test = load_dataset("mnist", 200, 50, seed=0)
        config = DataConfig(partition="dirichlet", dirichlet_alpha=1.0)
        clients = build_client_data(train, test, num_clients=4, config=config, seed=0)
        assert len(clients) == 4

    def test_legacy_positional_shards_arg_rejected_clearly(self):
        """The old 4th positional (shards_per_client) gets a clear error,
        not a late AttributeError on an int."""
        train, test = load_dataset("mnist", 200, 50, seed=0)
        with pytest.raises(TypeError, match="must be a DataConfig"):
            build_client_data(train, test, 4, 2)

    @pytest.mark.parametrize("shards", [0, -1])
    def test_zero_shards_per_client_rejected_by_name(self, shards):
        """Used to die in shard_partition with a bare ZeroDivisionError."""
        with pytest.raises(ValueError, match="shards_per_client"):
            DataConfig(shards_per_client=shards)


class TestLabelOverlap:
    def test_jaccard_values(self):
        clients, *_ = TestClientData().make_federation()
        a, b = clients[0], clients[1]
        overlap = label_overlap(a, b)
        assert 0.0 <= overlap <= 1.0
        assert label_overlap(a, a) == 1.0

    def test_label_test_view_empty_owned(self):
        _, test = load_dataset("mnist", 100, 50, seed=0)
        view = label_test_view(test, [])
        assert len(view) == 0
