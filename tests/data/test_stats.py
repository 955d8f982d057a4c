"""Heterogeneity quantification (Zhao et al. 2018-style EMD)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    DataConfig,
    build_client_data,
    heterogeneity_index,
    label_emd,
    label_histogram,
    load_dataset,
)


class TestLabelHistogram:
    def test_normalized(self):
        histogram = label_histogram(np.array([0, 0, 1, 2]), num_classes=4)
        np.testing.assert_allclose(histogram, [0.5, 0.25, 0.25, 0.0])

    def test_empty(self):
        histogram = label_histogram(np.array([], dtype=int), num_classes=3)
        np.testing.assert_array_equal(histogram, np.zeros(3))


class TestLabelEmd:
    def test_identical_is_zero(self):
        p = np.array([0.5, 0.5])
        assert label_emd(p, p) == 0.0

    def test_disjoint_is_one(self):
        assert label_emd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_symmetric(self, rng):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        assert label_emd(p, q) == pytest.approx(label_emd(q, p))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            label_emd(np.ones(2) / 2, np.ones(3) / 3)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_property_bounded(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert 0.0 <= label_emd(p, q) <= 1.0


class TestHeterogeneityIndex:
    def make_clients(self, partition, alpha=0.5):
        train, test = load_dataset("mnist", 400, 100, seed=0)
        config = DataConfig(partition=partition, dirichlet_alpha=alpha)
        return build_client_data(train, test, 8, config, seed=0)

    def test_shard_partition_is_pathological(self):
        clients = self.make_clients("shard")
        index = heterogeneity_index(clients, num_classes=10)
        # ~2 labels per client => EMD near 1 - 2/10 = 0.8.
        assert index["mean_emd"] > 0.6
        assert index["mean_labels_per_client"] <= 3.5

    def test_high_alpha_dirichlet_is_milder(self):
        pathological = heterogeneity_index(self.make_clients("shard"), 10)
        mild = heterogeneity_index(
            self.make_clients("dirichlet", alpha=100.0), 10
        )
        assert mild["mean_emd"] < pathological["mean_emd"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            heterogeneity_index([], 10)
