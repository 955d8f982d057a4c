"""Availability, corruption injection and robust aggregation."""

import numpy as np
import pytest

from repro.federated import (
    AvailabilityModel,
    CorruptionModel,
    DataConfig,
    FederationConfig,
    LocalTrainConfig,
    RobustFedAvg,
    make_clients,
    median_average,
    trimmed_mean_average,
)
from repro.federated.builder import model_factory


def states_of(*vectors):
    return [{"w": np.asarray(vector, dtype=np.float64)} for vector in vectors]


class TestAvailability:
    def test_zero_dropout_keeps_all(self):
        model = AvailabilityModel(0.0, seed=0)
        assert model.filter([1, 2, 3]) == [1, 2, 3]

    def test_never_empty(self):
        model = AvailabilityModel(0.95, seed=0)
        for _ in range(50):
            assert len(model.filter([4, 7])) >= 1

    def test_expected_dropout_rate(self):
        model = AvailabilityModel(0.5, seed=0)
        survived = sum(len(model.filter(list(range(10)))) for _ in range(200))
        assert survived == pytest.approx(1000, rel=0.15)

    def test_invalid_prob(self):
        with pytest.raises(ValueError):
            AvailabilityModel(1.0)


class TestCorruption:
    def test_rate_zero_never_corrupts(self):
        model = CorruptionModel(0.0, seed=0)
        state = {"w": np.ones(3)}
        assert model.maybe_corrupt(state) is state

    def test_rate_one_always_corrupts(self):
        model = CorruptionModel(1.0, scale=5.0, seed=0)
        state = {"w": np.ones(100)}
        corrupted = model.maybe_corrupt(state)
        assert not np.allclose(corrupted["w"], 1.0)
        assert corrupted["w"].std() > 1.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            CorruptionModel(1.5)


class TestRobustAggregators:
    def test_median_value(self):
        out = median_average(states_of([1.0], [100.0], [2.0]))
        np.testing.assert_allclose(out["w"], [2.0])

    def test_median_resists_one_adversary(self):
        honest = states_of([1.0, 2.0], [1.1, 2.1], [0.9, 1.9])
        adversary = states_of([1e9, -1e9])
        out = median_average(honest + adversary)
        assert np.abs(out["w"]).max() < 10.0

    def test_trimmed_mean_drops_extremes(self):
        states = states_of([0.0], [1.0], [2.0], [3.0], [1000.0])
        out = trimmed_mean_average(states, trim_fraction=0.2)
        np.testing.assert_allclose(out["w"], [2.0])

    def test_trimmed_mean_few_clients_degrades_to_mean(self):
        out = trimmed_mean_average(states_of([0.0], [4.0]), trim_fraction=0.4)
        np.testing.assert_allclose(out["w"], [2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            median_average([])
        with pytest.raises(ValueError):
            trimmed_mean_average(states_of([1.0]), trim_fraction=0.6)


class TestRobustTrainer:
    def make_trainer(self, **kwargs):
        config = FederationConfig(
            dataset="mnist", algorithm="fedavg", num_clients=6,
            data=DataConfig(n_train=240, n_test=80), seed=0,
            local=LocalTrainConfig(epochs=1, batch_size=10),
        )
        clients = make_clients(config)
        defaults = dict(
            clients=clients,
            model_fn=model_factory(config),
            rounds=2,
            sample_fraction=1.0,
            seed=0,
        )
        defaults.update(kwargs)
        return RobustFedAvg(**defaults)

    def test_runs_with_dropout_and_corruption(self):
        trainer = self.make_trainer(
            availability=AvailabilityModel(0.3, seed=1),
            corruption=CorruptionModel(0.3, seed=2),
            aggregation="median",
        )
        history = trainer.run()
        assert len(history.rounds) == 2
        assert 0.0 <= history.final_accuracy <= 1.0

    def test_median_survives_corruption_better_than_mean(self):
        """Failure injection: corrupted uploads wreck the mean, not the median."""
        results = {}
        for aggregation in ("mean", "median"):
            trainer = self.make_trainer(
                corruption=CorruptionModel(0.4, scale=25.0, seed=3),
                aggregation=aggregation,
                rounds=3,
            )
            results[aggregation] = trainer.run().final_accuracy
        assert results["median"] >= results["mean"]

    def test_dropout_reflected_in_sampled_clients(self):
        trainer = self.make_trainer(
            availability=AvailabilityModel(0.5, seed=5), aggregation="mean"
        )
        history = trainer.run()
        assert all(len(record.sampled_clients) >= 1 for record in history.rounds)

    def test_invalid_aggregation(self):
        with pytest.raises(ValueError):
            self.make_trainer(aggregation="mode")
