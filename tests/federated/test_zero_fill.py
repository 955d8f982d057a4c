"""The zero-filling aggregation ablation baseline."""

import numpy as np
import pytest

from repro.federated import DataConfig, zero_fill_average
from repro.pruning import MaskSet


class TestZeroFillAverage:
    def test_divides_by_client_count(self):
        states = [{"w": np.array([6.0])}, {"w": np.array([0.0])}]
        masks = [MaskSet({"w": np.array([1])}), MaskSet({"w": np.array([0])})]
        out = zero_fill_average(states, masks, {"w": np.zeros(1)})
        # Intersection average would give 6.0; zero-fill gives 3.0.
        np.testing.assert_allclose(out["w"], [3.0])

    def test_equals_fedavg_with_dense_masks(self):
        states = [{"w": np.array([2.0, 4.0])}, {"w": np.array([6.0, 8.0])}]
        dense = MaskSet({"w": np.ones(2)})
        out = zero_fill_average(states, [dense, dense], {"w": np.zeros(2)})
        np.testing.assert_allclose(out["w"], [4.0, 6.0])

    def test_shrinks_rarely_kept_coordinates(self):
        """The failure mode motivating Sub-FedAvg's intersection rule."""
        keeper_value = 10.0
        states = [{"w": np.array([keeper_value])}] + [
            {"w": np.array([0.0])} for _ in range(9)
        ]
        masks = [MaskSet({"w": np.array([1])})] + [
            MaskSet({"w": np.array([0])}) for _ in range(9)
        ]
        out = zero_fill_average(states, masks, {"w": np.zeros(1)})
        assert out["w"][0] == pytest.approx(1.0)  # dragged toward zero

    def test_validation(self):
        with pytest.raises(ValueError):
            zero_fill_average([], [], {"w": np.zeros(1)})
        with pytest.raises(ValueError):
            zero_fill_average([{"w": np.zeros(1)}], [], {"w": np.zeros(1)})


class TestTrainerIntegration:
    def test_invalid_aggregator_rejected(self):
        from repro.federated import FederationConfig, LocalTrainConfig, make_clients
        from repro.federated.builder import model_factory
        from repro.federated.trainers.subfedavg import SubFedAvgUn

        config = FederationConfig(
            dataset="mnist", algorithm="sub-fedavg-un", num_clients=2,
            data=DataConfig(n_train=80, n_test=40), local=LocalTrainConfig(epochs=1),
        )
        clients = make_clients(config)
        with pytest.raises(ValueError, match="aggregator"):
            SubFedAvgUn(
                clients, model_factory(config), rounds=1, aggregator="bogus"
            )

    def test_zerofill_trainer_runs(self):
        from repro.federated import FederationConfig, LocalTrainConfig, make_clients
        from repro.federated.builder import model_factory
        from repro.federated.trainers.subfedavg import SubFedAvgUn
        from repro.pruning import UnstructuredConfig

        config = FederationConfig(
            dataset="mnist", algorithm="sub-fedavg-un", num_clients=2,
            data=DataConfig(n_train=80, n_test=40), local=LocalTrainConfig(epochs=1),
        )
        clients = make_clients(config)
        trainer = SubFedAvgUn(
            clients,
            model_factory(config),
            rounds=1,
            sample_fraction=1.0,
            unstructured=UnstructuredConfig(target_rate=0.3, step=0.3, epsilon=0.0),
            aggregator="zerofill",
        )
        history = trainer.run()
        assert 0.0 <= history.final_accuracy <= 1.0
